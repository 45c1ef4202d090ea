"""The HTTP endpoint: wire codec, transport parity with TCP, status codes."""

import asyncio
import http.client
import json
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import faults
from repro.apps.suite import execution_requests
from repro.client import ClientConfig, StencilClient, TransportError
from repro.service import (ExecutionRequest, ExecutionResponse,
                           StencilService, serve_http, serve_tcp)
from repro.service import jobs as jobs_module
from repro.service.http import (ROUTES, Connection, HTTPError, decode_body,
                                read_request, route_for)
from repro.service.ops import OPS
from repro.service.requests import (
    BAD_REQUEST,
    CANCELLED,
    DEADLINE_EXCEEDED,
    NOT_FOUND,
    REQUEST_TOO_LARGE,
    UNAUTHORIZED,
)
from repro.service.wire import (
    CONTENT_TYPE_GRIDS,
    MAGIC,
    WireFormatError,
    decode_grid_payload,
    describe_grids,
    encode_grid_payload,
    iter_chunks,
    payload_length,
    verified_sha256,
)

AUTH_KEY = "test-http-key"


class TestWireCodec:
    def test_round_trip_preserves_bits_and_meta(self):
        rng = np.random.default_rng(7)
        grids = [rng.random((5, 7)), rng.random((3, 4, 2))]
        meta = {"benchmark": "stencil2d", "priority": "high", "steps": 3}
        prefix, buffers = encode_grid_payload(meta, grids)
        body = prefix + b"".join(buffers)
        assert payload_length(prefix, buffers) == len(body)
        decoded_meta, decoded = decode_grid_payload(body)
        assert decoded_meta == meta
        assert len(decoded) == 2
        for original, copy in zip(grids, decoded):
            assert copy.shape == original.shape
            assert copy.dtype == original.dtype
            assert copy.tobytes() == original.tobytes()
            assert copy.flags.writeable

    def test_iter_chunks_reassembles_exactly_and_bounds_chunks(self):
        grids = [np.arange(1000, dtype=np.float64).reshape(25, 40)]
        prefix, buffers = encode_grid_payload({"benchmark": "x"}, grids)
        chunks = list(iter_chunks(prefix, buffers, chunk_bytes=512))
        assert all(len(chunk) <= 512 for chunk in chunks)
        assert len(chunks) > 1  # an 8000-byte grid must actually be split
        assert b"".join(chunks) == prefix + b"".join(buffers)

    def test_bad_magic_and_truncation_raise(self):
        prefix, buffers = encode_grid_payload(
            {}, [np.ones((2, 2))]
        )
        body = prefix + b"".join(buffers)
        with pytest.raises(WireFormatError):
            decode_grid_payload(b"NOPE" + body[4:])
        with pytest.raises(WireFormatError):
            decode_grid_payload(body[:-3])
        with pytest.raises(WireFormatError):
            decode_grid_payload(body + b"\x00")

    def test_grids_start_8_byte_aligned(self):
        for meta in ({}, {"benchmark": "x"}, {"benchmark": "xy", "steps": 3}):
            prefix, _buffers = encode_grid_payload(meta, [np.ones((2, 3))])
            assert len(prefix) % 8 == 0

    def test_grid_decoded_from_a_bytearray_is_a_writable_view_of_it(self):
        rng = np.random.default_rng(3)
        grids = [rng.random((6, 5)), rng.random((4, 4))]
        prefix, buffers = encode_grid_payload({}, grids)
        body = bytearray(prefix + b"".join(buffers))
        _meta, decoded = decode_grid_payload(body)
        descriptors, _ = describe_grids(grids)
        for original, grid, descriptor in zip(grids, decoded, descriptors):
            assert np.shares_memory(grid, np.frombuffer(body, np.uint8))
            assert grid.flags.writeable
            assert grid.tobytes() == original.tobytes()
            assert verified_sha256(grid) == descriptor["sha256"]
        decoded[0][0, 0] = -1.0  # writes land in the received buffer
        assert np.frombuffer(body, np.float64, 1, len(prefix))[0] == -1.0

    @staticmethod
    def _misaligned(grids) -> bytearray:
        """RPG1 whose grids start one byte past an 8-byte boundary."""
        descriptors, buffers = describe_grids(grids)
        header = json.dumps({"grids": descriptors}).encode()
        header += b" " * ((-(8 + len(header)) + 1) % 8)
        return bytearray(MAGIC + struct.pack("<I", len(header)) + header
                         + b"".join(buffers))

    @pytest.mark.parametrize("form", ["bytes", "misaligned", "big-endian"])
    def test_other_payloads_decode_to_correct_writable_grids(self, form):
        original = np.random.default_rng(5).random((7, 3))
        grids = [original.astype(">f8") if form == "big-endian" else original]
        if form == "misaligned":
            body = self._misaligned(grids)
        else:
            prefix, buffers = encode_grid_payload({}, grids)
            body = prefix + b"".join(buffers)
            body = bytearray(body) if form == "big-endian" else body
        _meta, (grid,) = decode_grid_payload(body)
        assert grid.flags.writeable and grid.dtype.isnative
        assert grid.tobytes() == original.tobytes()
        if form != "big-endian":  # a big-endian grid travels little-endian
            assert not np.shares_memory(grid, np.frombuffer(body, np.uint8))

    def test_payload_corrupt_fault_is_caught_on_the_zero_copy_path(self):
        faults.arm("wire.payload_corrupt")
        try:
            prefix, buffers = encode_grid_payload({}, [np.ones((4, 4))])
        finally:
            faults.disarm()
        with pytest.raises(WireFormatError, match="checksum mismatch"):
            decode_grid_payload(bytearray(prefix + b"".join(buffers)))


def _read_one(raw: bytes, max_request_bytes: int = 1 << 20):
    """``read_request`` over a real loopback :class:`Connection` that is
    sent ``raw``: the Request it returns, or the exception it raises."""
    async def main():
        loop = asyncio.get_running_loop()
        outcome = loop.create_future()

        async def serve(connection):
            try:
                outcome.set_result(
                    await read_request(connection, max_request_bytes))
            except Exception as error:  # noqa: BLE001 - handed to the test
                outcome.set_exception(error)
            finally:
                connection.close()

        server = await loop.create_server(lambda: Connection(serve),
                                          "127.0.0.1", 0)
        _reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.sockets[0].getsockname()[1])
        writer.write(raw)
        try:
            return await asyncio.wait_for(outcome, 10)
        finally:
            writer.close()
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def _chunked(pieces) -> bytes:
    return b"".join(b"%x\r\n%s\r\n" % (len(piece), piece)
                    for piece in pieces) + b"0\r\n\r\n"


class TestRequestBody:
    """The server's body path: one buffer of the declared length."""

    def test_content_length_body_lands_in_one_bytearray(self):
        grids = [np.arange(600, dtype=np.float64).reshape(20, 30)]
        prefix, buffers = encode_grid_payload({"benchmark": "x"}, grids)
        body = prefix + b"".join(buffers)
        request = _read_one(b"POST /v1/execute HTTP/1.1\r\nContent-Length: "
                            b"%d\r\n\r\n" % len(body) + body)
        assert isinstance(request.body, bytearray) and request.body == body
        _meta, (grid,) = decode_body(CONTENT_TYPE_GRIDS, request.body)
        assert np.shares_memory(grid, np.frombuffer(request.body, np.uint8))

    def test_chunked_and_content_length_uploads_decode_identically(self):
        rng = np.random.default_rng(9)
        grids = [rng.random((33, 17)), rng.random((5, 8))]
        prefix, buffers = encode_grid_payload({"benchmark": "x"}, grids)
        body = prefix + b"".join(buffers)
        sized = _read_one(b"POST /v1/execute HTTP/1.1\r\nContent-Length: "
                          b"%d\r\n\r\n" % len(body) + body)
        chunked = _read_one(
            b"POST /v1/execute HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + _chunked(iter_chunks(prefix, buffers, chunk_bytes=1000)))
        decoded = [decode_body(CONTENT_TYPE_GRIDS, request.body)
                   for request in (sized, chunked)]
        assert decoded[0][0] == decoded[1][0] == {"benchmark": "x"}
        for original, via_length, via_chunks in zip(grids, decoded[0][1],
                                                    decoded[1][1]):
            assert via_length.tobytes() == via_chunks.tobytes()
            assert via_chunks.tobytes() == original.tobytes()

    def test_oversized_content_length_is_refused_before_allocating(self):
        declared = 64 * 1024 * 1024
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with pytest.raises(HTTPError) as refused:
                # No body follows: the refusal cannot wait for one.
                _read_one(b"POST /v1/execute HTTP/1.1\r\nContent-Length: "
                          b"%d\r\n\r\n" % declared)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert refused.value.code == REQUEST_TOO_LARGE
        assert peak < declared // 8

    def test_oversized_content_length_answers_413_over_http(self, live_server):
        raw = _raw_socket(
            live_server["http_port"],
            b"POST /v1/execute HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % (64 * 1024 * 1024))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert json.loads(body)["code"] == REQUEST_TOO_LARGE

    def test_body_cut_short_by_the_peer_closes_without_a_reply(
            self, live_server):
        with socket.create_connection(
                ("127.0.0.1", live_server["http_port"]), timeout=5) as sock:
            sock.sendall(b"POST /v1/execute HTTP/1.1\r\nHost: x\r\n"
                         b"Authorization: Bearer " + AUTH_KEY.encode()
                         + b"\r\nContent-Length: 1000\r\n\r\n" + b"x" * 10)
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(4096) == b""  # closed, nothing answered


@pytest.fixture(scope="module")
def live_server():
    """One service exposed over both transports with shared-key auth."""
    started = threading.Event()
    holder = {}

    def serve():
        async def main():
            service = StencilService(batch_window=0.01)
            async with service:
                tcp = await serve_tcp(service, "127.0.0.1", 0,
                                      auth_key=AUTH_KEY,
                                      max_request_bytes=1024 * 1024)
                web = await serve_http(service, "127.0.0.1", 0,
                                       auth_key=AUTH_KEY,
                                       max_request_bytes=1024 * 1024)
                holder["tcp_port"] = tcp.sockets[0].getsockname()[1]
                holder["http_port"] = web.sockets[0].getsockname()[1]
                async with tcp:
                    started.set()
                    await holder["stop"]
                web.close()
                await web.wait_closed()
                await asyncio.sleep(0.05)

        loop = asyncio.new_event_loop()
        holder["loop"] = loop
        holder["stop"] = loop.create_future()
        loop.run_until_complete(main())
        loop.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(10)
    yield holder
    holder["loop"].call_soon_threadsafe(holder["stop"].set_result, None)
    thread.join(timeout=10)


def _raw_http(holder, method, path, body=b"", headers=None):
    """One raw request, returning (status, headers dict, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", holder["http_port"],
                                      timeout=10)
    try:
        conn.request(method, path, body=body, headers=dict(headers or {}))
        response = conn.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


def _auth_headers(extra=None):
    headers = {"Authorization": f"Bearer {AUTH_KEY}",
               "Content-Type": "application/json"}
    headers.update(extra or {})
    return headers


#: The three ways one op reaches the service through ``StencilClient``.
MODES = {
    "tcp": dict(transport="tcp"),
    "http+json": dict(transport="http", binary_threshold_bytes=1 << 30),
    "http+rpg1": dict(transport="http", binary_threshold_bytes=0),
}


def _client(holder, mode, auth_key=AUTH_KEY):
    port = holder["tcp_port" if mode == "tcp" else "http_port"]
    return StencilClient(ClientConfig(port=port, auth_key=auth_key,
                                      **MODES[mode]))


def _raw_op(holder, op, meta, headers=None):
    """One op as a raw JSON HTTP request, routed through ``ROUTES``."""
    method, path = route_for(op, meta)
    body = json.dumps(meta).encode() if method == "POST" else b""
    return _raw_http(holder, method, path, body=body,
                     headers=headers if headers is not None
                     else _auth_headers())


def _raw_socket(port, payload, lines=None):
    """Send raw bytes; read ``lines`` reply lines, or everything until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        if lines is None:
            return reader.read()
        return [reader.readline() for _ in range(lines)]


def _request(steps=1):
    return ExecutionRequest.for_benchmark("jacobi2d5pt", shape=(10, 9),
                                          seed=2, steps=steps)


def _response_meta(response):
    meta = response.wire_meta()
    meta.pop("latency_ms")
    return meta, response.result.tobytes()


def _leaves(tree, path=()):
    """A nested report flattened to ``{key path: leaf value}``."""
    if not isinstance(tree, dict):
        return {path: tree}
    return {leaf: value for key, child in tree.items()
            for leaf, value in _leaves(child, path + (key,)).items()}


def _job_result(client, job_id):
    descriptor, grid = client.job_result(job_id)
    return descriptor, grid.tobytes()


def _hold_first_boundary(monkeypatch):
    """Hold the next job at its first segment boundary until released.

    Returns ``(held, release)``: ``held`` is set once the job's worker
    waits at that boundary, which it leaves only after ``release`` is
    set, taking whatever stop reason the job has by then.
    """
    held, release = threading.Event(), threading.Event()
    real_run = jobs_module.run_trajectory

    def held_run(*args, boundary, **kwargs):
        def holding(done, state):
            if not held.is_set():
                held.set()
                assert release.wait(timeout=30.0)
            return boundary(done, state)
        return real_run(*args, boundary=holding, **kwargs)

    monkeypatch.setattr(jobs_module, "run_trajectory", held_run)
    return held, release


@pytest.fixture(scope="module")
def finished_job(live_server):
    """A completed 4-step job every mode of the matrix then asks about."""
    with _client(live_server, "tcp") as client:
        job = client.submit_job(_request(steps=4), job_key="parity-matrix")
        done = client.wait_job(job["job_id"], timeout_s=30, poll_s=0.02)
    assert done["status"] == "completed", done
    return done


#: op name → how ``StencilClient`` drives it, returning what must agree
#: across transports: (reply metadata, result bytes or None).
OP_CALLS = {
    "ping": lambda client, job: (client.ping(), None),
    "stats": lambda client, job: (
        sorted(client.stats()), None),
    "trace": lambda client, job: (
        sorted(client.transport.call("trace", {"limit": 1}, None, 10)[0]),
        None),
    "metrics": lambda client, job: (
        sorted(client.transport.call("metrics", {}, None, 10)[0]), None),
    "execute": lambda client, job: _response_meta(client.execute(_request())),
    "iterate": lambda client, job: _response_meta(
        client.iterate(_request(), steps=4)),
    "job_submit": lambda client, job: (
        client.submit_job(_request(steps=4), job_key="parity-matrix"), None),
    "job_status": lambda client, job: (
        client.job_status(job["job_id"]), None),
    "job_result": lambda client, job: _job_result(client, job["job_id"]),
    "job_cancel": lambda client, job: (
        client.cancel_job(job["job_id"]), None),
    "job_list": lambda client, job: (
        [entry for entry in client.list_jobs()
         if entry["job_id"] == job["job_id"]], None),
}


class TestTransportParity:
    def test_the_matrix_covers_the_op_table(self):
        # iterate is the execute op behind its own route.
        assert set(OP_CALLS) - {"iterate"} == set(OPS)
        routed = {op for _method, _pattern, op, _required in ROUTES}
        assert set(OPS) - routed == set()  # every op reaches both codecs

    @pytest.mark.parametrize("op", sorted(OP_CALLS))
    def test_every_op_agrees_across_transports(self, live_server,
                                               finished_job, op):
        """One op table ⇒ equal reply metadata over TCP, HTTP+JSON and
        HTTP+RPG1, and byte-equal grids where the op returns one."""
        answers = {}
        for mode in MODES:
            with _client(live_server, mode) as client:
                answers[mode] = OP_CALLS[op](client, finished_job)
        meta, grid = answers["tcp"]
        assert meta  # a real answer, not three equal refusals
        for mode, answer in answers.items():
            assert answer == (meta, grid), f"{op} differs over {mode}"
        if op in ("iterate", "job_result"):
            assert grid is not None
        if op == "job_result":  # the durable path computes the sync bits
            with _client(live_server, "http+rpg1") as client:
                stepped = client.iterate(_request(), steps=4)
            assert grid == stepped.result.tobytes()

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_a_reply_carries_the_routing_facts_only(self, live_server, mode):
        """No lowering serves, so no reply names one: ``variant`` and
        ``plan_source`` are gone from every transport."""
        meta = {"benchmark": "jacobi2d5pt", "shape": [10, 9], "seed": 2}
        with _client(live_server, mode) as client:
            reply, _grid = client.transport.call("execute", meta, None, 10)
        assert reply["ok"], reply
        assert set(reply) - {"result"} == {
            "ok", "benchmark", "digest", "batch_size", "batched",
            "latency_ms"}

    def test_binary_path_never_builds_json_lists(self, live_server,
                                                 monkeypatch):
        """RPG1 both ways reads grid-free metadata; ``to_wire`` (a
        ``tolist()`` per grid) must not run on either side of the wire."""
        def forbidden(self):
            raise AssertionError("to_wire() called on the binary path")

        monkeypatch.setattr(ExecutionRequest, "to_wire", forbidden)
        monkeypatch.setattr(ExecutionResponse, "to_wire", forbidden)
        with _client(live_server, "http+rpg1") as client:
            one = client.execute(_request())
            stepped = client.iterate(_request(), steps=4)
            via_job = client.run_job(_request(steps=4), timeout_s=30)
        assert one.ok and stepped.ok, (one.error, stepped.error)
        assert via_job.tobytes() == stepped.result.tobytes()

    def test_http_and_tcp_results_are_bit_identical_for_the_suite(
            self, live_server):
        """Property (iii): every benchmark's grid is bit-identical over
        HTTP (binary body both ways) and TCP (JSON lists both ways)."""
        http_client = StencilClient(ClientConfig(
            port=live_server["http_port"], transport="http",
            auth_key=AUTH_KEY, binary_threshold_bytes=0,  # force binary
        ))
        tcp_client = StencilClient(ClientConfig(
            port=live_server["tcp_port"], transport="tcp", auth_key=AUTH_KEY,
        ))
        checked = 0
        with http_client, tcp_client:
            for request in execution_requests():
                over_http = http_client.execute(request)
                over_tcp = tcp_client.execute(request)
                assert over_http.ok, over_http.error
                assert over_tcp.ok, over_tcp.error
                assert over_http.result is not None
                assert over_http.result.dtype == over_tcp.result.dtype
                assert over_http.result.shape == over_tcp.result.shape
                assert (over_http.result.tobytes()
                        == over_tcp.result.tobytes()), (
                    f"{request.benchmark}: HTTP and TCP grids differ"
                )
                checked += 1
        assert checked >= 6  # the whole suite, not a subset

    def test_json_body_and_binary_body_agree(self, live_server):
        request = ExecutionRequest.for_benchmark("jacobi2d5pt",
                                                 shape=(12, 10), seed=5)
        json_client = StencilClient(ClientConfig(
            port=live_server["http_port"], transport="http",
            auth_key=AUTH_KEY, binary_threshold_bytes=1 << 30,  # force JSON
        ))
        binary_client = StencilClient(ClientConfig(
            port=live_server["http_port"], transport="http",
            auth_key=AUTH_KEY, binary_threshold_bytes=0,
        ))
        with json_client, binary_client:
            via_json = json_client.execute(request)
            via_binary = binary_client.execute(request)
        assert via_json.ok and via_binary.ok
        assert via_json.result.tobytes() == via_binary.result.tobytes()

    def test_iterate_runs_steps_and_matches_over_both_transports(
            self, live_server):
        request = ExecutionRequest.for_benchmark("jacobi2d5pt",
                                                 shape=(10, 9), seed=2)
        with StencilClient(ClientConfig(
            port=live_server["http_port"], transport="http",
            auth_key=AUTH_KEY,
        )) as client:
            one = client.execute(ExecutionRequest.for_benchmark(
                "jacobi2d5pt", shape=(10, 9), seed=2))
            stepped = client.iterate(request, steps=4)
        assert stepped.ok, stepped.error
        assert stepped.result.shape == one.result.shape
        assert stepped.result.tobytes() != one.result.tobytes()
        with StencilClient(ClientConfig(
            port=live_server["tcp_port"], transport="tcp", auth_key=AUTH_KEY,
        )) as tcp_client:
            tcp_stepped = tcp_client.iterate(
                ExecutionRequest.for_benchmark("jacobi2d5pt", shape=(10, 9),
                                               seed=2),
                steps=4,
            )
        assert tcp_stepped.ok, tcp_stepped.error
        assert tcp_stepped.result.tobytes() == stepped.result.tobytes()

    def test_ping_and_stats_over_http(self, live_server):
        with StencilClient(ClientConfig(
            port=live_server["http_port"], transport="http",
            auth_key=AUTH_KEY,
        )) as client:
            assert client.ping()
            stats = client.stats()
        assert stats["service"]["requests_served"] >= 1

    def test_stats_route_needs_the_key_and_answers_the_tcp_report(
            self, live_server):
        """``GET /v1/stats`` is the TCP ``stats`` op: 401 without the key,
        and with it the report TCP returns for the same server."""
        status, _, body = _raw_http(live_server, "GET", "/v1/stats")
        assert status == 401
        assert json.loads(body)["code"] == UNAUTHORIZED
        with _client(live_server, "tcp") as tcp_client, \
                _client(live_server, "http+json") as http_client:
            first, tcp, last = (_leaves(read()) for read in (
                http_client.stats, tcp_client.stats, http_client.stats))
        assert first.keys() == tcp.keys()
        # Nothing runs between the reads, so every counter agrees; a value
        # that moves on its own between the two HTTP reads is left out.
        steady = {path for path in first if first[path] == last[path]}
        assert {path: tcp[path] for path in steady} == {
            path: first[path] for path in steady}
        assert tcp[("service", "requests_served")] >= 1


class TestStatusMapping:
    @staticmethod
    def _wire(**kwargs):
        request = ExecutionRequest.for_benchmark(
            "stencil2d", shape=(6, 6), **kwargs)
        return json.dumps(request.to_wire()).encode()

    def test_healthz_needs_no_auth(self, live_server):
        status, _, body = _raw_http(live_server, "GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_missing_or_wrong_auth_is_401(self, live_server):
        status, _, body = _raw_http(
            live_server, "POST", "/v1/execute", body=self._wire(),
            headers={"Content-Type": "application/json"})
        assert status == 401
        assert json.loads(body)["code"] == UNAUTHORIZED
        status, _, body = _raw_http(
            live_server, "POST", "/v1/execute", body=self._wire(),
            headers=_auth_headers({"Authorization": "Bearer wrong"}))
        assert status == 401

    def test_expired_deadline_is_504_with_structured_body(self, live_server):
        status, _, body = _raw_http(
            live_server, "POST", "/v1/execute",
            body=self._wire(deadline_ms=0.0001),
            headers=_auth_headers())
        assert status == 504
        decoded = json.loads(body)
        assert decoded["ok"] is False
        assert decoded["code"] == DEADLINE_EXCEEDED

    def test_malformed_json_is_400(self, live_server):
        status, _, body = _raw_http(
            live_server, "POST", "/v1/execute", body=b"{nope",
            headers=_auth_headers())
        assert status == 400
        assert json.loads(body)["code"] == BAD_REQUEST

    def test_iterate_without_steps_is_400(self, live_server):
        status, _, body = _raw_http(
            live_server, "POST", "/v1/iterate", body=self._wire(),
            headers=_auth_headers())
        assert status == 400
        assert json.loads(body)["code"] == BAD_REQUEST

    def test_unknown_path_is_404(self, live_server):
        status, _, _ = _raw_http(live_server, "GET", "/v1/nope",
                                 headers=_auth_headers())
        assert status == 404

    def test_oversized_body_is_413(self, live_server):
        status, _, body = _raw_http(
            live_server, "POST", "/v1/execute", body=b"x" * 16,
            headers=_auth_headers({"Content-Length": str(64 * 1024 * 1024)}))
        assert status == 413
        assert json.loads(body)["code"] == REQUEST_TOO_LARGE

    def test_binary_garbage_is_400(self, live_server):
        status, _, body = _raw_http(
            live_server, "POST", "/v1/execute", body=b"NOTAGRIDPAYLOAD",
            headers=_auth_headers({"Content-Type": CONTENT_TYPE_GRIDS}))
        assert status == 400
        assert json.loads(body)["code"] == BAD_REQUEST

    @pytest.mark.parametrize("name,op,meta,code,status", [
        ("unknown benchmark", "execute", {"benchmark": "nope"},
         BAD_REQUEST, 400),
        ("bad priority", "execute",
         {"benchmark": "stencil2d", "shape": [6, 6], "priority": "urgent"},
         BAD_REQUEST, 400),
        ("iterate of an unknown benchmark", "execute",
         {"benchmark": "nope", "steps": 3}, BAD_REQUEST, 400),
        ("job for an unknown benchmark", "job_submit",
         {"benchmark": "nope", "steps": 3}, BAD_REQUEST, 400),
        ("unknown job id", "job_status", {"job_id": "nope"}, NOT_FOUND, 404),
        ("unknown job id, waiting", "job_status",
         {"job_id": "nope", "wait_ms": 30000}, NOT_FOUND, 404),
        ("malformed wait", "job_status", {"job_id": "nope", "wait_ms": "abc"},
         BAD_REQUEST, 400),
        ("cancel of an unknown job", "job_cancel", {"job_id": "nope"},
         NOT_FOUND, 404),
        ("result of an unknown job", "job_result", {"job_id": "nope"},
         NOT_FOUND, 404),
    ])
    def test_refusals_carry_one_code_on_every_transport(
            self, live_server, name, op, meta, code, status):
        replies = {}
        for mode in MODES:
            with _client(live_server, mode) as client:
                replies[mode], _grids = client.transport.call(
                    op, dict(meta), None, 10)
        for mode, reply in replies.items():
            assert reply["ok"] is False, (name, mode, reply)
            assert reply["code"] == code, (name, mode, reply)
            assert reply == replies["tcp"], (name, mode)
        got, _headers, body = _raw_op(live_server, op, meta)
        assert (got, json.loads(body)["code"]) == (status, code), name

    def test_result_before_completion_is_cancelled_409(self, live_server,
                                                       monkeypatch):
        held, release = _hold_first_boundary(monkeypatch)
        with _client(live_server, "tcp") as client:
            job = client.submit_job(
                ExecutionRequest.for_benchmark("jacobi2d5pt", shape=(64, 64),
                                               steps=200_000),
                checkpoint_every=64)
            meta = {"job_id": job["job_id"]}
            try:
                assert held.wait(timeout=30)  # running, and stays so
                for mode in MODES:
                    with _client(live_server, mode) as other:
                        reply, _grids = other.transport.call(
                            "job_result", dict(meta), None, 10)
                    assert (reply["ok"], reply["code"]) == (False, CANCELLED)
                status, _headers, body = _raw_op(live_server, "job_result",
                                                 meta)
                assert (status, json.loads(body)["code"]) == (409, CANCELLED)
            finally:
                client.cancel_job(job["job_id"])
                release.set()

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_wait_job_learns_the_end_when_it_happens(self, live_server,
                                                     mode):
        # One status request waits for the end: a 20 s poll interval no
        # longer means sleeping 20 s.
        with _client(live_server, mode) as client:
            job = client.submit_job(_request(steps=200), checkpoint_every=50)
            started = time.monotonic()
            done = client.wait_job(job["job_id"], timeout_s=30, poll_s=20)
        assert done["status"] == "completed", done
        assert time.monotonic() - started < 10.0

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_wait_job_honours_its_timeout(self, live_server, mode):
        # Neither early (a poll interval past the deadline is no reason to
        # give up) nor much late: the last request waits out the rest.
        with _client(live_server, mode) as client:
            job = client.submit_job(
                ExecutionRequest.for_benchmark("jacobi2d5pt", shape=(64, 64),
                                               steps=10 ** 9),
                checkpoint_every=64)
            try:
                started = time.monotonic()
                with pytest.raises(TransportError, match="still"):
                    client.wait_job(job["job_id"], timeout_s=0.5, poll_s=10)
                assert 0.5 <= time.monotonic() - started < 3.0
            finally:
                client.cancel_job(job["job_id"])

    def test_bad_auth_is_unauthorized_on_every_transport(self, live_server):
        for mode in MODES:
            with _client(live_server, mode, auth_key="wrong") as client:
                for op, meta in (("execute", _request().wire_meta()),
                                 ("job_list", {})):
                    reply, _grids = client.transport.call(op, meta, None, 10)
                    assert (reply["ok"], reply["code"]) == (False,
                                                            UNAUTHORIZED)
                assert client.ping()  # liveness needs no key, as ever
        status, _headers, body = _raw_op(
            live_server, "job_list", {},
            headers={"Authorization": "Bearer wrong"})
        assert (status, json.loads(body)["code"]) == (401, UNAUTHORIZED)

    def test_oversized_request_is_too_large_on_both_transports(
            self, live_server):
        (line,) = _raw_socket(live_server["tcp_port"],
                              b"x" * (2 * 1024 * 1024), lines=1)
        assert json.loads(line)["code"] == REQUEST_TOO_LARGE
        status, _headers, body = _raw_http(
            live_server, "POST", "/v1/jobs", body=b"x" * 16,
            headers=_auth_headers({"Content-Length": str(64 * 1024 * 1024)}))
        assert (status, json.loads(body)["code"]) == (413, REQUEST_TOO_LARGE)


class TestRawSocketRegressions:
    """Four edge defects the per-transport copies had drifted into."""

    @pytest.mark.parametrize("line", [b"[]", b"5", b'"execute"', b"\xff\xfe"])
    def test_tcp_non_object_line_is_answered_in_band(self, live_server, line):
        refused, pong = _raw_socket(
            live_server["tcp_port"], line + b'\n{"op": "ping"}\n', lines=2)
        refused = json.loads(refused)
        assert (refused["ok"], refused["code"]) == (False, BAD_REQUEST)
        assert json.loads(pong)["pong"] is True  # the connection survived

    @pytest.mark.parametrize("message", [
        {"op": "execute", "benchmark": "nope"},
        {"benchmark": "stencil2d", "shape": [6, 6], "priority": "urgent"},
        {"op": "no-such-op"},
    ])
    def test_tcp_refusals_carry_a_code(self, live_server, message):
        message = dict(message, auth=AUTH_KEY)
        (line,) = _raw_socket(live_server["tcp_port"],
                              json.dumps(message).encode() + b"\n", lines=1)
        reply = json.loads(line)
        assert (reply["ok"], reply["code"]) == (False, BAD_REQUEST)

    @pytest.mark.parametrize("framing", [
        b"Content-Length: abc\r\n\r\n",
        b"Content-Length: -5\r\n\r\n",
        b"Transfer-Encoding: chunked\r\n\r\n-5\r\nhello\r\n0\r\n\r\n",
        b"Transfer-Encoding: chunked\r\n\r\nzz\r\n",
    ])
    def test_http_framing_errors_answer_400_and_close(self, live_server,
                                                      framing):
        raw = _raw_socket(
            live_server["http_port"],
            b"POST /v1/execute HTTP/1.1\r\nHost: x\r\n"
            b"Authorization: Bearer " + AUTH_KEY.encode() + b"\r\n" + framing)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), raw[:80]
        assert b"connection: close" in head.lower()
        assert json.loads(body)["code"] == BAD_REQUEST

    @pytest.mark.parametrize("method,path,auth,status", [
        ("PUT", "/v1/jobs", True, 405),
        ("GET", "/v1/jobs/nope", True, 404),
        ("GET", "/v1/jobs/nope/result/extra", True, 404),
        ("GET", "/v1/jobs", False, 401),
        ("POST", "/v1/execute", False, 401),
    ])
    def test_errors_echo_connection_close(self, live_server, method, path,
                                          auth, status):
        headers = _auth_headers() if auth else {}
        got, response_headers, _body = _raw_http(
            live_server, method, path,
            headers=dict(headers, Connection="close"))
        assert got == status
        assert response_headers["Connection"] == "close"
        got, response_headers, _body = _raw_http(
            live_server, method, path, headers=headers)
        assert (got, response_headers["Connection"]) == (status, "keep-alive")
