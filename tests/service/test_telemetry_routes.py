"""``/metrics``, ``/healthz`` and ``/trace``: ops on the one HTTP listener.

Stub services stand in for :class:`~repro.service.StencilService` where a
test needs a shard fleet it can declare dead or a trace ring it controls;
the routes read nothing else of a service.
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

import pytest

from repro.backend.base import NumpyBackend
from repro.client import ClientConfig, StencilClient
from repro.service import serve_http, serve_tcp
from repro.service.jobs import JobManager
from repro.service.requests import BAD_REQUEST, INTERNAL
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import TraceRing

AUTH_KEY = "routes-test-key"


def _shard(index: int, alive: bool = True) -> SimpleNamespace:
    return SimpleNamespace(
        index=index, process=SimpleNamespace(is_alive=lambda: alive)
    )


def _service(handles=None, rows=(), requests_served=0, tracer=None,
             metrics=None):
    """What the three routes read of a service, and nothing more."""
    return SimpleNamespace(
        executor=None if handles is None else SimpleNamespace(
            handles=handles, stats=lambda: list(rows)),
        requests_served=requests_served,
        loop_lag_s=0.0,
        metrics=metrics if metrics is not None else MetricsRegistry(),
        tracer=tracer if tracer is not None else TraceRing(capacity=4),
        count_reject=lambda reason: None,
    )


async def _fetch(port: int, target: str, method: str = "GET",
                 headers: str = "", body: str = ""):
    """One request on a fresh connection: (status, headers, body text)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    if body:
        headers += ("Content-Type: application/json\r\n"
                    f"Content-Length: {len(body.encode())}\r\n")
    writer.write(f"{method} {target} HTTP/1.1\r\nHost: localhost\r\n"
                 f"{headers}Connection: close\r\n\r\n{body}".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    fields = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), fields, body.decode("utf-8")


async def _op(port: int, message) -> dict:
    """One JSON line (a dict, or its text) over TCP, one reply line back."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    line = message if isinstance(message, str) else json.dumps(message)
    writer.write(line.encode() + b"\n")
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    return reply


def _over(service, scenario, auth_key=None):
    """Run ``scenario(http_port, tcp_port)`` against both endpoints."""
    async def run():
        web = await serve_http(service, "127.0.0.1", 0, auth_key=auth_key)
        tcp = await serve_tcp(service, "127.0.0.1", 0, auth_key=auth_key)
        try:
            return await scenario(web.sockets[0].getsockname()[1],
                                  tcp.sockets[0].getsockname()[1])
        finally:
            for server in (web, tcp):
                server.close()
                await server.wait_closed()

    return asyncio.run(run())


class TestMetricsRoute:
    def test_metrics_renders_registry(self):
        metrics = MetricsRegistry()
        metrics.counter("repro_routes_probe_total").inc(5)

        async def scenario(http, tcp):
            return (await _fetch(http, "/metrics"),
                    await _op(tcp, {"op": "metrics"}))

        (status, fields, body), reply = _over(_service(metrics=metrics),
                                              scenario)
        assert status == 200
        assert fields["Content-Type"].startswith("text/plain; version=0.0.4")
        assert "repro_routes_probe_total 5" in body
        assert reply["ok"] and "repro_routes_probe_total 5" in reply["metrics"]

    def test_metrics_merges_shard_snapshots(self):
        metrics = MetricsRegistry()
        metrics.counter("repro_requests_total").inc(3)
        shard_registry = MetricsRegistry()
        shard_registry.counter("repro_requests_total").inc(4)
        shard_registry.counter("repro_routes_shard_only_total").inc(2)
        rows = [{"shard": 0, "telemetry": shard_registry.snapshot()},
                {"shard": 1}]  # a shard with no telemetry must not crash
        service = _service([_shard(0), _shard(1)], rows, metrics=metrics)

        async def scenario(http, tcp):
            return await _fetch(http, "/metrics")

        status, _, body = _over(service, scenario)
        assert status == 200
        assert "repro_requests_total 7" in body  # 3 local + 4 shard
        assert "repro_routes_shard_only_total 2" in body


class TestHealthzRoute:
    def test_healthy_service(self):
        service = _service([_shard(0), _shard(1)], requests_served=42)

        async def scenario(http, tcp):
            return await _fetch(http, "/healthz")

        status, _, body = _over(service, scenario)
        payload = json.loads(body)
        assert status == 200
        assert (payload["ok"], payload["status"]) == (True, "ok")
        assert payload["shards_alive"] == 2
        assert payload["requests_served"] == 42
        assert payload["event_loop_lag_ms"] >= 0.0

    def test_dead_shard_flips_503(self):
        service = _service([_shard(0), _shard(1, alive=False)])

        async def scenario(http, tcp):
            return await _fetch(http, "/healthz"), await _op(tcp, {"op": "ping"})

        (status, _, body), reply = _over(service, scenario)
        payload = json.loads(body)
        assert status == 503
        assert payload["status"] == "unhealthy"
        assert payload["shards_alive"] == 1
        assert payload["shards"] == [{"shard": 0, "alive": True},
                                     {"shard": 1, "alive": False}]
        assert reply == payload  # one op, two codecs

    def test_ping_stays_ok_with_a_dead_shard(self):
        service = _service([_shard(0, alive=False)])

        async def scenario(http, tcp):
            loop = asyncio.get_running_loop()
            answers = []
            for transport, port in (("http", http), ("tcp", tcp)):
                config = ClientConfig(transport=transport, port=port)

                def ping(config=config):
                    with StencilClient(config) as client:
                        return client.ping()

                answers.append(await loop.run_in_executor(None, ping))
            return answers

        assert _over(service, scenario) == [True, True]

    def test_unsharded_service_is_healthy(self):
        async def scenario(http, tcp):
            return await _fetch(http, "/healthz")

        status, _, body = _over(_service(requests_served=1), scenario)
        assert status == 200
        assert json.loads(body)["shards"] == []


def _traced():
    tracer = TraceRing(capacity=16, slow_ms=50.0)
    for total in (1.0, 120.0, 2.0):
        tracer.record({"benchmark": "stencil2d", "batch_size": 1,
                       "total_ms": total, "stages": []})
    return _service(tracer=tracer)


#: Trace fields as a query string, and the same fields as a TCP message.
TRACE_QUERIES = [
    ("", {}),
    ("slow=1", {"slow": True}),
    ("slow=0", {"slow": "0"}),
    ("slow=false", {"slow": "false"}),
    ("slow=", {"slow": ""}),
    ("limit=1", {"limit": 1}),
]


class TestTraceRoute:
    @pytest.mark.parametrize("transport", ["http", "tcp"])
    def test_trace_payload_and_filters(self, transport):
        async def scenario(http, tcp):
            payloads = []
            for query, fields in TRACE_QUERIES:
                if transport == "http":
                    status, _, body = await _fetch(http, f"/trace?{query}")
                    assert status == 200
                    payloads.append(json.loads(body))
                else:
                    payloads.append(await _op(tcp, {"op": "trace", **fields}))
            return payloads

        every, slow, *not_slow, one = _over(_traced(), scenario)
        assert len(every["traces"]) == 3
        assert every["ring"]["recorded"] == 3
        assert [t["total_ms"] for t in slow["traces"]] == [120.0]
        for payload in not_slow:
            assert len(payload["traces"]) == 3
        assert len(one["traces"]) == 1
        assert one["traces"][0]["total_ms"] == 2.0  # most recent

    @pytest.mark.parametrize("transport, limit", [
        ("http", "abc"), ("http", "-1"), ("http", ""),
        ("tcp", "abc"), ("tcp", -1), ("tcp", ""), ("tcp", 1.5), ("tcp", True),
    ])
    def test_a_bad_query_is_a_400(self, transport, limit):
        async def scenario(http, tcp):
            if transport == "tcp":
                return None, await _op(tcp, {"op": "trace", "limit": limit})
            status, _, body = await _fetch(http, f"/trace?limit={limit}")
            return status, json.loads(body)

        status, payload = _over(_traced(), scenario)
        assert status == (400 if transport == "http" else None)
        assert (payload["ok"], payload["code"]) == (False, BAD_REQUEST)


class TestOneListener:
    def test_unknown_path_404_and_bad_method_405(self):
        async def scenario(http, tcp):
            return ((await _fetch(http, "/nope"))[0],
                    (await _fetch(http, "/metrics", method="POST"))[0])

        assert _over(_service(), scenario) == (404, 405)

    def test_probe_routes_need_no_key(self):
        """``/trace`` is not a probe route: its ring holds other callers'
        digests and errors, so it needs the key, as over TCP."""
        async def scenario(http, tcp):
            bare = {path: (await _fetch(http, path))[0]
                    for path in ("/metrics", "/healthz", "/trace",
                                 "/v1/jobs")}
            keyed = (await _fetch(
                http, "/trace",
                headers=f"Authorization: Bearer {AUTH_KEY}\r\n"))[0]
            return bare, keyed

        assert _over(_service(), scenario, auth_key=AUTH_KEY) == ({
            "/metrics": 200, "/healthz": 200, "/trace": 401,
            "/v1/jobs": 401}, 200)

    @pytest.mark.parametrize("path", ["/healthz", "/metrics"])
    @pytest.mark.parametrize("alive", [True, False])
    def test_head_answers_the_get_headers_without_a_body(self, path, alive):
        """HEAD then GET on one keep-alive connection."""
        async def scenario(http, tcp):
            reader, writer = await asyncio.open_connection("127.0.0.1", http)
            answers = []
            for method in ("HEAD", "GET"):
                writer.write(f"{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n"
                             .encode())
                await writer.drain()
                head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
                lines = head.strip().split("\r\n")
                fields = dict(line.split(": ", 1) for line in lines[1:])
                length = int(fields["Content-Length"])
                body = b"" if method == "HEAD" else await reader.readexactly(
                    length)
                answers.append((int(lines[0].split()[1]), fields, length,
                                body))
            writer.close()
            return answers

        service = _service([_shard(0, alive=alive)])
        (head_status, head_fields, head_length, _), (
            status, fields, _, body) = _over(service, scenario)
        assert head_status == status == (
            503 if path == "/healthz" and not alive else 200)
        assert head_fields["Content-Type"] == fields["Content-Type"]
        assert head_fields["Connection"] == "keep-alive"
        assert head_length > 0
        if path == "/healthz":  # a body that does not move between the two
            assert head_length == len(body)


class TestServerFaults:
    @pytest.mark.parametrize("transport", ["http", "tcp"])
    def test_a_failing_route_is_a_500_logged_once(self, transport, caplog):
        class Broken:
            @property
            def tracer(self):
                raise RuntimeError("ring unavailable")

        async def scenario(http, tcp):
            if transport == "tcp":
                return None, await _op(tcp, {"op": "trace"})
            status, _, body = await _fetch(http, "/trace")
            return status, json.loads(body)

        with caplog.at_level("ERROR", logger="repro.service.ops"):
            status, payload = _over(Broken(), scenario)
        assert status == (500 if transport == "http" else None)
        assert (payload["ok"], payload["code"]) == (False, INTERNAL)
        assert len([record for record in caplog.records
                    if "ring unavailable" in str(record.exc_info)]) == 1

    @pytest.mark.parametrize("transport", ["http", "tcp"])
    def test_a_failing_ping_is_a_500(self, transport, caplog):
        """A ping that raises carries no ``status``; ``/healthz`` must
        still answer, as the refusal it is."""
        class Broken:
            @property
            def executor(self):
                raise RuntimeError("fleet unreadable")

        async def scenario(http, tcp):
            if transport == "tcp":
                return None, await _op(tcp, {"op": "ping"})
            status, _, body = await _fetch(http, "/healthz")
            return status, json.loads(body)

        with caplog.at_level("ERROR", logger="repro.service.ops"):
            status, payload = _over(Broken(), scenario)
        assert status == (500 if transport == "http" else None)
        assert (payload["ok"], payload["code"]) == (False, INTERNAL)
        assert len([record for record in caplog.records
                    if "fleet unreadable" in str(record.exc_info)]) == 1

    @pytest.mark.parametrize("transport", ["http", "tcp"])
    @pytest.mark.parametrize("fields", [
        '"benchmark": "stencil2d", "steps": 1e400',
        '"benchmark": "stencil2d", "seed": 1e400',
        '"inputs": [[1.0]], "program": '
        '{"node": "lambda", "params": [], "body": 5}',
    ])
    def test_a_malformed_field_is_a_400(self, transport, fields, caplog):
        """What building the request raises is the caller's fault, however
        the field breaks it (``int(inf)``, a node that is not a mapping)."""
        async def scenario(http, tcp):
            if transport == "tcp":
                return None, await _op(tcp, f'{{"op": "execute", {fields}}}')
            status, _, body = await _fetch(http, "/v1/execute", "POST",
                                           body=f"{{{fields}}}")
            return status, json.loads(body)

        async def submit(request):
            raise AssertionError("a malformed request reached the batcher")

        service = _service()
        service.submit = submit
        with caplog.at_level("ERROR", logger="repro.service.ops"):
            status, payload = _over(service, scenario)
        assert status == (400 if transport == "http" else None)
        assert (payload["ok"], payload["code"]) == (False, BAD_REQUEST)
        assert not [record for record in caplog.records
                    if record.name == "repro.service.ops"]

    @pytest.mark.parametrize("transport", ["http", "tcp"])
    @pytest.mark.parametrize("every", ["1e400", '"abc"', "-1", "[1]"])
    def test_a_malformed_checkpoint_every_is_a_400(self, transport, every,
                                                    caplog):
        """Job fields go through the same caller-field guard as the
        request's: ``int(inf)`` is the caller's fault, not a 500."""
        fields = ('"benchmark": "stencil2d", "shape": [8, 8], "steps": 4, '
                  f'"checkpoint_every": {every}')

        async def scenario(http, tcp):
            if transport == "tcp":
                return None, await _op(tcp,
                                       f'{{"op": "job_submit", {fields}}}')
            status, _, body = await _fetch(http, "/v1/jobs", "POST",
                                           body=f"{{{fields}}}")
            return status, json.loads(body)

        service = _service()
        service.jobs = JobManager(NumpyBackend())
        with caplog.at_level("DEBUG", logger="repro.service.ops"):
            status, payload = _over(service, scenario)
        assert status == (400 if transport == "http" else None)
        assert (payload["ok"], payload["code"]) == (False, BAD_REQUEST)
        if every == "-1":  # the op's own check, before a job exists
            assert "checkpoint_every must be an integer >= 1" in payload["error"]
        assert service.jobs.list_jobs() == []
        assert not [record for record in caplog.records
                    if record.name == "repro.service.ops"]
