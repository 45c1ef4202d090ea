"""Each fact once at the service edge.

``stats()`` and ``/metrics`` are two views of one counter store, the HTTP
listener reads requests through one bounded reader, both transports drain
through one connection gate, and ``repro serve`` maps flags to keywords
from the callee's signature.  The literals below were recorded from the
commit before those four became single (``5e376c8``): the surface must
not have moved.
"""

import argparse
import asyncio
import http.client
import inspect
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.request

import numpy as np
import pytest

from repro import cli
from repro.apps.suite import get_benchmark
from repro.client import ClientConfig, StencilClient
from repro.service import (ExecutionRequest, ServiceClient, StencilService,
                           loadgen, serve_http)
from repro.service.requests import DEADLINE_EXCEEDED, REQUEST_TOO_LARGE
from repro.service.server import _PriorityQueues, run_server
from repro.service.wire import (CONTENT_TYPE_GRIDS, decode_grid_payload,
                                encode_grid_payload)
from repro.telemetry import (get_registry, merge_snapshots,
                             set_metrics_enabled)

AUTH_KEY = "edge-test-key"


def key_tree(value, prefix=""):
    """Every dict key under ``value`` as a dotted path (lists are walked)."""
    paths = set()
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            paths.add(path)
            paths |= key_tree(child, path)
    elif isinstance(value, list):
        for child in value:
            paths |= key_tree(child, prefix)
    return paths


def samples(text):
    """``{sample name with labels: value}`` of one Prometheus exposition."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def scrape(port):
    return urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()


def request(benchmark="stencil2d", shape=(8, 8), **fields):
    return ExecutionRequest.for_benchmark(benchmark, shape=shape,
                                          return_result=False, **fields)


#: stats()["service"] of a started service that has served nothing.
SERVICE_KEYS = {
    "requests_served", "batches_formed", "batched_requests", "largest_batch",
    "crosschecks_passed", "request_errors",
    "plans_prewarmed", "shard_fallbacks", "shard_redispatches",
    "shard_restarts", "supervisor",
    "breakers", "breakers.quarantined_requests", "breakers.threshold",
    "breakers.cooldown_s", "breakers.opens", "breakers.closes",
    "breakers.digests",
    "admission", "admission.sheds", "admission.sheds.high",
    "admission.sheds.normal", "admission.sheds.batch", "admission.rejects",
    "admission.queue_depth", "admission.queue_depth.high",
    "admission.queue_depth.normal", "admission.queue_depth.batch",
    "admission.inflight_digests", "admission.max_queue_depth",
    "registry", "registry.lookups", "registry.cold_misses",
    "registry.plans_cached",
    "jobs", "jobs.jobs", "jobs.queue_depth", "jobs.checkpoints_written",
    "jobs.checkpoint_s", "jobs.checkpoint_wait_s", "jobs.jobs_resumed",
    "jobs.corrupt_checkpoints", "jobs.results_evicted",
    "jobs.resident_results", "jobs.checkpoint_every", "jobs.job_ttl_s",
    "jobs.max_resident", "jobs.job_dir",
    "plans", "plans.hits", "plans.misses", "plans.evictions", "plans.entries",
    "plans.max_entries",
    "shards",
}

#: What ``shards=1`` adds to it.
SHARDED_KEYS = {
    "supervisor.restarts", "supervisor.respawn_failures",
    "supervisor.respawning", "supervisor.gave_up", "supervisor.max_respawns",
    "shards.count", "shards.alive", "shards.requests", "shards.groups",
    "shards.errors", "shards.compilations", "shards.respawns",
    "shards.per_shard", "shards.per_shard.shard", "shards.per_shard.pid",
    "shards.per_shard.alive", "shards.per_shard.respawns",
    "shards.per_shard.requests", "shards.per_shard.groups",
    "shards.per_shard.errors", "shards.per_shard.single",
    "shards.per_shard.batched", "shards.per_shard.compilations",
    "shards.per_shard.plans", "shards.per_shard.plans.hits",
    "shards.per_shard.plans.misses", "shards.per_shard.plans.evictions",
    "shards.per_shard.plans.entries", "shards.per_shard.plans.max_entries",
}


class _Served:
    """An authenticated in-thread ``run_server`` with both listeners."""

    def __init__(self, **kwargs):
        self.tcp, self.http = (loadgen._free_port() for _ in range(2))
        ready = threading.Event()
        self.stats = {}
        self.thread = threading.Thread(
            target=lambda: self.stats.update(run_server(
                port=self.tcp, http_port=self.http,
                auth_key=AUTH_KEY, ready_event=ready, store=None,
                drain_timeout=5.0, **kwargs)),
            daemon=True)
        self.thread.start()
        assert ready.wait(20)

    def lines(self, messages, replies=None):
        """Pipeline JSON lines over one TCP connection; replies by id."""
        with socket.create_connection(("127.0.0.1", self.tcp),
                                      timeout=30) as conn:
            conn.sendall(b"".join(
                json.dumps(dict(message, id=index, auth=AUTH_KEY)).encode()
                + b"\n" for index, message in enumerate(messages)))
            stream = conn.makefile("r", encoding="utf-8")
            got = [json.loads(stream.readline())
                   for _ in range(len(messages) if replies is None
                                  else replies)]
        return {reply["id"]: reply for reply in got}

    def http_request(self, method, path, body=b"", headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.http, timeout=30)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()


@pytest.fixture(scope="module")
def trafficked(tmp_path_factory):
    """One shed, two rejects (auth, size), one job and one wave through a
    live ``run_server``; the scrape and the stats after."""
    server = _Served(batch_window=0.05, max_request_bytes=1 << 16,
                     checkpoint_every=2,
                     job_dir=str(tmp_path_factory.mktemp("jobs")),
                     max_requests=4)          # the shed + the wave of three
    wire = request().to_wire()
    shed = server.lines([dict(wire, deadline_ms=0)])[0]
    assert shed["code"] == DEADLINE_EXCEEDED
    status, _ = server.http_request("POST", "/v1/execute", b"{}")
    assert status == 401
    status, refused = server.http_request(
        "POST", "/v1/execute", b"x" * (1 << 17),
        {"Authorization": f"Bearer {AUTH_KEY}"})
    assert (status, refused["code"]) == (413, REQUEST_TOO_LARGE)
    job = server.lines([dict(request(steps=4).to_wire(), op="job_submit")])
    job_id = job[0]["job"]["job_id"]
    deadline = time.monotonic() + 30
    while server.lines([{"op": "job_status", "job_id": job_id}])[
            0]["job"]["status"] != "completed":
        assert time.monotonic() < deadline
        time.sleep(0.02)
    # An open connection holds the drain that follows the fourth execute,
    # so the scrape and the stats below read the end state.
    with socket.create_connection(("127.0.0.1", server.tcp),
                                  timeout=30) as hold:
        # Three pipelined requests for one digest.
        wave = server.lines([wire, wire, wire])
        assert all(reply["ok"] for reply in wave.values())
        text = scrape(server.http)
        hold.sendall(json.dumps({"op": "stats", "auth": AUTH_KEY}).encode()
                     + b"\n")
        stats = json.loads(hold.makefile("r", encoding="utf-8").readline())
    server.thread.join(timeout=20)
    assert not server.thread.is_alive()
    return text, stats["stats"]["service"]


#: ``# TYPE`` lines of /metrics after the traffic above, from a process
#: that ran nothing else (other tests may have registered more instruments
#: in the process registry by the time this module runs).
METRIC_TYPES = {
    "repro_batch_size histogram",
    "repro_batched_requests_total counter",
    "repro_batches_total counter",
    "repro_breaker_opens_total counter",
    "repro_breaker_quarantined_requests_total counter",
    "repro_compilation_cache_entries gauge",
    "repro_compilation_cache_evictions gauge",
    "repro_compilation_cache_hits gauge",
    "repro_compilation_cache_misses gauge",
    "repro_fused_region_replay_seconds histogram",
    "repro_http_requests_total counter",
    "repro_job_cancellations_total counter",
    "repro_job_checkpoint_seconds histogram",
    "repro_job_checkpoint_wait_seconds histogram",
    "repro_job_checkpoints_total counter",
    "repro_job_completions_total counter",
    "repro_job_corrupt_checkpoints_total counter",
    "repro_job_failures_total counter",
    "repro_job_results_evicted_total counter",
    "repro_job_resumes_total counter",
    "repro_job_submits_total counter",
    "repro_jobs_resident_results gauge",
    "repro_native_cache_total counter",
    "repro_native_compile_seconds histogram",
    "repro_plan_cache_entries gauge",
    "repro_plan_cache_evictions gauge",
    "repro_plan_cache_hits gauge",
    "repro_plan_cache_misses gauge",
    "repro_plan_capture_seconds histogram",
    "repro_plan_captures_total counter",
    "repro_plan_fused_regions_total counter",
    "repro_plan_fusion_fallbacks_total counter",
    "repro_plan_replay_bytes_per_step gauge",
    "repro_plan_replay_seconds histogram",
    "repro_plan_replays_total counter",
    "repro_plan_resident_pads gauge",
    "repro_pool_allocations gauge",
    "repro_pool_high_water_bytes gauge",
    "repro_pool_live_bytes gauge",
    "repro_pool_reuses gauge",
    "repro_queue_depth gauge",
    "repro_queue_depth_batch gauge",
    "repro_queue_depth_high gauge",
    "repro_queue_depth_normal gauge",
    "repro_rejects_total counter",
    "repro_replay_chunk_imbalance histogram",
    "repro_replay_chunk_seconds histogram",
    "repro_request_errors_total counter",
    "repro_request_latency_seconds histogram",
    "repro_requests_total counter",
    "repro_service_compilation_cache_entries gauge",
    "repro_service_compilation_cache_evictions gauge",
    "repro_service_compilation_cache_hits gauge",
    "repro_service_compilation_cache_misses gauge",
    "repro_shard_fallbacks_total counter",
    "repro_shard_redispatches_total counter",
    "repro_shard_respawn_failures_total counter",
    "repro_shard_restarts_total counter",
    "repro_shard_roundtrip_seconds histogram",
    "repro_sheds_total counter",
    "repro_wire_checksum_failures_total counter",
}


class TestTheViewIsTheStore:
    def test_service_section_keys_did_not_move(self):
        with ServiceClient(StencilService()) as client:
            assert key_tree(client.stats()["service"]) == SERVICE_KEYS

    def test_sharded_service_section_keys_did_not_move(self):
        with ServiceClient(StencilService(shards=1)) as client:
            assert key_tree(client.stats()["service"]) == (
                SERVICE_KEYS | SHARDED_KEYS)

    def test_no_metric_name_or_kind_moved(self, trafficked):
        text, _stats = trafficked
        served = {line[len("# TYPE "):] for line in text.splitlines()
                  if line.startswith("# TYPE ")}
        assert METRIC_TYPES <= served
        # Nothing new either, and no name in both registries: the merge
        # behind /metrics would count it twice.
        mine = set(StencilService().metrics.names())
        assert mine <= {line.split()[0] for line in METRIC_TYPES}
        assert not mine & set(get_registry().names())

    def test_every_stats_counter_is_its_metrics_sample(self, trafficked):
        text, stats = trafficked
        metric = samples(text)
        jobs, admission = stats["jobs"], stats["admission"]
        assert stats["requests_served"] == 3
        assert admission["rejects"] == {"unauthorized": 1, "too_large": 1}
        assert admission["sheds"] == {"high": 0, "normal": 1, "batch": 0}
        # Step 2 only: step 0 is inputs.rpg and step 4 is result.rpg.
        assert jobs["checkpoints_written"] == 1 and jobs["jobs_resumed"] == 0
        for value, name in [
            (stats["requests_served"], "repro_requests_total"),
            (stats["request_errors"], "repro_request_errors_total"),
            (stats["batches_formed"], "repro_batches_total"),
            (stats["batched_requests"], "repro_batched_requests_total"),
            (stats["shard_fallbacks"], "repro_shard_fallbacks_total"),
            (stats["shard_redispatches"], "repro_shard_redispatches_total"),
            (stats["breakers"]["opens"], "repro_breaker_opens_total"),
            (stats["breakers"]["quarantined_requests"],
             "repro_breaker_quarantined_requests_total"),
            (jobs["checkpoints_written"], "repro_job_checkpoints_total"),
            (jobs["checkpoints_written"],
             "repro_job_checkpoint_seconds_count"),
            (jobs["jobs_resumed"], "repro_job_resumes_total"),
            (jobs["corrupt_checkpoints"],
             "repro_job_corrupt_checkpoints_total"),
            (jobs["results_evicted"], "repro_job_results_evicted_total"),
            (jobs["resident_results"], "repro_jobs_resident_results"),
        ]:
            assert metric[name] == value, name
        for label, family in (("reason", "rejects"), ("priority", "sheds")):
            for key, count in admission[family].items():
                sample = f'repro_{family}_total{{{label}="{key}"}}'
                assert metric.get(sample, 0) == count, sample
        assert metric["repro_job_checkpoint_seconds_sum"] == pytest.approx(
            jobs["checkpoint_s"], abs=1e-5)

    def test_two_services_in_one_process_read_their_own_traffic(self):
        def view(service):
            snapshot = merge_snapshots(get_registry().snapshot(),
                                       service.metrics.snapshot())
            return (snapshot["repro_queue_depth"]["value"],
                    snapshot["repro_requests_total"]["value"])

        async def run():
            older = StencilService()
            older._queues = _PriorityQueues()   # admits, never batches
            for seed in range(3):
                older._queues.put(older._admit(request(seed=seed)))
            async with StencilService(batch_window=0.01) as newer:
                await newer.submit(request())
                return view(older), view(newer)

        assert asyncio.run(run()) == ((3.0, 0), (0.0, 1))

    def test_service_counters_ignore_the_process_switch(self):
        process = get_registry()
        with ServiceClient(StencilService(batch_window=0.02)) as client:
            client.execute_many([request()] * 4)   # warm: plans captured
            before = client.stats()["service"]
            gated = process.snapshot()
            previous = set_metrics_enabled(False)
            try:
                client.execute_many([request()] * 4)
                client.execute(request(deadline_ms=0), raise_on_error=False)
            finally:
                set_metrics_enabled(previous)
            after = client.stats()["service"]
            still = process.snapshot()
        assert after["requests_served"] == before["requests_served"] + 4
        assert after["batches_formed"] > before["batches_formed"]
        assert after["admission"]["sheds"]["normal"] == 1
        for name in ("repro_request_latency_seconds",
                     "repro_plan_replay_seconds"):
            assert still[name]["count"] == gated[name]["count"], name
        assert (still["repro_plan_replays_total"]["value"]
                == gated["repro_plan_replays_total"]["value"])


# ---------------------------------------------------------------------------
# One bounded HTTP request reader
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def listener():
    """A service behind the HTTP endpoint, on its own loop."""
    started = threading.Event()
    holder = {}

    def serve():
        async def main():
            async with StencilService(batch_window=0.01) as service:
                web = await serve_http(service, "127.0.0.1", 0,
                                       auth_key=AUTH_KEY,
                                       max_request_bytes=1 << 20)
                holder.update(service=service,
                              port=web.sockets[0].getsockname()[1])
                started.set()
                await holder["stop"]
                web.close()
                await web.wait_closed()

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


def _flood(port, header_block):
    """Send ``GET /healthz`` + ``header_block`` and read to EOF.

    The server may refuse and close while we are still sending, so the
    reply is collected on a second thread and send errors are expected.
    """
    received = bytearray()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        def collect():
            try:
                while chunk := conn.recv(65536):
                    received.extend(chunk)
            except OSError:
                pass

        reader = threading.Thread(target=collect, daemon=True)
        reader.start()
        try:
            conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            for start in range(0, len(header_block), 1 << 16):
                conn.sendall(header_block[start:start + (1 << 16)])
            conn.sendall(b"\r\n")
        except OSError:
            pass
        reader.join(timeout=30)
        closed = not reader.is_alive()
    head, _, body = bytes(received).partition(b"\r\n\r\n")
    return head, body, closed


def _too_large(service):
    return service.stats()["service"]["admission"]["rejects"].get(
        "too_large", 0)


class TestHeaderBlockIsBounded:
    def test_header_flood_is_refused_before_it_is_held(self, listener):
        flood = b"".join(b"X-Flood-%05d: %s\r\n" % (index, b"v" * 1000)
                         for index in range(40_000))
        refused = _too_large(listener["service"])
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            head, body, closed = _flood(listener["port"], flood)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del flood
        assert head.startswith(b"HTTP/1.1 413 "), head[:80]
        assert json.loads(body)["code"] == REQUEST_TOO_LARGE
        assert closed
        # The 40 MB this test itself builds was allocated before `before`.
        assert peak - before < 2 << 20
        assert _too_large(listener["service"]) == refused + 1

    def test_one_oversized_header_line_is_refused(self, listener):
        refused = _too_large(listener["service"])
        head, body, closed = _flood(
            listener["port"], b"X-Big: " + b"v" * (2 << 20) + b"\r\n")
        assert head.startswith(b"HTTP/1.1 413 "), head[:80]
        assert json.loads(body)["code"] == REQUEST_TOO_LARGE
        assert closed
        assert _too_large(listener["service"]) == refused + 1

    def test_ordinary_headers_pass(self, listener):
        refused = _too_large(listener["service"])
        head, _body, _closed = _flood(
            listener["port"], b"Connection: close\r\n" + b"".join(
                b"X-Ordinary-%d: value\r\n" % index for index in range(20)))
        assert head.startswith(b"HTTP/1.1 200 "), head[:80]
        assert _too_large(listener["service"]) == refused


# ---------------------------------------------------------------------------
# One connection gate: an in-flight request survives SIGTERM on either transport
# ---------------------------------------------------------------------------

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture(scope="module")
def long_iterate():
    """A hotspot2d 512² iterate sized to run ≈ 2 s here, and its result."""
    bench = get_benchmark("hotspot2d")
    inputs = bench.make_inputs((512, 512), 0)
    def seconds(steps):
        started = time.perf_counter()
        bench.iterate(inputs, steps)
        return time.perf_counter() - started

    seconds(8)                               # capture the plan
    # Two lengths, so the per-call set-up cancels out of the per-step time.
    per_step = (seconds(1088) - seconds(64)) / 1024
    steps = max(64, int(2.0 / per_step))
    return inputs, steps, bench.iterate(inputs, steps)


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_an_inflight_iterate_survives_sigterm(transport, long_iterate,
                                              tmp_path):
    inputs, steps, expected = long_iterate
    ports = {"tcp": loadgen._free_port(), "http": loadgen._free_port()}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [path for path in [env.get("PYTHONPATH")] if path])
    config = ClientConfig(transport=transport, port=ports[transport],
                          timeout_s=60.0)
    reply = {}

    def call():
        if transport == "tcp":
            with StencilClient(config) as client:
                response = client.iterate(ExecutionRequest(
                    inputs=inputs, benchmark="hotspot2d"), steps)
            reply.update(ok=response.ok, error=response.error,
                         result=response.result)
            return
        # Raw, to see the reply's Connection header.
        prefix, buffers = encode_grid_payload(
            {"benchmark": "hotspot2d", "steps": steps}, inputs)
        conn = http.client.HTTPConnection("127.0.0.1", ports["http"],
                                          timeout=60)
        try:
            conn.request("POST", "/v1/iterate",
                         body=prefix + b"".join(buffers),
                         headers={"Content-Type": CONTENT_TYPE_GRIDS,
                                  "Accept": CONTENT_TYPE_GRIDS})
            response = conn.getresponse()
            answered, grids = decode_grid_payload(response.read())
        finally:
            conn.close()
        reply.update(ok=answered.get("ok"), error=answered.get("error"),
                     result=grids[0] if grids else None,
                     connection=response.getheader("Connection"))

    with open(tmp_path / "serve.log", "wb") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-store",
             "--port", str(ports["tcp"]), "--http-port", str(ports["http"]),
             "--drain-timeout", "20"], stdout=log, stderr=log, env=env)
        try:
            warm = loadgen._wait_ready(lambda: StencilClient(config))
            warm.iterate(ExecutionRequest(inputs=inputs,
                                          benchmark="hotspot2d"), 2)
            warm.close()
            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            time.sleep(0.6)
            assert caller.is_alive()        # the signal lands mid-run
            server.send_signal(signal.SIGTERM)
            caller.join(timeout=60)
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
    assert reply.get("ok"), reply.get("error")
    assert np.array_equal(np.asarray(reply["result"]), expected)
    if transport == "http":
        assert reply["connection"] == "close"


def test_sigterm_stops_a_durable_job_at_its_next_boundary(tmp_path):
    # A hotspot2d 64² job sized to run ≈ 2 s here in 20 segments: SIGTERM
    # after its first checkpoint stops it within one segment plus the
    # drain, and a restart on the same --job-dir finishes it from there.
    bench = get_benchmark("hotspot2d")
    inputs = bench.make_inputs((64, 64), 0)

    def seconds(steps):
        started = time.perf_counter()
        bench.iterate(inputs, steps)
        return time.perf_counter() - started

    seconds(8)                               # capture the plan
    per_step = (seconds(16448) - seconds(64)) / 16384
    steps = max(20 * 64, int(2.0 / per_step))
    expected = np.asarray(bench.iterate(inputs, steps), dtype=np.float64)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [path for path in [env.get("PYTHONPATH")] if path])

    def serve(name):
        ports = {"tcp": loadgen._free_port(), "http": loadgen._free_port()}
        with open(tmp_path / f"{name}.log", "wb") as log:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--no-store",
                 "--port", str(ports["tcp"]),
                 "--http-port", str(ports["http"]),
                 "--job-dir", str(tmp_path / "jobs")],
                stdout=log, stderr=log, env=env)
        config = ClientConfig(transport="http", port=ports["http"],
                              timeout_s=30.0)
        return server, lambda: loadgen._wait_ready(
            lambda: StencilClient(config))

    server, connect = serve("first")
    try:
        with connect() as client:
            job = client.submit_job(
                ExecutionRequest(inputs=inputs, benchmark="hotspot2d",
                                 steps=steps),
                checkpoint_every=steps // 20)
            deadline = time.monotonic() + 30
            while client.job_status(job["job_id"])["completed_steps"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        signalled = time.monotonic()
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
        assert time.monotonic() - signalled < 3.0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    manifest = json.loads(
        (tmp_path / "jobs" / job["job_id"] / "job.json").read_text())
    assert manifest["status"] == "queued"

    server, connect = serve("second")
    try:
        with connect() as client:
            final = client.wait_job(job["job_id"], timeout_s=60)
            _descriptor, result = client.job_result(job["job_id"])
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    assert (final["status"], final["resumes"]) == ("completed", 1), final
    assert result.tobytes() == expected.tobytes()


def test_sigterm_answers_a_pending_job_wait(tmp_path):
    # A 30 s job_status wait must not hold the drain: SIGTERM answers it at
    # once with the job still running, the listener still takes the
    # cancel, and the server exits 0.
    ports = {"tcp": loadgen._free_port(), "http": loadgen._free_port()}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [path for path in [env.get("PYTHONPATH")] if path])
    config = ClientConfig(transport="http", port=ports["http"],
                          timeout_s=30.0)
    reply = {}

    def wait(job_id):
        conn = http.client.HTTPConnection("127.0.0.1", ports["http"],
                                          timeout=60)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}?wait_ms=30000")
            response = conn.getresponse()
            reply.update(status=response.status,
                         body=json.loads(response.read()))
        finally:
            conn.close()

    with open(tmp_path / "serve.log", "wb") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-store",
             "--port", str(ports["tcp"]), "--http-port", str(ports["http"]),
             "--drain-timeout", "20"], stdout=log, stderr=log, env=env)
        try:
            with loadgen._wait_ready(lambda: StencilClient(config)) as client:
                job = client.submit_job(
                    ExecutionRequest.for_benchmark(
                        "jacobi2d5pt", shape=(64, 64), steps=10 ** 9),
                    checkpoint_every=64)
            waiter = threading.Thread(target=wait, args=(job["job_id"],),
                                      daemon=True)
            waiter.start()
            time.sleep(0.5)
            assert waiter.is_alive()        # the signal lands mid-wait
            signalled = time.monotonic()
            server.send_signal(signal.SIGTERM)
            waiter.join(timeout=10)
            assert not waiter.is_alive()
            assert time.monotonic() - signalled < 5.0
            with StencilClient(config) as client:
                client.cancel_job(job["job_id"])
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
    assert reply["status"] == 200, reply
    assert reply["body"]["job"]["status"] == "running", reply


# ---------------------------------------------------------------------------
# One flag -> keyword mapping
# ---------------------------------------------------------------------------

#: What `repro serve` with no arguments passed run_server before the mapping
#: was derived from the signatures.
DEFAULT_SERVE_KEYWORDS = {
    "host": "127.0.0.1", "port": 7457, "max_requests": None,
    "prewarm": None, "prewarm_batch": (), "http_port": None, "auth_key": None, "drain_timeout": 10.0,
    "max_request_bytes": 32 * 1024 * 1024,
    "store": ".repro/engine.sqlite", "batch_window": 0.002, "max_batch": 64,
    "shards": 0, "max_queue_depth": None, "shard_timeout_s": 30.0,
    "job_dir": None, "checkpoint_every": 16,
}

#: dest -> (argv, the keywords that must arrive): the written-out translations.
TRANSLATED = {
    "store": (["--store", "s.sqlite"], {"store": "s.sqlite"}),
    "no_store": (["--no-store"], {"store": None}),
    "window_ms": (["--window-ms", "7"], {"batch_window": 0.007}),
    # What these two produce is test_prewarm_flags_become_requests'.
    "prewarm": (["--prewarm", "stencil2d"], {}),
    "prewarm_shape": (["--prewarm", "stencil2d", "--prewarm-shape", "6",
                       "6"], {}),
    "prewarm_batch": (["--prewarm-batch", "3", "5"],
                      {"prewarm_batch": (3, 5)}),
}
CLI_ONLY = {"log_level", "log_json", "command", "help"}


def _serve_parser():
    parser = cli.build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))["serve"]


def _served_keywords(monkeypatch, argv):
    from repro.service import server
    from repro.telemetry import logs

    passed = {}

    def stub(**kwargs):
        passed.update(kwargs)
        return {}

    stub.__signature__ = inspect.signature(run_server)
    monkeypatch.setattr(server, "run_server", stub)
    monkeypatch.setattr(logs, "configure_logging", lambda **kwargs: None)
    assert cli.main(["serve", *argv]) == 0
    return passed


class TestNoFlagReachesNothing:
    def test_defaults_pass_the_recorded_keywords(self, monkeypatch, capsys):
        assert _served_keywords(monkeypatch, []) == DEFAULT_SERVE_KEYWORDS

    def test_every_flag_reaches_a_keyword(self, monkeypatch, capsys):
        accepted = (set(inspect.signature(run_server).parameters)
                    | set(inspect.signature(StencilService).parameters))
        for action in _serve_parser()._actions:
            dest = action.dest
            if dest in CLI_ONLY:
                continue
            if dest in TRANSLATED:
                argv, expected = TRANSLATED[dest]
                passed = _served_keywords(monkeypatch, argv)
                for name, value in expected.items():
                    assert passed[name] == pytest.approx(value), dest
                continue
            assert dest in accepted, (
                f"--{dest.replace('_', '-')} feeds no keyword of run_server "
                "or StencilService, is no written-out translation and is "
                "not CLI-only")
            if action.nargs == 0:     # store_true
                argv, value = [action.option_strings[0]], True
            elif action.choices:
                value = [c for c in action.choices if c != action.default][0]
                argv = [action.option_strings[0], str(value)]
            elif action.type in (int, float):
                value = action.type(7)
                argv = [action.option_strings[0], "7"]
            else:
                value = "edge-value"
                argv = [action.option_strings[0], value]
            assert value != action.default
            assert _served_keywords(monkeypatch, argv)[dest] == value, dest

    def test_prewarm_flags_become_requests(self, monkeypatch, capsys):
        passed = _served_keywords(
            monkeypatch, ["--prewarm", "stencil2d", "--prewarm-shape", "6", "6"])
        (warm,) = passed["prewarm"]
        assert warm.benchmark == "stencil2d" and warm.inputs[0].shape == (6, 6)

    def test_a_flag_wired_to_nothing_fails_the_check(self, monkeypatch,
                                                     capsys):
        build = cli.build_parser

        def with_orphan():
            parser = build()
            next(action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))[
                     "serve"].add_argument("--orphan-flag", type=int,
                                           default=0)
            return parser

        monkeypatch.setattr(cli, "build_parser", with_orphan)
        with pytest.raises(AssertionError, match="--orphan-flag"):
            self.test_every_flag_reaches_a_keyword(monkeypatch, capsys)

    def test_serve_reports_a_schedule_armed_from_the_environment(
            self, monkeypatch, capsys):
        """``REPRO_INJECT`` is the one outside switch: ``serve`` names the
        points it armed and passes the service nothing for them."""
        from repro import faults

        faults.arm("store.locked:at=1")
        try:
            passed = _served_keywords(monkeypatch, [])
        finally:
            faults.disarm()
        assert passed == DEFAULT_SERVE_KEYWORDS
        assert "fault injection armed: store.locked" in capsys.readouterr().out
