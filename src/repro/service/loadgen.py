"""The load generator: four traffic scenarios, each written once.

A *scenario* decides what traffic to send and what to conclude from the
replies; a :class:`Target` decides where the traffic goes.  The scenarios:

* **plain** (:func:`run_loadgen`) — ``requests`` concurrent stencil
  executions, per-request latency (p50/p99) and aggregate throughput
  against the *per-request serial baseline* (the same requests, one
  synchronous backend call at a time — a library call, never a network
  call), plus the service's own stats (batches formed, compilations) so
  one report answers "did batching happen and how much did it pay";
* **mixed** (:func:`run_mixed_loadgen`) — an interleaved mixed-priority
  stream that saturates admission control, reported per priority;
* **chaos** (:func:`run_chaos_loadgen`) — sustained waves while real
  signals kill or wedge shard processes;
* **job drill** (:func:`run_job_drill`) — SIGKILL a ``repro serve``
  subprocess mid-job, restart it, verify the resume.

The first three run unchanged against either target: an in-process
:class:`StencilService`, or (``connect=``) a running ``repro serve``
endpoint reached through :class:`~repro.client.StencilClient` over TCP or
HTTP.  :data:`SCENARIOS` is the table ``repro loadgen`` drives.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Protocol, Sequence, Tuple)

import numpy as np

from ..apps.base import squeeze_result
from ..apps.suite import get_benchmark
from ..backend.base import NumpyBackend
from ..backend.cache import CompilationCache
from ..telemetry.registry import LATENCY_BUCKETS, Histogram
from .requests import PRIORITIES, ExecutionRequest, ExecutionResponse
from .server import ServiceClient, StencilService

log = logging.getLogger("repro.service.loadgen")

Row = Optional[ExecutionResponse]


class Target(Protocol):
    """Where a scenario sends its traffic.

    ``fire`` sends one wave concurrently and returns one row per request,
    in request order: the :class:`ExecutionResponse` (sheds, rejections
    and errors ride in-band), or ``None`` for a reply lost in transport.
    ``stats`` is the service's stats report (``{}`` where the endpoint
    does not expose one) and ``mode`` names the path in the report.
    """

    mode: str

    def fire(self, requests: Sequence[ExecutionRequest]) -> List[Row]: ...

    def stats(self) -> Dict[str, object]: ...

    def close(self) -> None: ...


class _InProcessTarget:
    """A private :class:`StencilService`; a wave is one ``asyncio.gather``
    of submits, which is what lets the batcher stack it."""

    mode = "in-process"

    def __init__(self, **service_kwargs) -> None:
        self._client = ServiceClient(StencilService(**service_kwargs))

    def fire(self, requests):
        return self._client.execute_many(list(requests), raise_on_error=False)

    def stats(self):
        return self._client.stats()

    def close(self) -> None:
        self._client.close()


class _RemoteTarget:
    """A running ``repro serve`` endpoint, through the client library.

    ``concurrency`` worker threads share one :class:`StencilClient` (its
    transports pool connections), so a wave arrives as genuinely
    concurrent traffic.
    """

    def __init__(self, connect: Tuple[str, int], transport: str,
                 auth_key: Optional[str], concurrency: int) -> None:
        from ..client import ClientConfig, StencilClient, TransportError

        self.mode = transport
        self._lost = TransportError
        self._client = StencilClient(ClientConfig(
            host=connect[0], port=connect[1], transport=transport,
            auth_key=auth_key))
        self._pool = ThreadPoolExecutor(max_workers=max(1, concurrency))

    def _one(self, request: ExecutionRequest) -> Row:
        try:
            return self._client.execute(request)
        except self._lost as error:
            log.warning("request lost in transport: %s", error)
            return None

    def fire(self, requests):
        return list(self._pool.map(self._one, requests))

    def stats(self):
        return self._client.stats()

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self._client.close()


@contextmanager
def _open_target(connect: Optional[Tuple[str, int]], transport: str,
                 auth_key: Optional[str], concurrency: int,
                 **service_kwargs) -> Iterator[Target]:
    """The remote endpoint when ``connect`` names one, else a private
    in-process service built from ``service_kwargs``; closed on exit."""
    target: Target = (
        _RemoteTarget(connect, transport, auth_key, concurrency)
        if connect is not None else _InProcessTarget(**service_kwargs))
    try:
        yield target
    finally:
        target.close()


def _shard_rows(stats: Dict[str, object]) -> List[Dict[str, object]]:
    """The ``per_shard`` rows of a stats report ([] when unsharded)."""
    service_section = dict(stats.get("service") or {})
    return list(dict(service_section.get("shards") or {}).get("per_shard")
                or [])


def _small_shape(benchmark: str, shape: Optional[Sequence[int]]) -> tuple:
    """``shape``, or the benchmark's default clipped to 64 per axis."""
    default = get_benchmark(benchmark).default_shape
    return tuple(shape or tuple(min(extent, 64) for extent in default))


def _clone(head: ExecutionRequest, return_result: bool = False,
           **fields) -> ExecutionRequest:
    """A copy of ``head`` (same benchmark, its own grids)."""
    return ExecutionRequest(
        inputs=[np.array(grid) for grid in head.inputs],
        benchmark=head.benchmark, return_result=return_result, **fields)


def _percentile(latencies: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) if latencies else 0.0


def _latency_summary(latencies: Sequence[float], wall: float,
                     requests: int) -> Dict[str, float]:
    """Exact percentiles next to streaming-histogram estimates.

    Every sample is also routed through the shared telemetry histogram
    scheme (:data:`LATENCY_BUCKETS`), and the bucket-derived p50/p99 are
    reported beside the exact ``numpy.percentile`` values.  The advertised
    accuracy contract — estimates land within one log2 bucket of the true
    order statistic — is asserted on every report, so a drifting histogram
    implementation fails the loadgen run loudly rather than skewing
    dashboards silently.
    """
    histogram = Histogram("loadgen_latency_seconds", buckets=LATENCY_BUCKETS)
    for latency in latencies:
        histogram.observe(latency)
    summary = {
        "wall_s": wall,
        "requests_per_s": requests / wall if wall else 0.0,
        "p50_ms": _percentile(latencies, 50) * 1e3,
        "p99_ms": _percentile(latencies, 99) * 1e3,
        "p50_ms_hist": histogram.quantile(50) * 1e3,
        "p99_ms_hist": histogram.quantile(99) * 1e3,
    }
    if latencies:
        for exact_key, hist_key in (("p50_ms", "p50_ms_hist"),
                                    ("p99_ms", "p99_ms_hist")):
            exact_bucket = histogram.bucket_index(summary[exact_key] / 1e3)
            hist_bucket = histogram.bucket_index(summary[hist_key] / 1e3)
            if abs(exact_bucket - hist_bucket) > 1:
                raise AssertionError(
                    f"histogram {hist_key} estimate "
                    f"{summary[hist_key]:.3f} ms disagrees with exact "
                    f"{summary[exact_key]:.3f} ms by more than one bucket"
                )
    return summary


def build_requests(
    benchmark: str,
    requests: int,
    shape: Optional[Sequence[int]] = None,
    identical: bool = True,
    seed: int = 0,
    return_result: bool = False,
) -> List[ExecutionRequest]:
    """The request stream: identical (hot-digest) or distinct-seed traffic."""
    shape = _small_shape(benchmark, shape)
    first = ExecutionRequest.for_benchmark(
        benchmark, shape=shape, seed=seed, return_result=return_result
    )
    if identical:
        return [first] + [_clone(first, return_result=return_result)
                          for _ in range(1, requests)]
    return [first] + [
        ExecutionRequest.for_benchmark(benchmark, shape=shape,
                                       seed=seed + index,
                                       return_result=return_result)
        for index in range(1, requests)
    ]


def _serial_baseline(requests: Sequence[ExecutionRequest],
                     warmup: bool = True,
                     repeats: int = 1) -> Dict[str, float]:
    """The status quo: one synchronous compiled-backend call per
    (benchmark-named) request, on the program the service serves."""
    backend = NumpyBackend(cache=CompilationCache(), fallback=False)
    programs: Dict[str, object] = {}

    def run_one(request: ExecutionRequest) -> None:
        program = programs.get(request.benchmark)
        if program is None:
            program = programs[request.benchmark] = get_benchmark(
                request.benchmark).build_program()
        squeeze_result(backend.run(program, request.inputs,
                                   request.size_env or None))

    if warmup and requests:
        run_one(requests[0])
    best: Optional[Dict[str, float]] = None
    for _ in range(max(1, repeats)):
        latencies: List[float] = []
        started = time.perf_counter()
        for request in requests:
            t0 = time.perf_counter()
            run_one(request)
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - started
        measured = _latency_summary(latencies, wall, len(requests))
        if best is None or measured["wall_s"] < best["wall_s"]:
            best = measured
    assert best is not None
    return best


def _fire_checked(target: Target,
                  requests: Sequence[ExecutionRequest]) -> List[ExecutionResponse]:
    """One wave in which every request must be served."""
    rows = target.fire(requests)
    errors = ["reply lost in transport" if row is None else str(row.error)
              for row in rows if row is None or not row.ok]
    if errors:
        raise RuntimeError(f"{len(errors)} requests failed: {errors[0]}")
    return rows  # type: ignore[return-value]


def _drive_plain(
    target: Target,
    requests: Sequence[ExecutionRequest],
    warmup: bool,
    repeats: int,
) -> Dict[str, float]:
    """Fire the whole stream ``repeats`` times; keep the best wall clock.

    Per-request latency is the service-measured enqueue-to-complete time
    each response carries, so percentiles compare across targets.
    """
    if warmup and requests:
        # One request up front compiles the hot kernel, so the timed
        # stream measures steady-state serving throughput.  The compile
        # still appears (exactly once) in the reported cache stats.
        _fire_checked(target, requests[:1])
    best: Optional[Dict[str, float]] = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        responses = _fire_checked(target, requests)
        wall = time.perf_counter() - started
        measured = _latency_summary(
            [response.latency_s for response in responses], wall,
            len(requests))
        if best is None or measured["wall_s"] < best["wall_s"]:
            best = measured
    assert best is not None
    return best


def run_loadgen(
    benchmark: str = "stencil2d",
    requests: int = 64,
    shape: Optional[Sequence[int]] = None,
    identical: bool = True,
    seed: int = 0,
    window_ms: float = 2.0,
    max_batch: int = 64,
    connect: Optional[Tuple[str, int]] = None,
    warmup: bool = True,
    repeats: int = 1,
    shards: int = 0,
    transport: str = "tcp",
    auth_key: Optional[str] = None,
) -> Dict[str, object]:
    """Batched-service vs per-request-serial comparison for one stream.

    ``warmup`` sends one untimed request down each path first, so the
    reported throughput is the steady state a long-lived service actually
    delivers (compile cost still appears — once — in the cache stats).
    ``repeats`` re-runs both timed streams and keeps each side's best wall
    clock (the engine's measured-scoring convention); repeated streams
    doubly demonstrate the cache contract — compilations stay at one.
    ``shards`` drives a multi-process service (in-process mode only): N
    pre-forked shard processes sweep groups concurrently, and the report
    gains per-shard request counts; the compile-once contract then reads
    "one compilation per shard that served the hot digest".  With
    ``connect`` the whole stream is in flight at once over ``transport``
    (one client thread per request), authenticated by ``auth_key``.
    """
    stream = build_requests(benchmark, requests, shape=shape,
                            identical=identical, seed=seed)
    # A full batch flushes without waiting out the window, so cap the batch
    # size at the stream size: the generator measures batching, not the
    # batcher idling for traffic that will never arrive.
    max_batch = min(max_batch, requests)
    if connect is not None:
        repeats = 1  # one network stream; mirror it in the serial baseline
    with _open_target(connect, transport, auth_key, concurrency=requests,
                      batch_window=window_ms / 1e3, max_batch=max_batch,
                      shards=shards) as target:
        log.info("loadgen: %d %s requests for %s (%s)", requests,
                 "identical" if identical else "distinct", benchmark,
                 target.mode)
        batched = _drive_plain(target, stream, warmup, repeats)
        stats = target.stats()
    serial = _serial_baseline(stream, warmup=warmup, repeats=repeats)
    service_section = dict(stats.get("service") or {})
    per_shard = _shard_rows(stats)
    # In sharded mode the parent backend compiles nothing (fallbacks aside):
    # the compile-once contract moves into the shard processes, so the
    # report's compilation count is the fleet total.
    compilations = dict(stats.get("compilation_cache") or {}).get("misses")
    if per_shard:
        compilations = service_section["shards"].get("compilations")
    speedup = (
        batched["requests_per_s"] / serial["requests_per_s"]
        if serial["requests_per_s"] else float("inf")
    )
    return {
        "benchmark": benchmark,
        "requests": requests,
        "shape": list(shape) if shape else None,
        "identical": identical,
        # With a remote target the batching configuration lives server-side;
        # recording the local defaults would misattribute the measured batching.
        "window_ms": None if connect is not None else window_ms,
        "max_batch": None if connect is not None else max_batch,
        "repeats": repeats,
        "mode": target.mode,
        "batched": batched,
        "serial": serial,
        "speedup": speedup,
        "batches_formed": service_section.get("batches_formed"),
        "requests_served": service_section.get("requests_served"),
        "largest_batch": service_section.get("largest_batch"),
        "compilations": compilations,
        "shards": len(per_shard),
        "shard_requests": [
            int(row.get("requests") or 0) for row in per_shard
        ],
        "service_stats": stats,
    }


def format_loadgen(report: Dict[str, object]) -> str:
    """Human-readable (and CI-greppable) rendering of a loadgen report."""
    batched = report["batched"]
    serial = report["serial"]
    lines = [
        f"loadgen {report['benchmark']}: {report['requests']} concurrent "
        f"{'identical' if report['identical'] else 'distinct'} requests "
        f"({report['mode']})",
        f"  batched service: {batched['requests_per_s']:.1f} req/s, "
        f"p50 {batched['p50_ms']:.2f} ms, p99 {batched['p99_ms']:.2f} ms",
        f"  histogram est.:  p50 {batched.get('p50_ms_hist', 0.0):.2f} ms, "
        f"p99 {batched.get('p99_ms_hist', 0.0):.2f} ms "
        f"(log2 buckets, one-bucket accuracy)",
        f"  serial baseline: {serial['requests_per_s']:.1f} req/s, "
        f"p50 {serial['p50_ms']:.2f} ms, p99 {serial['p99_ms']:.2f} ms",
        f"  speedup: {report['speedup']:.2f}x",
        f"  batching: requests_served={report['requests_served']} "
        f"batches_formed={report['batches_formed']} "
        f"largest_batch={report['largest_batch']} "
        f"compilations={report['compilations']}",
    ]
    if report.get("shards"):
        lines.append(
            f"  shards: {report['shards']} processes, per-shard requests "
            f"{report.get('shard_requests')}"
        )
    return "\n".join(lines)


def check_batching(report: Dict[str, object]) -> List[str]:
    """Assertion-style checks the CI smoke job relies on (empty = pass)."""
    problems: List[str] = []
    served = report.get("requests_served") or 0
    batches = report.get("batches_formed")
    if batches is None or served < int(report["requests"]):
        problems.append("service stats missing or incomplete")
        return problems
    if batches >= served:
        problems.append(
            f"no batching occurred: {batches} batches for {served} requests"
        )
    if report.get("identical"):
        # Compile-once per serving backend: the parent in unsharded mode,
        # each shard that saw the hot digest in sharded mode.
        shard_requests = list(report.get("shard_requests") or [])
        expected = (
            sum(1 for count in shard_requests if count > 0)
            if shard_requests else 1
        )
        if report.get("compilations") != expected:
            problems.append(
                f"expected {expected} compilation(s) for the hot digest, "
                f"got {report.get('compilations')}"
            )
    return problems


def parse_mix(spec: str) -> Dict[str, int]:
    """Parse ``high:1,normal:8,batch:4`` into priority weights."""
    weights: Dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        priority, _, weight = part.partition(":")
        priority = priority.strip().lower()
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r} in mix (one of {PRIORITIES})"
            )
        try:
            weights[priority] = int(weight.strip() or "1")
        except ValueError:
            raise ValueError(f"mix weight for {priority!r} is not an integer")
        if weights[priority] < 0:
            raise ValueError(f"mix weight for {priority!r} must be >= 0")
    if not weights or not any(weights.values()):
        raise ValueError(f"mix {spec!r} selects no traffic")
    return weights


def build_mixed_requests(
    benchmark: str,
    requests: int,
    mix: Dict[str, int],
    shape: Optional[Sequence[int]] = None,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
) -> List[ExecutionRequest]:
    """An interleaved mixed-priority stream (weights → round-robin pattern).

    The pattern repeats one request per unit of weight — ``high:1,batch:4``
    yields ``high, batch, batch, batch, batch, high, …`` — so every window
    of traffic carries the configured ratio (no long single-priority runs
    that would make priority draining trivially easy).
    """
    first = ExecutionRequest.for_benchmark(
        benchmark, shape=_small_shape(benchmark, shape), seed=seed,
        return_result=False)
    pattern = [priority for priority in PRIORITIES
               for _ in range(mix.get(priority, 0))]
    return [_clone(first, priority=pattern[index % len(pattern)],
                   deadline_ms=deadline_ms)
            for index in range(requests)]


def _outcomes(rows: Sequence[Row]) -> Dict[str, int]:
    """Count one set of rows by how each request was answered."""
    counts = {"requests": len(rows), "served": 0, "shed": 0, "rejected": 0,
              "failed": 0, "lost": 0}
    for row in rows:
        counts["lost" if row is None else "served" if row.ok
               else "shed" if row.shed else "rejected" if row.rejected
               else "failed"] += 1
    return counts


def _mixed_summary(stream: Sequence[ExecutionRequest],
                   responses: Sequence[Row],
                   wall: float) -> Dict[str, object]:
    """Per-priority latency percentiles + shed/reject/error accounting."""
    per_priority: Dict[str, Dict[str, object]] = {}
    for priority in PRIORITIES:
        rows = [row for request, row in zip(stream, responses)
                if request.priority == priority]
        if not rows:
            continue
        counts = _outcomes(rows)
        errors = counts.pop("failed") + counts.pop("lost")
        latencies = [row.latency_s for row in rows
                     if row is not None and row.ok]
        per_priority[priority] = {
            **counts,
            "errors": errors,
            "p50_ms": _percentile(latencies, 50) * 1e3,
            "p99_ms": _percentile(latencies, 99) * 1e3,
        }
    return {
        "wall_s": wall,
        "requests_per_s": len(stream) / wall if wall else 0.0,
        "per_priority": per_priority,
        "sheds_total": sum(int(row["shed"]) for row in per_priority.values()),
        "rejects_total": sum(int(row["rejected"])
                             for row in per_priority.values()),
    }


def _drive_mixed(
    target: Target,
    stream: Sequence[ExecutionRequest],
    warmup: bool,
) -> Tuple[List[Row], float]:
    """Fire one mixed stream; sheds and rejects are the measurement here,
    not failures, so every row comes back as it was answered."""
    if warmup and stream:
        target.fire([_clone(stream[0])])
    started = time.perf_counter()
    responses = target.fire(stream)
    return responses, time.perf_counter() - started


def run_mixed_loadgen(
    benchmark: str = "stencil2d",
    requests: int = 64,
    mix: Optional[Dict[str, int]] = None,
    shape: Optional[Sequence[int]] = None,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    window_ms: float = 2.0,
    max_batch: int = 8,
    connect: Optional[Tuple[str, int]] = None,
    transport: str = "tcp",
    auth_key: Optional[str] = None,
    concurrency: int = 8,
    max_queue_depth: Optional[int] = None,
    max_inflight_per_digest: Optional[int] = None,
    warmup: bool = True,
) -> Dict[str, object]:
    """The mixed-priority replay: saturate, then report who got served.

    An interleaved stream (``mix`` weights, all carrying ``deadline_ms``)
    is fired concurrently at the service; the report breaks p50/p99 and
    shed/reject counts out per priority, and measures an *unloaded*
    high-priority baseline first so the tail-latency contract — loaded
    high-priority p99 within 2x of unloaded — is checked in one run.
    """
    mix = dict(mix or {"high": 1, "normal": 8, "batch": 4})
    stream = build_mixed_requests(benchmark, requests, mix, shape=shape,
                                  seed=seed, deadline_ms=deadline_ms)
    # The unloaded baseline: a short, sequential, high-priority stream with
    # no deadline — what one isolated caller sees from the same service.
    baseline_stream = [_clone(stream[0], priority="high")
                       for _ in range(min(8, max(2, requests // 8)))]
    service_kwargs = dict(batch_window=window_ms / 1e3,
                          max_batch=min(max_batch, requests))
    with _open_target(connect, transport, auth_key, concurrency=1,
                      **service_kwargs) as target:
        base_responses, base_wall = _drive_mixed(target, baseline_stream,
                                                 warmup)
    with _open_target(connect, transport, auth_key, concurrency=concurrency,
                      max_queue_depth=max_queue_depth,
                      max_inflight_per_digest=max_inflight_per_digest,
                      **service_kwargs) as target:
        log.info("mixed loadgen: %d requests (%s) for %s (%s)", requests,
                 ",".join(f"{k}:{v}" for k, v in mix.items()), benchmark,
                 target.mode)
        responses, wall = _drive_mixed(target, stream, warmup)
        stats = target.stats()
    baseline = _mixed_summary(baseline_stream, base_responses, base_wall)
    mixed = _mixed_summary(stream, responses, wall)
    unloaded_high = dict(baseline["per_priority"].get("high") or {})
    loaded_high = dict(mixed["per_priority"].get("high") or {})
    unloaded_p99 = float(unloaded_high.get("p99_ms") or 0.0)
    loaded_p99 = float(loaded_high.get("p99_ms") or 0.0)
    service_section = dict(stats.get("service") or {})
    admission = dict(service_section.get("admission") or {})
    return {
        "benchmark": benchmark,
        "requests": requests,
        "mix": mix,
        "deadline_ms": deadline_ms,
        "mode": target.mode,
        "shape": list(shape) if shape else None,
        "wall_s": mixed["wall_s"],
        "requests_per_s": mixed["requests_per_s"],
        "per_priority": mixed["per_priority"],
        "sheds_total": mixed["sheds_total"],
        "rejects_total": mixed["rejects_total"],
        "high_shed": int((mixed["per_priority"].get("high") or {})
                         .get("shed", 0)),
        "unloaded_high_p99_ms": unloaded_p99,
        "loaded_high_p99_ms": loaded_p99,
        "high_p99_ratio": (loaded_p99 / unloaded_p99) if unloaded_p99
        else None,
        "server_admission": admission,
        "service_stats": stats,
    }


def format_mixed_loadgen(report: Dict[str, object]) -> str:
    """Human-readable (and CI-greppable) mixed-priority report."""
    mix = report["mix"]
    lines = [
        f"mixed loadgen {report['benchmark']}: {report['requests']} requests "
        f"({','.join(f'{k}:{v}' for k, v in mix.items())}, "
        f"deadline {report['deadline_ms']} ms, {report['mode']})",
    ]
    for priority, row in (report.get("per_priority") or {}).items():
        lines.append(
            f"  {priority:>6}: {row['served']}/{row['requests']} served, "
            f"shed={row['shed']} rejected={row['rejected']} "
            f"errors={row['errors']}, p50 {row['p50_ms']:.2f} ms, "
            f"p99 {row['p99_ms']:.2f} ms"
        )
    ratio = report.get("high_p99_ratio")
    lines.append(
        f"  high p99: {report['loaded_high_p99_ms']:.2f} ms loaded vs "
        f"{report['unloaded_high_p99_ms']:.2f} ms unloaded"
        + (f" ({ratio:.2f}x)" if ratio else "")
    )
    lines.append(
        f"  pressure: sheds_total={report['sheds_total']} "
        f"rejects_total={report['rejects_total']} "
        f"high_shed={report['high_shed']}"
    )
    return "\n".join(lines)


def check_no_high_shed(report: Dict[str, object]) -> List[str]:
    """The ``--assert-no-high-shed`` CI contract (empty = pass)."""
    problems: List[str] = []
    high = dict((report.get("per_priority") or {}).get("high") or {})
    if not high:
        problems.append("report carries no high-priority traffic")
        return problems
    for key, verb in (("shed", "were shed"), ("rejected", "were rejected"),
                      ("errors", "failed")):
        if int(high.get(key, 0)) > 0:
            problems.append(f"{high[key]} high-priority request(s) {verb}")
    return problems


def check_sharding(report: Dict[str, object]) -> List[str]:
    """Sharded-run checks: every shard must actually have served traffic."""
    problems: List[str] = []
    shard_requests = list(report.get("shard_requests") or [])
    if not shard_requests:
        problems.append("report has no per-shard request counts")
        return problems
    for index, count in enumerate(shard_requests):
        if count <= 0:
            problems.append(f"shard {index} served no requests")
    return problems


# ---------------------------------------------------------------------------
# Chaos mode: inject real failures mid-run, assert the self-healing contract
# ---------------------------------------------------------------------------

_CHAOS_SIGNALS = {
    # SIGKILL: the shard dies instantly, the parent sees EOF on the pipe.
    "kill-shard": signal.SIGKILL,
    # SIGSTOP: the shard wedges without dying — only the per-round-trip
    # watchdog timeout can notice it.  (The supervisor's respawn SIGKILLs
    # it, which works on stopped processes.)
    "hang-shard": signal.SIGSTOP,
}

CHAOS_ACTIONS = tuple(_CHAOS_SIGNALS)


def parse_chaos(spec: str) -> List[Dict[str, object]]:
    """Parse ``kill-shard:t=2,hang-shard:t=4[:shard=1]`` into chaos events."""
    events: List[Dict[str, object]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        action = fields[0].strip()
        if action not in CHAOS_ACTIONS:
            raise ValueError(
                f"unknown chaos action {action!r} (one of {CHAOS_ACTIONS})")
        event: Dict[str, object] = {"action": action, "t": 1.0, "shard": None}
        for field in fields[1:]:
            key, _, value = field.partition("=")
            key = key.strip()
            if key not in ("t", "shard"):
                raise ValueError(
                    f"unknown chaos qualifier {key!r} in {part!r}")
            try:
                event[key] = float(value) if key == "t" else int(value)
            except ValueError:
                raise ValueError(
                    f"bad value for {key!r} in {part!r}: {value!r}")
        events.append(event)
    if not events:
        raise ValueError(f"empty chaos spec: {spec!r}")
    return sorted(events, key=lambda event: float(event["t"]))  # type: ignore[arg-type]


def _chaos_wave(first: ExecutionRequest, size: int) -> List[ExecutionRequest]:
    """One wave of concurrent traffic: request 0 is high priority (so the
    tail-latency contract is measured under chaos), the rest normal."""
    return [_clone(first, priority="high" if index == 0 else "normal")
            for index in range(size)]


def _fleet_recovered(applied: Sequence[Dict[str, object]],
                     rows: Sequence[Dict[str, object]]) -> bool:
    """Every victim is back: alive, respawned, and serving again.

    A respawned shard restarts its child-side counters, so "serves again"
    reads: at least one request since the respawn.
    """
    by_index = {int(row.get("shard", -1)): row for row in rows}
    victims = [by_index.get(int(record["shard"])) or {} for record in applied]
    return all(
        row.get("alive") and int(row.get("requests") or 0) >= 1
        and int(row.get("respawns") or 0) >= 1
        for row in victims
    )


def _drive_chaos(
    target: Target,
    first: ExecutionRequest,
    chaos: Sequence[Dict[str, object]],
    duration_s: float,
    wave_size: int,
    wave_gap_s: float,
    recovery_timeout_s: float,
    kill: Callable[[int, int], None] = os.kill,
) -> Dict[str, object]:
    """Waves of load while the schedule signals shards; the outcome fields.

    Victims, their pids and the recovery verdict all come from the
    target's per-shard stats rows, so the schedule runs the same against
    an in-process fleet and a remote one (which must share this host:
    ``kill`` signals a local pid).
    """
    responses: List[Row] = []
    priorities: List[str] = []
    applied: List[Dict[str, object]] = []
    stop_load = threading.Event()

    def fire_wave() -> None:
        wave = _chaos_wave(first, wave_size)
        responses.extend(target.fire(wave))
        priorities.extend(request.priority for request in wave)

    def load() -> None:
        while not stop_load.is_set():
            fire_wave()
            if stop_load.wait(wave_gap_s):
                break

    target.fire(_chaos_wave(first, 1))  # warm the hot digest
    loader = threading.Thread(target=load, name="chaos-load", daemon=True)
    started = time.perf_counter()
    loader.start()
    try:
        victim_rotation = 0
        for event in chaos:
            delay = float(event["t"]) - (time.perf_counter() - started)
            if delay > 0:
                time.sleep(delay)
            rows = _shard_rows(target.stats())
            if not rows:
                raise RuntimeError(
                    "chaos needs per-shard stats rows: a sharded service")
            if event.get("shard") is None:
                # Next alive shard, round-robin over events, so kill+hang
                # hit different shards by default.
                candidates = [row for row in rows if row.get("alive")] or rows
                row = candidates[victim_rotation % len(candidates)]
                victim_rotation += 1
            else:
                row = next(r for r in rows
                           if int(r.get("shard", -1)) == int(event["shard"]))
            pid = int(row["pid"])
            log.info("chaos: %s -> shard %s (pid %d) at t=%.2fs",
                     event["action"], row["shard"], pid,
                     time.perf_counter() - started)
            kill(pid, _CHAOS_SIGNALS[str(event["action"])])
            applied.append({
                "action": event["action"],
                "t": float(event["t"]),
                "shard": int(row["shard"]),
                "pid": pid,
                "requests_at_event": int(row.get("requests") or 0),
            })
        remaining = duration_s - (time.perf_counter() - started)
        if remaining > 0:
            time.sleep(remaining)
    finally:
        stop_load.set()
        loader.join(timeout=60)
    # Recovery settle: keep trickling traffic until every victim's shard
    # is back in rotation and has served again.  The last snapshot is the
    # report's: it is taken while the fleet is still up (closing an
    # in-process target shuts its shards down).
    deadline = time.monotonic() + recovery_timeout_s
    stats = target.stats()
    while (not _fleet_recovered(applied, _shard_rows(stats))
           and time.monotonic() < deadline):
        fire_wave()
        time.sleep(0.1)
        stats = target.stats()
    wall = time.perf_counter() - started
    high_latencies = [
        row.latency_s for row, priority in zip(responses, priorities)
        if priority == "high" and row is not None and row.ok
    ]
    summary = {**_outcomes(responses),
               "high_p99_ms": _percentile(high_latencies, 99) * 1e3}
    service_section = dict(stats.get("service") or {})
    per_shard = _shard_rows(stats)
    return {
        "chaos": applied,
        "wall_s": wall,
        "requests_per_s": (summary["requests"] / wall) if wall else 0.0,
        **summary,
        "shards": len(per_shard),
        "shard_requests": [int(row.get("requests") or 0)
                           for row in per_shard],
        "shard_restarts": int(service_section.get("shard_restarts") or 0),
        "shard_redispatches": int(
            service_section.get("shard_redispatches") or 0),
        "recovered": _fleet_recovered(applied, per_shard),
        "service_stats": stats,
    }


def run_chaos_loadgen(
    benchmark: str = "stencil2d",
    chaos: Optional[List[Dict[str, object]]] = None,
    duration_s: float = 6.0,
    shards: int = 2,
    shape: Optional[Sequence[int]] = None,
    seed: int = 0,
    window_ms: float = 2.0,
    max_batch: int = 8,
    wave_size: int = 8,
    wave_gap_s: float = 0.02,
    shard_timeout_s: float = 1.0,
    max_respawns: int = 5,
    recovery_timeout_s: float = 20.0,
    connect: Optional[Tuple[str, int]] = None,
    transport: str = "tcp",
    auth_key: Optional[str] = None,
) -> Dict[str, object]:
    """Sustained load with real mid-run failures; report the survival story.

    Waves of concurrent requests (one high-priority each) are fired for
    ``duration_s`` while the chaos schedule sends real signals to shard
    processes — ``kill-shard`` SIGKILLs one, ``hang-shard`` SIGSTOPs one.
    The contract under test: **zero failed requests and zero lost replies**
    (dead-shard groups are redispatched; the reply never arrived, so
    re-execution is idempotent), the supervisor respawns every victim
    (``shard_restarts >= len(chaos)``), and the killed shard serves again
    after its respawn.

    In ``--connect`` mode the victim PIDs come from the server's per-shard
    stats, so the loadgen must run on the same host as the server.
    """
    chaos = list(chaos or [])
    first = ExecutionRequest.for_benchmark(
        benchmark, shape=_small_shape(benchmark, shape), seed=seed,
        return_result=False)
    log.info("chaos loadgen: %s for %.1fs over %d shards, events: %s",
             benchmark, duration_s, shards,
             ",".join(f"{e['action']}:t={e['t']}" for e in chaos) or "none")
    with _open_target(connect, transport, auth_key,
                      concurrency=max(2, wave_size),
                      batch_window=window_ms / 1e3,
                      max_batch=max_batch, shards=shards,
                      shard_timeout_s=shard_timeout_s,
                      max_respawns=max_respawns) as target:
        outcome = _drive_chaos(target, first, chaos, duration_s, wave_size,
                               wave_gap_s, recovery_timeout_s)
    return {"benchmark": benchmark, "mode": target.mode,
            "duration_s": duration_s, **outcome}


def format_chaos_loadgen(report: Dict[str, object]) -> str:
    """Human-readable (and CI-greppable) chaos report."""
    lines = [
        f"chaos loadgen {report['benchmark']}: {report['requests']} requests "
        f"over {report['wall_s']:.1f}s ({report['mode']}, "
        f"{report['shards']} shards)",
        "  events: " + (", ".join(
            f"{e['action']} shard {e['shard']} (pid {e['pid']}) "
            f"at t={e['t']:g}s" for e in report.get("chaos") or []
        ) or "none"),
        f"  outcome: served={report['served']} failed={report['failed']} "
        f"lost={report['lost']} shed={report['shed']} "
        f"rejected={report['rejected']}",
        f"  high p99: {report['high_p99_ms']:.2f} ms",
        f"  healing: shard_restarts={report['shard_restarts']} "
        f"shard_redispatches={report['shard_redispatches']} "
        f"recovered={report['recovered']}",
        f"  per-shard requests: {report.get('shard_requests')}",
    ]
    return "\n".join(lines)


def check_chaos(report: Dict[str, object],
                p99_ms: Optional[float] = None) -> List[str]:
    """The chaos contract (empty = pass): nothing user-visible broke.

    * zero failed requests and zero lost replies;
    * every chaos victim was respawned (``shard_restarts >= len(chaos)``)
      and the fleet recovered (victims alive and serving again);
    * optionally, high-priority p99 stayed within ``p99_ms``.
    """
    problems: List[str] = []
    if int(report.get("failed") or 0) > 0:
        problems.append(f"{report['failed']} request(s) failed")
    if int(report.get("lost") or 0) > 0:
        problems.append(f"{report['lost']} reply(ies) were lost")
    events = list(report.get("chaos") or [])
    if events:
        restarts = int(report.get("shard_restarts") or 0)
        if restarts < len(events):
            problems.append(
                f"expected >= {len(events)} shard restart(s), got {restarts}")
        if not report.get("recovered"):
            problems.append(
                "fleet did not recover (a victim shard is dead or idle)")
    if p99_ms is not None and float(report.get("high_p99_ms") or 0.0) > p99_ms:
        problems.append(
            f"high-priority p99 {report['high_p99_ms']:.2f} ms exceeds "
            f"bound {p99_ms:g} ms")
    return problems


# ---------------------------------------------------------------------------
# Job-durability drill: SIGKILL the server mid-job, restart, assert recovery
# ---------------------------------------------------------------------------


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _scrape_metrics(host: str, port: int,
                    names: Sequence[str]) -> Dict[str, Optional[float]]:
    """Unlabelled samples from the HTTP endpoint's ``/metrics``."""
    import urllib.request

    with urllib.request.urlopen(f"http://{host}:{port}/metrics",
                                timeout=10) as response:
        lines = response.read().decode("utf-8").splitlines()
    samples = dict(line.split()[:2] for line in lines
                   if line and not line.startswith("#"))
    return {name: float(samples[name]) if name in samples else None
            for name in names}


def _spawn_serve(host: str, ports: Dict[str, int], job_dir: str,
                 checkpoint_every: int, auth_key: Optional[str],
                 log_path: str):
    """One ``repro serve`` subprocess configured for durable jobs."""
    import subprocess
    import sys

    argv = [
        sys.executable, "-m", "repro", "serve",
        "--host", host,
        "--port", str(ports["tcp"]),
        "--http-port", str(ports["http"]),
        "--no-store",
        "--window-ms", "1",
        "--job-dir", job_dir,
        "--checkpoint-every", str(checkpoint_every),
        "--log-level", "info",
    ]
    if auth_key:
        argv += ["--auth-key", auth_key]
    log_file = open(log_path, "ab")
    try:
        return subprocess.Popen(argv, stdout=log_file, stderr=log_file)
    finally:
        log_file.close()


def _wait_ready(make_client, timeout_s: float = 30.0):
    """A client whose endpoint answers ping, or raise after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        client = make_client()
        try:
            if client.ping(timeout_s=2.0):
                return client
        except Exception as error:  # noqa: BLE001 - still booting
            last_error = error
        client.close()
        time.sleep(0.05)
    raise RuntimeError(f"server did not become ready within {timeout_s:g}s "
                       f"(last error: {last_error})")


def _bit_identical(grid: np.ndarray, reference: np.ndarray) -> bool:
    return bool(grid.dtype == reference.dtype
                and grid.shape == reference.shape
                and grid.tobytes() == reference.tobytes())


def run_job_drill(
    benchmark: str = "heat",
    steps: int = 512,
    checkpoint_every: int = 8,
    shape: Optional[Sequence[int]] = None,
    seed: int = 0,
    job_dir: Optional[str] = None,
    auth_key: Optional[str] = "drill-key",
    kill_after_steps: Optional[int] = None,
    timeout_s: float = 180.0,
    host: str = "127.0.0.1",
) -> Dict[str, object]:
    """The durability drill: kill -9 a server mid-job, restart, verify.

    A ``repro serve`` subprocess (authenticated HTTP + durable jobs under
    a fresh ``--job-dir``) receives one long checkpointed job; once its
    status shows at least ``kill_after_steps`` completed (default: one
    checkpoint segment) the server is SIGKILLed — no drain, no flush, the
    exact failure the checkpoint format exists for.  A second server is
    started on the same ports with the same ``--job-dir``; the drill then
    asserts the job **resumed** (``resumes == 1``, never restarted from
    step 0), **completed**, and produced a final grid **bit-identical** to
    the uninterrupted local ``benchmark.iterate`` reference, that a second
    fetch (from ``result.rpg``, since the first took the result out of
    memory) is bit-identical to the first, and that the restarted
    server's ``/metrics`` shows ``repro_job_checkpoints_total >= 1``,
    ``repro_job_resumes_total == 1`` and ``repro_jobs_resident_results
    == 0``.
    """
    import shutil
    import tempfile

    from ..client import ClientConfig, StencilClient

    bench = get_benchmark(benchmark)
    shape = _small_shape(benchmark, shape)
    inputs = bench.make_inputs(shape, seed)
    expected = np.asarray(bench.iterate(inputs, steps), dtype=np.float64)
    kill_after = int(kill_after_steps or checkpoint_every)

    owns_dir = job_dir is None
    job_dir = job_dir or tempfile.mkdtemp(prefix="repro-job-drill-")
    ports = {"tcp": _free_port(), "http": _free_port()}
    log_path = os.path.join(job_dir, "serve.log")
    problems: List[str] = []
    report: Dict[str, object] = {
        "benchmark": benchmark,
        "steps": steps,
        "checkpoint_every": checkpoint_every,
        "shape": list(shape),
        "job_dir": job_dir,
        "server_log": log_path,
        "authenticated": bool(auth_key),
    }

    def make_client() -> StencilClient:
        return StencilClient(ClientConfig(host=host, port=ports["http"],
                                          transport="http",
                                          auth_key=auth_key))

    started = time.perf_counter()
    server = _spawn_serve(host, ports, job_dir, checkpoint_every, auth_key,
                          log_path)
    try:
        client = _wait_ready(make_client)
        try:
            request = ExecutionRequest(
                inputs=[np.array(grid) for grid in inputs],
                benchmark=benchmark, steps=steps,
            )
            job = client.submit_job(request,
                                    checkpoint_every=checkpoint_every)
            job_id = str(job["job_id"])
            report["job_id"] = job_id
            # Wait for the first durable progress, then pull the plug.
            completed_at_kill = 0
            kill_deadline = time.monotonic() + timeout_s
            while True:
                status = client.job_status(job_id)
                completed_at_kill = int(status.get("completed_steps") or 0)
                if status.get("status") not in ("queued", "running"):
                    problems.append(
                        f"job reached {status.get('status')!r} before the "
                        "kill — grow --steps or shrink --checkpoint-every")
                    break
                if completed_at_kill >= kill_after:
                    break
                if time.monotonic() > kill_deadline:
                    problems.append(
                        f"no checkpointed progress within {timeout_s:g}s")
                    break
                time.sleep(0.01)
        finally:
            client.close()
        report["completed_steps_at_kill"] = completed_at_kill
        log.info("job drill: SIGKILL server (pid %d) at %d/%d steps",
                 server.pid, completed_at_kill, steps)
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=30)

        # The restart: same ports, same --job-dir, nothing else carried over.
        server = _spawn_serve(host, ports, job_dir, checkpoint_every,
                              auth_key, log_path)
        client = _wait_ready(make_client)
        try:
            final = client.wait_job(job_id, timeout_s=timeout_s)
            report["final_status"] = final.get("status")
            report["resumes"] = int(final.get("resumes") or 0)
            report["completed_steps"] = int(final.get("completed_steps") or 0)
            if final.get("status") == "completed":
                # The first fetch is served from memory; the second from
                # result.rpg alone, which the first left as its only home.
                _job, result = client.job_result(job_id)
                _job, again = client.job_result(job_id)
                report["bit_identical"] = _bit_identical(result, expected)
                report["refetch_identical"] = _bit_identical(again, result)
            else:
                report["bit_identical"] = False
                report["refetch_identical"] = False
                problems.append(
                    f"job ended {final.get('status')!r} after restart: "
                    f"{final.get('error')}")
        finally:
            client.close()
        report["metrics"] = _scrape_metrics(
            host, ports["http"],
            ("repro_job_checkpoints_total", "repro_job_resumes_total",
             "repro_jobs_resident_results"))
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=15)
            except Exception:  # noqa: BLE001 - last resort
                server.kill()
                server.wait(timeout=15)
    report["wall_s"] = time.perf_counter() - started
    report["problems"] = problems
    if owns_dir and not problems and report.get("bit_identical"):
        shutil.rmtree(job_dir, ignore_errors=True)
    return report


def format_job_drill(report: Dict[str, object]) -> str:
    """Human-readable (and CI-greppable) durability-drill report."""
    metrics = dict(report.get("metrics") or {})
    lines = [
        f"job drill {report['benchmark']}: {report['steps']} steps, "
        f"checkpoint every {report['checkpoint_every']} "
        f"({'authenticated ' if report.get('authenticated') else ''}http)",
        f"  killed -9 at {report.get('completed_steps_at_kill')}/"
        f"{report['steps']} steps, restarted with the same --job-dir",
        f"  outcome: status={report.get('final_status')} "
        f"resumes={report.get('resumes')} "
        f"bit_identical={report.get('bit_identical')} "
        f"refetch_identical={report.get('refetch_identical')}",
        f"  metrics: checkpoints_total="
        f"{metrics.get('repro_job_checkpoints_total')} "
        f"resumes_total={metrics.get('repro_job_resumes_total')} "
        f"resident_results={metrics.get('repro_jobs_resident_results')}",
        f"  wall: {float(report.get('wall_s') or 0.0):.1f}s "
        f"(log: {report.get('server_log')})",
    ]
    for problem in report.get("problems") or []:
        lines.append(f"  problem: {problem}")
    return "\n".join(lines)


def check_job_drill(report: Dict[str, object]) -> List[str]:
    """The durability contract (empty = pass)."""
    problems = list(report.get("problems") or [])
    if report.get("final_status") != "completed":
        problems.append(
            f"job did not complete (status {report.get('final_status')!r})")
    if not report.get("bit_identical"):
        problems.append(
            "recovered result is not bit-identical to the uninterrupted run")
    if not report.get("refetch_identical"):
        problems.append(
            "a second fetch of the result is not bit-identical to the first")
    kill_point = int(report.get("completed_steps_at_kill") or 0)
    if not 0 < kill_point < int(report.get("steps") or 0):
        problems.append(
            f"kill point {kill_point} was not mid-trajectory")
    if int(report.get("resumes") or 0) < 1:
        problems.append("job reports zero resumes — it never crashed?")
    metrics = dict(report.get("metrics") or {})
    checkpoints = metrics.get("repro_job_checkpoints_total")
    if checkpoints is None or checkpoints < 1:
        problems.append(
            f"repro_job_checkpoints_total = {checkpoints}, expected >= 1")
    resumes = metrics.get("repro_job_resumes_total")
    if resumes != 1:
        problems.append(
            f"repro_job_resumes_total = {resumes}, expected exactly 1")
    resident = metrics.get("repro_jobs_resident_results")
    if resident != 0:
        problems.append(
            f"repro_jobs_resident_results = {resident}, expected 0: a "
            "served durable result stays in memory")
    return problems


# ---------------------------------------------------------------------------
# The scenario table ``repro loadgen`` drives
# ---------------------------------------------------------------------------


class Scenario(NamedTuple):
    """One ``repro loadgen`` mode, as a row of :data:`SCENARIOS`."""

    name: str
    selected: Callable   # (args) -> bool: the flag that picks this row
    overrides: Callable  # (args) -> the run keywords no flag spells directly
    run: Callable        # run_*(**keywords) -> report
    format: Callable     # format_*(report) -> text
    checks: Dict[str, Callable]  # --assert-* flag -> check(report, args)


#: First match wins; the plain comparison is what no mode flag selects.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        "job-drill", lambda args: args.job_drill,
        lambda args: {"auth_key": args.auth_key or "drill-key",
                      "timeout_s": args.drill_timeout_s},
        run_job_drill, format_job_drill,
        {"assert_job_drill": lambda report, args: check_job_drill(report)}),
    Scenario(
        "chaos", lambda args: args.chaos is not None,
        lambda args: {"chaos": parse_chaos(args.chaos),
                      "shards": args.shards or 2},
        run_chaos_loadgen, format_chaos_loadgen,
        {"assert_chaos": lambda report, args: check_chaos(
            report, p99_ms=args.chaos_p99_ms)}),
    Scenario(
        "mixed", lambda args: args.mix is not None,
        lambda args: {"mix": parse_mix(args.mix)},
        run_mixed_loadgen, format_mixed_loadgen,
        {"assert_no_high_shed":
         lambda report, args: check_no_high_shed(report)}),
    Scenario(
        "plain", lambda args: True,
        lambda args: {"identical": not args.distinct},
        run_loadgen, format_loadgen,
        {"assert_batched": lambda report, args: check_batching(report),
         "assert_sharded": lambda report, args: check_sharding(report)}),
)


def select_scenario(args: argparse.Namespace) -> Scenario:
    return next(scenario for scenario in SCENARIOS if scenario.selected(args))


def scenario_kwargs(scenario: Scenario,
                    args: argparse.Namespace) -> Dict[str, object]:
    """The ``run`` keywords for one parsed command line: every keyword of
    ``scenario.run`` that is also a ``loadgen`` flag takes the flag's value
    (so a scenario honours exactly the flags its signature names), then the
    scenario's ``overrides``."""
    flags = dict(vars(args))
    flags["shape"] = tuple(args.shape) if args.shape else None
    flags["connect"] = None
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        flags["connect"] = (host or "127.0.0.1", int(port))
    kwargs = {name: flags[name]
              for name in inspect.signature(scenario.run).parameters
              if name in flags}
    kwargs.update(scenario.overrides(args))
    return kwargs


__all__ = [
    "CHAOS_ACTIONS",
    "SCENARIOS",
    "Scenario",
    "Target",
    "build_mixed_requests",
    "build_requests",
    "check_batching",
    "check_chaos",
    "check_job_drill",
    "check_no_high_shed",
    "check_sharding",
    "format_chaos_loadgen",
    "format_job_drill",
    "format_loadgen",
    "format_mixed_loadgen",
    "parse_chaos",
    "parse_mix",
    "run_chaos_loadgen",
    "run_job_drill",
    "run_loadgen",
    "run_mixed_loadgen",
    "scenario_kwargs",
    "select_scenario",
]
