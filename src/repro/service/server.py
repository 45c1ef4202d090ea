"""The asyncio execution service: micro-batching server + in-process client.

:class:`StencilService` is a long-lived serving loop for compiled stencil
kernels.  Concurrent requests are collected from an ``asyncio.Queue`` for a
short *batch window* (or until ``max_batch`` arrive), grouped by routing key
— structural digest + per-item input signature + size environment — and each
group is executed as **one** stacked NumPy call through
:meth:`~repro.backend.base.NumpyBackend.run_batched`: one compilation (the
cache is keyed by the per-item signature), one vectorized sweep, N responses.

Requests are routed by structural digest through the
:class:`~repro.service.registry.DigestRouter`: every digest is served by
its program's default lowering.

With ``shards=N`` the numeric work of each group is dispatched round-robin
to N pre-forked worker processes (see :mod:`repro.service.shards`): request
grids travel through shared-memory slabs (no pickling of arrays), programs
cross the process boundary once per (digest, variant) per shard, and groups
on different shards sweep concurrently on a multi-core machine while this
process keeps only admission, batching and I/O.

Every serving counter lives once, in the service's own
:class:`~repro.telemetry.registry.MetricsRegistry` (``service.metrics``):
``stats()`` reads the instruments and ``/metrics`` renders them merged with
the process-wide registry, which keeps only what ``set_metrics_enabled``
gates — the request-path histograms here and the backend's instruments.

:class:`ServiceClient` wraps a service in a background event-loop thread and
exposes blocking ``execute`` / ``execute_many`` calls — the in-process form
used by tests, the experiment drivers and the load generator.
:func:`serve_tcp` exposes the same service as a JSON-lines TCP endpoint for
``repro serve`` / ``repro submit``; :func:`run_server` runs it beside the
HTTP endpoint and the telemetry sidecar, with one :class:`ServedGate`
between the two transports for ``--max-requests`` and the shutdown drain.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import logging
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..apps.base import squeeze_result
from ..backend.base import NumpyBackend
from ..backend.cache import CompilationCache
from ..backend.plan import iterate_generic
from ..core.serialize import SerializationError, program_to_dict
from ..engine.store import ResultsStore
from ..telemetry import registry as _telemetry
from ..telemetry.registry import BATCH_BUCKETS, MetricsRegistry
from ..telemetry.trace import TraceRing
from .executor import batch_capacity, run_trajectory, sweep_group
from .jobs import JobManager
from .metrics import shards_section, stats_report
from .ops import dispatch, refusal
from .registry import DigestCircuitBreaker, DigestRouter, Route
from .requests import (
    DEADLINE_EXCEEDED,
    PRIORITIES,
    REQUEST_TOO_LARGE,
    UNAUTHORIZED,
    UNAVAILABLE,
    ADMISSION_REJECTED,
    BAD_REQUEST,
    ExecutionRequest,
    ExecutionResponse,
    ServiceError,
)
from .shards import ShardedExecutor, ShardUnavailable
from .supervisor import ShardSupervisor, restart_counters

log = logging.getLogger("repro.service")

# Request-path histograms: process-wide (shard processes run their own and
# /metrics merges the snapshots) and gated by set_metrics_enabled like every
# clock on the replay path.  The *counters* are per service: see
# ``StencilService.metrics``.
_REQUEST_LATENCY_SECONDS = _telemetry.histogram(
    "repro_request_latency_seconds",
    "End-to-end request latency (enqueue to response).",
)
_BATCH_SIZE = _telemetry.histogram(
    "repro_batch_size", "Requests per executed micro-batch group.",
    buckets=BATCH_BUCKETS,
)
_SHARD_ROUNDTRIP_SECONDS = _telemetry.histogram(
    "repro_shard_roundtrip_seconds",
    "Wall time of one group's shard dispatch (slab copy, sweep, reply).",
)

#: Upper bound on one TCP request line / HTTP body unless overridden.
DEFAULT_MAX_REQUEST_BYTES = 32 * 1024 * 1024

#: Request traces the ring keeps, and the latency past which one is slow.
TRACE_CAPACITY = 256
TRACE_SLOW_MS = 50.0


@dataclass
class _Pending:
    """One queued request together with its resolved execution plan."""

    request: ExecutionRequest
    route: Route
    key: Tuple
    future: "asyncio.Future[ExecutionResponse]"
    enqueued_at: float = field(default_factory=time.perf_counter)
    admit_ms: float = 0.0
    priority: str = "normal"
    expires_at: Optional[float] = None    # perf_counter deadline, or None


class _PriorityQueues:
    """Three FIFO lanes drained strictly ``high`` → ``normal`` → ``batch``.

    A single wake event replaces ``asyncio.Queue``'s internals: the batcher
    is the only consumer and runs on the loop thread, so pops never race.
    Under pressure (more queued work than one micro-batch can hold) the
    drain order *is* the priority policy — high-class work always reaches a
    batch slot before batch-class work does.
    """

    def __init__(self) -> None:
        self.lanes: Dict[str, deque] = {p: deque() for p in PRIORITIES}
        self._event = asyncio.Event()

    def put(self, item: _Pending) -> None:
        self.lanes[item.priority].append(item)
        self._event.set()

    def get_nowait(self) -> _Pending:
        for priority in PRIORITIES:
            lane = self.lanes[priority]
            if lane:
                item = lane.popleft()
                if self.qsize() == 0:
                    self._event.clear()
                return item
        raise asyncio.QueueEmpty

    async def get(self) -> _Pending:
        while True:
            try:
                return self.get_nowait()
            except asyncio.QueueEmpty:
                self._event.clear()
                await self._event.wait()

    def qsize(self) -> int:
        return sum(len(lane) for lane in self.lanes.values())

    def depth(self, priority: str) -> int:
        return len(self.lanes[priority])

    def empty(self) -> bool:
        return self.qsize() == 0

    def evict_below(self, priority: str) -> Optional[_Pending]:
        """Pop one queued item of a class strictly below ``priority``.

        Victims come from the lowest-priority non-empty lane, oldest first
        (the entry closest to its deadline anyway) — this is how a full
        queue makes room for arriving high-priority work instead of
        bouncing it.
        """
        rank = PRIORITIES.index(priority)
        for lower in reversed(PRIORITIES[rank + 1:]):
            lane = self.lanes[lower]
            if lane:
                return lane.popleft()
        return None

    def drain(self) -> List[_Pending]:
        items: List[_Pending] = []
        for priority in PRIORITIES:
            lane = self.lanes[priority]
            items.extend(lane)
            lane.clear()
        self._event.clear()
        return items


class StencilService:
    """An async, micro-batching execution service over the compiled backend.

    Every group is served through cached execution plans (pooled buffers +
    replayable ``out=`` tapes): one plan per (program structure, input
    shapes), reused across requests, so the steady serving path neither
    re-dispatches nor allocates.  Batched groups copy request grids
    straight into the plan's one pooled stacked buffer set.  Only a
    digest quarantined by the circuit breaker is served without plans.
    The compilation cache (``service.cache``) is the service's own, so its
    stats show one compilation per hot digest; request traces go to a ring
    of :data:`TRACE_CAPACITY` (slow past :data:`TRACE_SLOW_MS`).

    Parameters
    ----------
    store:
        A :class:`~repro.engine.store.ResultsStore`, a path to one, or
        ``None`` — the results store the ``stats()`` report summarises
        (never opened by serving; a missing path reads as unavailable and
        is not created).
    batch_window:
        How long (seconds) the batcher waits for more requests after the
        first one arrives.  A full ``max_batch`` flushes immediately.
    max_batch:
        Upper bound on requests per micro-batch.
    crosscheck:
        Re-execute every batched request individually and require the
        stacked result to be **bit-identical** — the belt-and-braces mode
        the acceptance tests run.  This also cross-checks the plan path
        against the generic compiled path.
    shards:
        ``0`` (default) executes groups on this process's executor
        threads.  ``N >= 1`` pre-forks N shard processes and dispatches
        each group's numeric sweep to one of them round-robin; programs a
        shard cannot receive (unserialisable, e.g. closure-captured
        constant arrays) transparently fall back to in-process execution.
    max_queue_depth:
        Global admission cap: when this many requests are already queued,
        new work is rejected in-band with :data:`ADMISSION_REJECTED` and a
        ``retry_after_ms`` hint instead of queueing unboundedly — except
        that an arriving *higher*-priority request evicts one queued
        lower-priority request to claim its slot.  ``None`` = unbounded
        (the pre-admission-control behaviour).
    max_inflight_per_digest:
        Per-digest admission limit: at most this many requests for one
        structural digest may be admitted-but-unfinished at a time; the
        excess is rejected with ``retry_after_ms``.  Protects the batcher
        from one hot key starving every other digest.  ``None`` = no limit.
    shard_timeout_s:
        Per-round-trip watchdog on shard dispatches: a shard that neither
        replies nor dies within this window is declared failed, its group
        is redispatched, and the supervisor respawns it.  ``None``
        disables the watchdog (dead shards are still detected via pipe
        errors and process liveness).
    supervise:
        Run a :class:`~repro.service.supervisor.ShardSupervisor` alongside
        a sharded service: dead/failed shards are respawned in the
        background (bounded exponential backoff, ``max_respawns`` per
        shard) and re-warmed from the program registry before rejoining
        the rotation.  Ignored when ``shards == 0``.
    max_respawns:
        Per-shard respawn budget for the supervisor.
    breaker_threshold:
        Digest circuit breaker: after this many *consecutive* fast-path
        failures (plan capture, shard dispatch, execution) for one digest,
        quarantine it to the generic unfused local path (the one route
        that serves without plans) for ``breaker_cooldown_s``, then let a
        single half-open probe try the fast path again.  ``0`` disables
        the breaker.
    job_dir:
        Directory for durable-job checkpoints (:mod:`~repro.service.jobs`).
        ``None`` keeps jobs memory-only (no recovery across restarts).
    checkpoint_every:
        Steps per durable-job execution segment — a checkpoint is
        atomically persisted after each segment, and the synchronous
        ``steps > 1`` path re-checks deadlines at the same cadence.
    job_ttl_s:
        How long terminal jobs (and their on-disk results) are retained.
    max_resident_jobs:
        At most this many completed results stay resident in memory;
        older ones drop to disk and reload on demand.
    """

    def __init__(
        self,
        store: Union[ResultsStore, str, None] = None,
        batch_window: float = 0.002,
        max_batch: int = 64,
        crosscheck: bool = False,
        shards: int = 0,
        max_queue_depth: Optional[int] = None,
        max_inflight_per_digest: Optional[int] = None,
        shard_timeout_s: Optional[float] = 30.0,
        supervise: bool = True,
        max_respawns: int = 5,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
        job_dir: Optional[str] = None,
        checkpoint_every: int = 16,
        job_ttl_s: float = 3600.0,
        max_resident_jobs: int = 64,
    ) -> None:
        if max_batch < 1:
            raise ServiceError("max_batch must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ServiceError("max_queue_depth must be >= 1 (or None)")
        if max_inflight_per_digest is not None and max_inflight_per_digest < 1:
            raise ServiceError("max_inflight_per_digest must be >= 1 (or None)")
        self.store = store
        self.registry = DigestRouter()
        self.cache = CompilationCache()
        self.backend = NumpyBackend(cache=self.cache, fallback=False)
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.crosscheck = crosscheck
        self.shards = int(shards or 0)
        self.shard_timeout_s = shard_timeout_s
        self.executor: Optional[ShardedExecutor] = (
            ShardedExecutor(self.shards, timeout_s=shard_timeout_s)
            if self.shards > 0 else None
        )
        self.supervise = bool(supervise)
        self.max_respawns = int(max_respawns)
        self.supervisor: Optional[ShardSupervisor] = None
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_digest = max_inflight_per_digest
        self._wires: Dict[str, Dict] = {}      # (digest:variant) -> wire dict
        self._unshardable: set = set()         # program keys that won't pickle
        self._queues: Optional[_PriorityQueues] = None
        self._digest_inflight: Dict[str, int] = {}
        self._batcher: Optional[asyncio.Task] = None
        self._inflight: set = set()
        #: The one store behind ``stats()`` and ``/metrics`` (see the module
        #: docstring); never disabled, and handed down to the jobs, the
        #: breaker and the supervisor so they count into it too.
        self.metrics = MetricsRegistry()
        counter = self.metrics.counter
        self._requests_total = counter(
            "repro_requests_total", "Requests served to completion.")
        self._request_errors_total = counter(
            "repro_request_errors_total",
            "Requests answered with an in-band error.")
        self._batches_total = counter(
            "repro_batches_total", "Micro-batch groups executed.")
        self._batched_requests_total = counter(
            "repro_batched_requests_total",
            "Requests served inside a batch of two or more.")
        self._shard_fallbacks_total = counter(
            "repro_shard_fallbacks_total",
            "Groups served in-process because their program cannot cross a "
            "shard pipe.")
        self._shard_redispatches_total = counter(
            "repro_shard_redispatches_total",
            "Groups redispatched away from a dead or unresponsive shard.")
        self._quarantined_total = counter(
            "repro_breaker_quarantined_requests_total",
            "Requests served on the generic local path because their digest "
            "is quarantined by an open circuit breaker.")
        #: Admission-control outcomes (separate from request errors so the
        #: error accounting keeps meaning "execution failed").
        self._sheds_total = counter(
            "repro_sheds_total",
            "Requests shed past their deadline instead of executing, by "
            "priority.", label="priority")
        self._rejects_total = counter(
            "repro_rejects_total",
            "Requests pushed back by admission control (429-style) or "
            "refused by a transport before it, by reason.", label="reason")
        # Declared here so an unsharded /metrics lists them at zero; the
        # supervisor binds the same two when a sharded service starts one.
        self._shard_restarts_total, _ = restart_counters(self.metrics)
        self.breakers = DigestCircuitBreaker(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s,
            metrics=self.metrics)
        # Kept in one place each, as plain attributes (stats() only).
        self.largest_batch = 0
        self.crosschecks_passed = 0
        self.plans_prewarmed = 0
        #: Request-lifecycle traces (``repro trace`` / the /trace route).
        self.tracer = TraceRing(capacity=TRACE_CAPACITY, slow_ms=TRACE_SLOW_MS)
        #: Durable multi-timestep jobs: checkpointed execution + recovery.
        self.checkpoint_every = int(checkpoint_every)

        def resolve_job(benchmark, _shape, _size_env):
            route = self._route(benchmark, None)
            return route.program, route.carry, route.digest

        self.jobs = JobManager(
            backend=self.backend,
            resolve=resolve_job,
            job_dir=job_dir,
            checkpoint_every=checkpoint_every,
            job_ttl_s=job_ttl_s,
            max_resident=max_resident_jobs,
            metrics=self.metrics,
        )
        self._register_gauges()

    def _route(self, benchmark: Optional[str], program) -> Route:
        """The one routing decision: admission, pre-warming and durable
        jobs all resolve through here, so a prewarmed plan is the plan live
        traffic hits and a resumed job replays the identical program."""
        return self.registry.plan_for(benchmark=benchmark, program=program)

    def _register_gauges(self) -> None:
        """The live gauges, sampled from this instance at scrape time."""
        gauge = self.metrics.gauge

        def depth(priority: Optional[str] = None) -> int:
            if self._queues is None:
                return 0
            return (self._queues.qsize() if priority is None
                    else self._queues.depth(priority))

        gauge("repro_queue_depth",
              "Requests admitted but not yet batch-formed.", fn=depth)
        for priority in PRIORITIES:
            gauge(f"repro_queue_depth_{priority}",
                  f"Queued {priority}-priority requests awaiting a batch slot.",
                  fn=lambda priority=priority: depth(priority))
        for stat in ("hits", "misses", "evictions", "entries"):
            gauge(f"repro_service_compilation_cache_{stat}",
                  f"Service compilation cache {stat}.",
                  fn=lambda stat=stat: self.cache.stats()[stat])
            gauge(f"repro_plan_cache_{stat}", f"Service plan cache {stat}.",
                  fn=lambda stat=stat: self.backend.plans.stats()[stat])

    @property
    def requests_served(self) -> int:
        return self._requests_total.value

    @property
    def sheds(self) -> Dict[str, int]:
        """Deadline sheds by priority."""
        return {priority: self._sheds_total.values.get(priority, 0)
                for priority in PRIORITIES}

    @property
    def rejects(self) -> Dict[str, int]:
        """Refusals by reason: admission control's and the transports'."""
        return dict(self._rejects_total.values)

    def count_reject(self, reason: str) -> None:
        """One request a transport refused before admission saw it
        (``unauthorized``, ``too_large``)."""
        self._rejects_total.inc(label=reason)

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "StencilService":
        if self._batcher is not None:
            raise ServiceError("service already started")
        self._queues = _PriorityQueues()
        self._batcher = asyncio.get_running_loop().create_task(self._batch_loop())
        if self.executor is not None and self.supervise:
            self.supervisor = ShardSupervisor(
                self.executor, self._wires, max_respawns=self.max_respawns,
                metrics=self.metrics)
            self.supervisor.start()
        # Durable-job recovery: resume incomplete jobs from their newest
        # valid checkpoint before traffic arrives (disk scan off the loop).
        resumed = await asyncio.get_running_loop().run_in_executor(
            None, self.jobs.recover
        )
        if resumed:
            log.info("resumed %d incomplete durable job(s)", resumed)
        return self

    async def stop(self) -> None:
        if self.supervisor is not None:
            await self.supervisor.stop()
            self.supervisor = None
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._inflight:
            # Sharded groups are dispatched as tasks; let in-flight sweeps
            # finish (their callers are still awaiting futures).
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        if self._queues is not None:
            # Requests admitted but never executed must not hang their
            # callers: fail them in-band.
            self._fail_group(self._queues.drain(), "service stopped",
                             code=UNAVAILABLE)
        await asyncio.get_running_loop().run_in_executor(
            None, self.jobs.close
        )
        if self.executor is not None:
            # Blocking pipe shutdowns; keep them off the event loop.
            await asyncio.get_running_loop().run_in_executor(
                None, self.executor.close
            )
            self.executor = None

    async def __aenter__(self) -> "StencilService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- pre-warming -----------------------------------------------------------
    def prewarm(self, requests: Sequence[ExecutionRequest],
                batch_capacities: Sequence[int] = ()) -> Dict[str, int]:
        """Capture execution plans for these requests off the request path.

        For each request the routing decision is resolved through the
        router exactly as admission would, the program's execution plan
        (optimized, fused tape) is compiled into the plan cache and its tape
        captured with one real sweep — so the first *single* live request
        for the same (digest, shapes) pays a pure tape replay instead of
        ``plan_build_s``.  ``batch_capacities`` additionally captures the
        *batched* plans micro-batching routes groups through (capacities
        are rounded up to the powers of two the batcher keys plans by), so
        the first live micro-batch is warm too; it defaults to empty
        because a capacity-``C`` plan holds ``C`` stacked copies of every
        buffer — warm exactly the capacities your traffic reaches.  Pure
        backend/registry work, safe to run from any thread before (or
        while) the service loop is serving; typically invoked by ``repro
        serve --prewarm`` between bind and listen.  Returns
        ``{"prewarmed": n, "skipped": m}`` counting per (request ×
        capacity) plan — skipped entries cannot be captured as plans (they
        will be served by the generic path anyway).  In sharded mode the
        same warm-up runs on **every** shard process instead (each shard
        owns its own plan cache), counting one entry per (request ×
        capacity × shard).
        """
        capacities = sorted(
            {1, *(batch_capacity(int(size)) for size in batch_capacities)})
        prepared = 0
        skipped = 0
        for request in requests:
            try:
                route = self._route(request.benchmark, request.program)
            except Exception:  # noqa: BLE001 - prewarm is best-effort
                skipped += 1
                continue
            size_env = request.size_env or None
            wire = (self._wire_for(route)
                    if self.executor is not None else None)
            # One loop over "each shard, or the local backend" (which also
            # serves programs that cannot cross a shard pipe): both warm
            # through the sweep live groups take, so the plan-cache keys
            # are the ones traffic will hit.
            for shard in (self.executor.handles if wire is not None
                          else [None]):
                for capacity in capacities:
                    parts = [request.inputs] * capacity
                    try:
                        if shard is None:
                            _rows, timings = sweep_group(
                                self.backend, route.program, parts, size_env,
                                use_plans=True)
                            warmed = not timings.get("plan_fallback")
                        else:
                            shard.execute(route.key, wire, size_env, parts)
                            warmed = True
                    except Exception:  # noqa: BLE001 - prewarm is best-effort
                        warmed = False
                    prepared += warmed
                    skipped += not warmed
        self.plans_prewarmed += prepared
        return {"prewarmed": prepared, "skipped": skipped}

    # -- the request path ------------------------------------------------------
    async def submit(self, request: ExecutionRequest) -> ExecutionResponse:
        """Serve one request (awaits its micro-batch's execution).

        Admission order: resolve the routing plan, then apply admission
        control — an already-expired deadline is shed, a full queue or a
        saturated digest is rejected with a ``retry_after_ms`` hint (a
        high-priority arrival instead evicts one queued lower-priority
        request) — and only then does the request join its priority lane.
        """
        if self._queues is None:
            raise ServiceError("service is not started")
        started = time.perf_counter()
        try:
            pending = self._admit(request)
        except Exception as error:  # bad request: respond in-band
            self._request_errors_total.inc()
            return ExecutionResponse(
                result=None, benchmark=request.benchmark, digest="",
                variant="", plan_source="", batch_size=0, batched=False,
                latency_s=time.perf_counter() - started,
                error=f"{type(error).__name__}: {error}",
                code=BAD_REQUEST,
            )
        pending.admit_ms = (time.perf_counter() - started) * 1e3
        rejection = self._admission_control(pending)
        if rejection is not None:
            return rejection
        self._track_inflight(pending)
        self._queues.put(pending)
        return await pending.future

    def _admit(self, request: ExecutionRequest) -> _Pending:
        route = self._route(request.benchmark, request.program)
        signature = tuple(
            (grid.shape, str(grid.dtype)) for grid in request.inputs
        )
        key = (route.digest, signature,
               tuple(sorted(request.size_env.items())), request.steps)
        loop = asyncio.get_running_loop()
        pending = _Pending(
            request=request, route=route, key=key,
            future=loop.create_future(), priority=request.priority,
        )
        if request.deadline_ms is not None:
            pending.expires_at = pending.enqueued_at + request.deadline_ms / 1e3
        return pending

    # -- admission control -----------------------------------------------------
    def _admission_control(
        self, pending: _Pending
    ) -> Optional[ExecutionResponse]:
        """Shed/reject before queueing; ``None`` admits the request."""
        if self._expired(pending):
            # A dead-on-arrival deadline can never be served; don't let it
            # occupy a queue slot at all.
            self._shed(pending)
            return pending.future.result()
        if (
            self.max_inflight_per_digest is not None
            and self._digest_inflight.get(pending.route.digest, 0)
            >= self.max_inflight_per_digest
        ):
            self._reject(pending, "digest_limit")
            return pending.future.result()
        if (
            self.max_queue_depth is not None
            and self._queues.qsize() >= self.max_queue_depth
        ):
            victim = self._queues.evict_below(pending.priority)
            if victim is None:
                self._reject(pending, "queue_full")
                return pending.future.result()
            # Backpressure with priority: the queued lower-class request is
            # pushed back (it can retry) so the higher-class arrival gets
            # the slot.  High work is therefore never the eviction victim
            # while any lower-class work remains queued.
            self._reject(victim, "evicted")
        return None

    def _expired(self, pending: _Pending) -> bool:
        return (pending.expires_at is not None
                and time.perf_counter() >= pending.expires_at)

    def _retry_after_ms(self) -> float:
        """A backoff hint scaled by how far behind the batcher is."""
        depth = self._queues.qsize() if self._queues is not None else 0
        backlog_batches = 1 + depth / max(1, self.max_batch)
        return max(1.0, self.batch_window * 1e3 * backlog_batches)

    def _shed(self, pending: _Pending, reason: Optional[str] = None) -> None:
        """Resolve one request with the structured DeadlineExceeded form."""
        if pending.future.done():
            return
        now = time.perf_counter()
        self._sheds_total.inc(label=pending.priority)
        waited_ms = (now - pending.enqueued_at) * 1e3
        deadline_ms = pending.request.deadline_ms
        reason = reason or (
            f"deadline of {deadline_ms:.0f} ms exceeded after "
            f"{waited_ms:.1f} ms in queue" if deadline_ms is not None
            else "shed before execution"
        )
        self._record_trace(pending, 0, {}, now, now, error=reason)
        self._answer(pending, now, 0, error=reason, code=DEADLINE_EXCEEDED)

    def _reject(self, pending: _Pending, reason: str) -> None:
        """Resolve one request with 429-style backpressure (+ retry hint)."""
        if pending.future.done():
            return
        now = time.perf_counter()
        self._rejects_total.inc(label=reason)
        retry_after = self._retry_after_ms()
        detail = {
            "queue_full": f"queue depth cap {self.max_queue_depth} reached",
            "digest_limit": (
                f"per-digest admission limit {self.max_inflight_per_digest} "
                f"reached for {pending.route.digest[:12]}"
            ),
            "evicted": (
                f"evicted from a full queue (depth cap {self.max_queue_depth})"
                " by higher-priority work"
            ),
        }.get(reason, reason)
        self._record_trace(pending, 0, {}, now, now, error=detail)
        self._answer(pending, now, 0, error=detail, code=ADMISSION_REJECTED,
                     retry_after_ms=retry_after)

    def _track_inflight(self, pending: _Pending) -> None:
        digest = pending.route.digest
        self._digest_inflight[digest] = (
            self._digest_inflight.get(digest, 0) + 1
        )
        pending.future.add_done_callback(
            lambda _future: self._release_inflight(digest)
        )

    def _release_inflight(self, digest: str) -> None:
        count = self._digest_inflight.get(digest, 0) - 1
        if count <= 0:
            self._digest_inflight.pop(digest, None)
        else:
            self._digest_inflight[digest] = count

    def shed_queued(self, reason: str = "drain deadline reached") -> int:
        """Shed every still-queued request with DeadlineExceeded (drain)."""
        if self._queues is None:
            return 0
        items = self._queues.drain()
        for item in items:
            self._shed(item, reason=reason)
        return len(items)

    # -- the batcher -----------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._queues is not None
        while True:
            pending: List[_Pending] = []
            try:
                pending.append(await self._queues.get())
                loop = asyncio.get_running_loop()
                deadline = loop.time() + self.batch_window
                while len(pending) < self.max_batch:
                    if not self._queues.empty():
                        pending.append(self._queues.get_nowait())
                        continue
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        pending.append(
                            await asyncio.wait_for(self._queues.get(), timeout)
                        )
                    except asyncio.TimeoutError:
                        break
                # Shed work whose deadline expired while queued — an expired
                # request never occupies a batch slot, let alone executes.
                live = []
                for item in pending:
                    if self._expired(item):
                        self._shed(item)
                    else:
                        live.append(item)
                pending = live
                groups: Dict[Tuple, List[_Pending]] = {}
                for item in pending:
                    groups.setdefault(item.key, []).append(item)
                if self.executor is not None:
                    # Sharded: dispatch each group as its own task so this
                    # loop returns to collecting the next micro-batch while
                    # shards sweep — successive groups round-robin onto
                    # different shard processes and overlap in time.
                    for group in groups.values():
                        task = loop.create_task(self._execute_group(group))
                        self._inflight.add(task)
                        task.add_done_callback(self._inflight.discard)
                else:
                    for group in groups.values():
                        await self._execute_group(group)
            except asyncio.CancelledError:
                # A half-collected batch must not strand its callers.
                self._fail_group(pending, "service stopped")
                raise
            except Exception as error:  # noqa: BLE001 - batcher must survive
                # _execute_group reports execution errors in-band; anything
                # reaching here is a bug, but one bad batch must not brick
                # the long-lived serving loop for every later request.
                self._fail_group(pending, f"{type(error).__name__}: {error}")

    async def _execute_group(self, group: List[_Pending]) -> None:
        """One compile, one vectorized sweep, ``len(group)`` responses.

        The numeric sweep runs on an executor thread so the event loop —
        the TCP readers, stats/ping ops, and admission of further requests
        — stays responsive while a batch executes.  Counters and futures
        are only touched back on the loop.
        """
        # Last line of defence: a deadline may expire between batch
        # formation and this dispatch (sharded groups run as tasks).
        expired = [item for item in group if self._expired(item)]
        if expired:
            for item in expired:
                self._shed(item)
            group = [item for item in group if not item.future.done()]
            if not group:
                return
        size = len(group)
        digest = group[0].route.digest
        loop = asyncio.get_running_loop()
        formed_at = time.perf_counter()
        try:
            outputs, crosschecked, timings = await loop.run_in_executor(
                None, self._compute_group, group
            )
        except Exception as error:  # noqa: BLE001 - reported in-band per request
            self._breaker_outcome(digest,
                                  failure=f"{type(error).__name__}: {error}")
            self._fail_group(group, f"{type(error).__name__}: {error}")
            return
        if timings.get("quarantined"):
            pass  # served on the quarantine route: no breaker evidence
        elif timings.get("plan_fallback"):
            self._breaker_outcome(digest, failure="plan capture")
        elif timings.get("redispatches"):
            self._breaker_outcome(digest, failure="shard dispatch")
        else:
            self._breaker_outcome(digest, failure=None)
        executed_at = time.perf_counter()
        self._batches_total.inc()
        _BATCH_SIZE.observe(size)
        self.largest_batch = max(self.largest_batch, size)
        if size > 1:
            self._batched_requests_total.inc(size)
        self.crosschecks_passed += crosschecked
        now = time.perf_counter()
        for item, output in zip(group, outputs):
            if item.future.done():
                # The caller gave up (e.g. wait_for cancelled the submit);
                # its slot in the sweep is discarded, everyone else's stands.
                continue
            if isinstance(output, str):
                # A trajectory stop reason (expired at a segment boundary):
                # structured shed, not a result (and not a served request).
                self._shed(item, reason=output)
                continue
            self._answer(
                item, now, size,
                result=output if item.request.return_result else None)
            self._requests_total.inc()
            _REQUEST_LATENCY_SECONDS.observe(
                (now - item.enqueued_at) + item.admit_ms * 1e-3
            )
            self._record_trace(item, size, timings, formed_at, executed_at)

    def _breaker_outcome(self, digest: str,
                         failure: Optional[str]) -> None:
        """Feed one group's fast-path outcome to the digest breaker."""
        if failure is None:
            self.breakers.record_success(digest)
        elif self.breakers.record_failure(digest, reason=failure):
            log.warning("circuit breaker opened for digest %s (%s)",
                        digest[:12], failure)

    def _record_trace(self, item: _Pending, size: int,
                      timings: Dict[str, object], formed_at: float,
                      executed_at: float,
                      error: Optional[str] = None) -> None:
        """File one request's per-stage breakdown into the trace ring."""
        done = time.perf_counter()
        stages: List[Tuple[str, float]] = [
            ("admit", item.admit_ms),
            ("queue", (formed_at - item.enqueued_at) * 1e3),
        ]
        for stage in ("plan_resolve", "replay", "shard_roundtrip"):
            value = timings.get(f"{stage}_ms")
            if value is not None:
                stages.append((stage, float(value)))  # type: ignore[arg-type]
        stages.append(("respond", (done - executed_at) * 1e3))
        self.tracer.record({
            "benchmark": item.route.benchmark,
            "digest": item.route.digest,
            "variant": item.route.variant,
            "batch_size": size,
            "total_ms": item.admit_ms + (done - item.enqueued_at) * 1e3,
            "stages": stages,
            "shard": timings.get("shard"),
            "redispatches": timings.get("redispatches"),
            "quarantined": timings.get("quarantined"),
            "error": error,
        })

    def _compute_group(
        self, group: List[_Pending]
    ) -> Tuple[List, int, Dict[str, object]]:
        """The pure numeric part of a batch (runs on an executor thread).

        Only *routes* the group — trajectories, shard dispatch or local
        sweep; how it executes is :mod:`repro.service.executor`'s.  Returns
        ``(outputs, crosschecked, timings)``.  An output slot holds the
        request's grid, or the stop-reason string of a trajectory shed at
        a segment boundary.  ``timings`` carries the execute-phase stages
        the trace ring files (``plan_resolve_ms`` / ``replay_ms`` locally,
        ``shard_roundtrip_ms`` + ``shard`` when dispatched) and the breaker
        evidence (``plan_fallback``, ``redispatches``, ``quarantined``).
        """
        head = group[0]
        parts = [item.request.inputs for item in group]
        size_env = head.request.size_env or None
        quarantined = not self.breakers.allow(head.route.digest)
        use_plans = not quarantined
        if quarantined:
            # Quarantined digest: skip plan capture and shard dispatch
            # entirely — the generic unfused local path is the one thing
            # that has not been failing for it.  The breaker's half-open
            # probe (which `allow` admits) is what retries the fast path.
            self._quarantined_total.inc(len(group))
        swept = None
        if head.request.steps > 1:
            # Iterative requests run locally: the shard wire ships single
            # sweeps only.
            swept = self._run_trajectories(group, size_env, use_plans)
        elif self.executor is not None and not quarantined:
            swept = self._dispatch_sharded(head.route, parts, size_env)
            if swept is None:
                self._shard_fallbacks_total.inc()
        if swept is None:
            swept = sweep_group(self.backend, head.route.program, parts,
                                size_env, use_plans)
        rows, timings = swept
        crosschecked = 0
        if self.crosscheck and (len(group) > 1 or head.request.steps > 1):
            crosschecked = self._crosscheck(group, rows)
        if quarantined:
            timings["quarantined"] = True
        return (
            [row if isinstance(row, str)
             else squeeze_result(np.asarray(row, dtype=np.float64))
             for row in rows],
            crosschecked,
            timings,
        )

    def _run_trajectories(
        self, group: List[_Pending], size_env, use_plans: bool
    ) -> Tuple[List, Dict[str, object]]:
        """One T-step trajectory per request (the group shares its plan).

        Without a deadline a trajectory is one monolithic plan loop.  With
        one, it runs in ``checkpoint_every``-step segments (the cadence
        durable jobs checkpoint at) and is stopped at the first boundary
        past the deadline instead of burning its remaining steps — its row
        is then the reason the response loop sheds it with.
        """
        steps = group[0].request.steps
        timings: Dict[str, object] = {}
        rows = []
        started = time.perf_counter()
        for item in group:
            def expired(done: int, _state) -> Optional[str]:
                if self._expired(item):
                    return (f"deadline exceeded mid-trajectory after "
                            f"{done}/{steps} steps")
                return None

            out, _done, stopped, fallback = run_trajectory(
                self.backend, item.route.program, item.request.inputs, steps,
                item.route.carry, size_env, use_plans, boundary=expired,
                segment=(self.checkpoint_every
                         if item.expires_at is not None else None))
            rows.append(out if stopped is None else stopped)
            timings.update(fallback)
        timings["replay_ms"] = (time.perf_counter() - started) * 1e3
        return rows, timings

    def _dispatch_sharded(
        self, route: Route, parts: List, size_env
    ) -> Optional[Tuple[List, Dict[str, object]]]:
        """Sweep one group on a shard process; ``None`` = serve locally.

        The program crosses the pipe once per (digest, variant) per shard;
        request grids go through the shard's shared-memory input slabs.
        """
        wire = self._wire_for(route)
        if wire is None:
            return None
        redispatches = 0
        dispatched = time.perf_counter()
        while True:
            shard = self.executor.pick()
            if shard is None:
                # Whole fleet down: the local path absorbs the group while
                # the supervisor restores capacity.
                return None
            try:
                rows = shard.execute(route.key, wire, size_env, parts)
                break
            except ShardUnavailable as error:
                # The reply never arrived, so nothing was delivered for
                # this group — re-executing it on a surviving shard (or
                # locally) is idempotent.  `execute` already marked the
                # shard failed; the supervisor respawns it in the
                # background.
                redispatches += 1
                self._shard_redispatches_total.inc()
                log.warning(
                    "redispatching group (digest %s, %d requests): %s",
                    route.digest[:12], len(parts), error)
                if redispatches > len(self.executor.handles):
                    return None
        roundtrip = time.perf_counter() - dispatched
        _SHARD_ROUNDTRIP_SECONDS.observe(roundtrip)
        timings: Dict[str, object] = {
            "shard_roundtrip_ms": roundtrip * 1e3, "shard": shard.index,
        }
        if redispatches:
            timings["redispatches"] = redispatches
        return rows, timings

    def _wire_for(self, route: Route) -> Optional[Dict]:
        """The program's cross-process wire dict, serialised once per
        (digest, variant).  ``None`` for programs the wire format cannot
        express (e.g. closure-captured constant arrays): remembered in
        ``_unshardable`` and served in-process."""
        if route.key in self._unshardable:
            return None
        wire = self._wires.get(route.key)
        if wire is None:
            try:
                wire = program_to_dict(route.program)
            except SerializationError:
                self._unshardable.add(route.key)
                return None
            self._wires[route.key] = wire
        return wire

    def _crosscheck(self, group: List[_Pending], outputs: List) -> int:
        """Require every served grid to be bit-identical to its request
        re-executed alone through the generic per-sweep loop (batching,
        plans, shards and trajectory segmentation must not change a bit)."""
        checked = 0
        for item, output in zip(group, outputs):
            if isinstance(output, str):
                continue  # shed mid-trajectory: no result to compare
            reference = iterate_generic(
                self.backend, item.route.program, item.request.inputs,
                item.request.steps, carry=item.route.carry,
                size_env=item.request.size_env or None)
            if not np.array_equal(np.asarray(output), reference):
                raise ServiceError(
                    f"served result diverges from per-request generic "
                    f"execution for digest {item.route.digest[:12]}"
                )
            checked += 1
        return checked

    def _fail_group(self, group: List[_Pending], reason: str,
                    code: Optional[str] = None) -> None:
        now = time.perf_counter()
        for item in group:
            if not item.future.done():
                self._request_errors_total.inc()
                self._record_trace(item, len(group), {}, now, now,
                                   error=reason)
                self._answer(item, now, len(group), error=reason, code=code)

    @staticmethod
    def _answer(item: _Pending, now: float, size: int, result=None,
                **outcome) -> None:
        """Resolve one request's future: every response — served, shed,
        rejected or failed — carries the same routing facts.  Every route
        serves the default lowering, so ``plan_source`` is always
        ``"default"``."""
        item.future.set_result(ExecutionResponse(
            result=result, benchmark=item.route.benchmark,
            digest=item.route.digest, variant=item.route.variant,
            plan_source="default", batch_size=size,
            batched=size > 1, latency_s=now - item.enqueued_at, **outcome))

    # -- stats -----------------------------------------------------------------
    def service_section(self) -> Dict[str, object]:
        """The serving counters, read from :attr:`metrics`."""
        return {
            "requests_served": self._requests_total.value,
            "batches_formed": self._batches_total.value,
            "batched_requests": self._batched_requests_total.value,
            "largest_batch": self.largest_batch,
            "crosschecks_passed": self.crosschecks_passed,
            "request_errors": self._request_errors_total.value,
            "plans_prewarmed": self.plans_prewarmed,
            "shard_fallbacks": self._shard_fallbacks_total.value,
            "shard_redispatches": self._shard_redispatches_total.value,
            "shard_restarts": self._shard_restarts_total.value,
            "supervisor": (self.supervisor.stats()
                           if self.supervisor is not None else None),
            "breakers": {
                "quarantined_requests": self._quarantined_total.value,
                **self.breakers.stats(),
            },
            "admission": {
                "sheds": self.sheds,
                "rejects": self.rejects,
                "queue_depth": {
                    priority: (self._queues.depth(priority)
                               if self._queues is not None else 0)
                    for priority in PRIORITIES
                },
                "inflight_digests": len(self._digest_inflight),
                "max_queue_depth": self.max_queue_depth,
                "max_inflight_per_digest": self.max_inflight_per_digest,
            },
            "registry": self.registry.stats(),
            "jobs": self.jobs.stats(),
            "plans": self.backend.plans.stats(),
            "shards": (
                shards_section(self.executor.stats())
                if self.executor is not None else None
            ),
        }

    def stats(self) -> Dict[str, object]:
        """The combined ``/metrics``-style report (see :mod:`.metrics`)."""
        return stats_report(
            cache=self.cache,
            store=self.store,
            service=self.service_section(),
        )


class ServiceClient:
    """Blocking, thread-safe client running a service on a background loop.

    ``execute_many`` submits all requests concurrently — this is what lets
    the batcher stack them into micro-batches — and returns responses in
    request order.
    """

    def __init__(self, service: StencilService) -> None:
        self.service = service
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        self._run(service.start())

    def _run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    def execute(self, request: ExecutionRequest,
                raise_on_error: bool = True) -> ExecutionResponse:
        return self.execute_many([request], raise_on_error=raise_on_error)[0]

    def execute_many(self, requests: Sequence[ExecutionRequest],
                     raise_on_error: bool = True) -> List[ExecutionResponse]:
        async def submit_all() -> List[ExecutionResponse]:
            return list(
                await asyncio.gather(
                    *[self.service.submit(request) for request in requests]
                )
            )

        responses = self._run(submit_all())
        if raise_on_error:
            for response in responses:
                if not response.ok:
                    raise ServiceError(response.error)
        return responses

    def stats(self) -> Dict[str, object]:
        return self.service.stats()

    def close(self) -> None:
        self._run(self.service.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._loop.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The TCP endpoint (JSON lines)
# ---------------------------------------------------------------------------

class ServedGate:
    """What the endpoints of one server share: the ``--max-requests`` count
    and the set of open connections the shutdown drain waits on.

    One gate serves the TCP and HTTP endpoints, so ``max_requests`` bounds
    *total* traffic and an in-flight request is drained whichever transport
    carried it.  ``None`` max never resolves by count (serve forever).
    """

    def __init__(self, max_requests: Optional[int] = None) -> None:
        self.max_requests = max_requests
        self.count = 0
        self.done: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )
        #: The ``StreamWriter`` of every open connection, either transport:
        #: a handler adds its writer on accept and discards it once closed.
        self.connections: set = set()

    def mark(self) -> None:
        self.count += 1
        if self.max_requests is not None and self.count >= self.max_requests:
            self.resolve()

    def resolve(self) -> None:
        """Serving is done: by count, or early on a shutdown signal."""
        if not self.done.done():
            self.done.set_result(None)

    async def drain(self, timeout_s: float) -> bool:
        """Wait, bounded, for every open connection to finish; whether
        they all did."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout_s)
        while self.connections and loop.time() < deadline:
            await asyncio.sleep(0.05)
        return not self.connections

    def close_connections(self) -> None:
        """Hang up on whoever is still connected (``Server.wait_closed``
        waits for every connection since Python 3.12)."""
        for writer in list(self.connections):
            writer.close()


async def serve_tcp(
    service: StencilService,
    host: str = "127.0.0.1",
    port: int = 7457,
    max_requests: Optional[int] = None,
    auth_key: Optional[str] = None,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    gate: Optional[ServedGate] = None,
) -> "asyncio.AbstractServer":
    """Expose a started service as a JSON-lines TCP endpoint.

    A codec in front of :func:`repro.service.ops.dispatch`: ``line →
    (op, message) → dispatch → line``; a line with no ``"op"`` is an
    ``execute``.  One JSON object per line in, one per line out; each
    carries the
    client's ``id`` back so requests on one connection can be pipelined
    (responses may arrive out of submission order).  ``max_requests``
    closes the server after that many ``execute`` ops — used by smoke
    tests to bound a ``repro serve`` process.

    ``auth_key`` (when set) requires every non-ping message to carry a
    matching ``"auth"`` field; ``max_request_bytes`` bounds one request
    line — an oversized line gets an in-band ``RequestTooLarge`` error and
    the connection closes (a JSON-lines stream cannot resync mid-line).
    """
    if gate is None:
        gate = ServedGate(max_requests)

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        # Only in-flight answer tasks are retained; completed ones discard
        # themselves so a long-lived pipelined connection stays O(in-flight).
        tasks: set = set()

        async def write_line(reply: Dict[str, object]) -> None:
            async with write_lock:
                writer.write((json.dumps(reply) + "\n").encode("utf-8"))
                await writer.drain()

        async def answer(message: Dict[str, object]) -> None:
            op = str(message.get("op", "execute"))
            if (auth_key is not None and op != "ping"
                    and not hmac.compare_digest(
                        str(message.get("auth") or ""), auth_key)):
                service.count_reject("unauthorized")
                answered = refusal(UNAUTHORIZED,
                                   "missing or invalid auth key")
            else:
                answered = await dispatch(service, op, message)
            # A result grid becomes JSON lists off the loop.
            reply = (answered.meta if answered.grid is None
                     else await loop.run_in_executor(None, answered.wire))
            if "id" in message:
                reply["id"] = message["id"]
            await write_line(reply)
            if op == "execute":
                gate.mark()

        loop = asyncio.get_running_loop()
        gate.connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # One line exceeded max_request_bytes.  Report in-band
                    # and close: the rest of the oversized line is still in
                    # the socket, so the stream cannot be resynchronised.
                    service.count_reject("too_large")
                    await write_line(refusal(
                        REQUEST_TOO_LARGE,
                        f"request line exceeds {max_request_bytes} bytes",
                    ).meta)
                    break
                if not line:
                    break
                text = line.decode("utf-8", "replace").strip()
                if not text:
                    continue
                try:
                    message = json.loads(text)
                except json.JSONDecodeError:
                    message = None
                if not isinstance(message, dict):
                    await write_line(refusal(
                        BAD_REQUEST,
                        "invalid JSON" if message is None
                        else "a request line must be a JSON object",
                    ).meta)
                    continue
                task = asyncio.ensure_future(answer(message))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            gate.connections.discard(writer)

    return await asyncio.start_server(handle, host, port,
                                      limit=max_request_bytes)


def run_server(
    host: str = "127.0.0.1",
    port: int = 7457,
    max_requests: Optional[int] = None,
    ready_event: Optional[threading.Event] = None,
    prewarm: Optional[Sequence[ExecutionRequest]] = None,
    prewarm_batch: Sequence[int] = (),
    metrics_port: Optional[int] = None,
    http_port: Optional[int] = None,
    auth_key: Optional[str] = None,
    drain_timeout: float = 10.0,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    **service_kwargs,
) -> Dict[str, object]:
    """Start a service + TCP endpoint and serve until done (blocking).

    Runs until ``max_requests`` execute ops were served (when given) or the
    loop is interrupted.  Returns the final stats report.  ``ready_event``
    is set once the socket is listening — used by in-process smoke tests.
    ``prewarm`` requests have their plans captured *before* the endpoint
    starts accepting connections (``prewarm_batch`` capacities warm the
    batched plans too), so prewarmed traffic never pays a plan build.
    ``metrics_port`` additionally binds the telemetry HTTP sidecar
    (``/metrics`` + ``/healthz`` + ``/trace``) on the same host;
    ``http_port`` binds the ``/v1/execute``·``/v1/iterate`` HTTP endpoint
    sharing the same batcher.  ``auth_key`` guards both transports.
    ``drain_timeout`` bounds the shutdown drain, on both transports: the
    server waits that long for open connections (a request still
    executing, a pipelined trailing op) to finish; requests still queued
    when it expires are shed with ``DeadlineExceeded`` responses instead
    of the connection being dropped mid-flight, and whoever is still
    connected after that is hung up on.
    """
    stats: Dict[str, object] = {}

    async def main() -> None:
        from ..telemetry.httpd import TelemetryHTTP
        from .http import serve_http

        service = StencilService(**service_kwargs)
        async with service:
            telemetry_http = None
            if metrics_port is not None:
                telemetry_http = await TelemetryHTTP(service).start(
                    host, metrics_port
                )
            if prewarm:
                warmed = await asyncio.get_running_loop().run_in_executor(
                    None, lambda: service.prewarm(
                        list(prewarm), batch_capacities=prewarm_batch
                    )
                )
                log.info("prewarmed %d plans (%d skipped)",
                         warmed["prewarmed"], warmed["skipped"])
            # One gate across both endpoints: --max-requests bounds total
            # traffic, and the drain below waits on either's connections.
            gate = ServedGate(max_requests)
            endpoints = [await serve_tcp(
                service, host, port, auth_key=auth_key,
                max_request_bytes=max_request_bytes, gate=gate)]
            if http_port is not None:
                endpoints.append(await serve_http(
                    service, host, http_port, auth_key=auth_key,
                    max_request_bytes=max_request_bytes, gate=gate))
                log.info("http endpoint on %s:%d", host, http_port)
            try:
                if ready_event is not None:
                    ready_event.set()
                log.info("serving on %s:%d", host, port)
                # SIGTERM/SIGINT resolve the gate instead of killing the
                # process mid-batch: the same bounded drain that follows
                # --max-requests runs, so in-flight work is answered and
                # stragglers are shed in-band.  Handler installation fails
                # off the main thread (in-process smoke tests) — fine, the
                # gate then only resolves via mark().
                loop = asyncio.get_running_loop()

                def request_drain(signame: str) -> None:
                    log.info("received %s; draining and shutting down",
                             signame)
                    gate.resolve()

                installed: List[int] = []
                for signame in ("SIGTERM", "SIGINT"):
                    signum = getattr(signal, signame, None)
                    if signum is None:
                        continue
                    try:
                        loop.add_signal_handler(
                            int(signum), request_drain, signame)
                        installed.append(int(signum))
                    except (NotImplementedError, RuntimeError, ValueError):
                        pass
                try:
                    # With --max-requests the gate resolves at the quota;
                    # without it, only a shutdown signal resolves it
                    # (serve forever).
                    await gate.done
                finally:
                    for signum in installed:
                        loop.remove_signal_handler(signum)
                # Drain: a request may still be executing, and clients may
                # still pipeline trailing non-execute ops (e.g. the load
                # generator's final stats fetch), so wait — bounded — for
                # open connections to finish before the listening sockets
                # and the service are torn down.
                if not await gate.drain(drain_timeout):
                    # Past the drain deadline: answer what is still
                    # queued with structured sheds so connected clients
                    # see DeadlineExceeded, not a dropped socket, then
                    # give the writes a short grace window to flush.
                    shed = service.shed_queued(
                        "shutdown drain deadline reached"
                    )
                    if shed:
                        log.info("drain deadline: shed %d queued "
                                 "requests", shed)
                    await gate.drain(1.0)
            finally:
                for endpoint in endpoints:
                    endpoint.close()
                gate.close_connections()
                for endpoint in endpoints:
                    await endpoint.wait_closed()
            if telemetry_http is not None:
                await telemetry_http.stop()
            stats.update(service.stats())

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return stats


__all__ = [
    "ServiceClient",
    "StencilService",
    "run_server",
    "serve_tcp",
]
