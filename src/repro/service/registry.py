"""The tuned-kernel registry: structural digest → best-known execution plan.

Requests are routed by the :func:`~repro.core.ir.structural_digest` of their
*high-level* program.  The registry resolves a digest to an
:class:`RoutingPlan`:

* a digest matching a registered benchmark consults the engine's SQLite
  :class:`~repro.engine.store.ResultsStore` for the lowest-cost stored
  result of past ``repro tune`` / ``repro explore`` sessions and applies
  that variant's rewrite strategy to incoming workloads — the ATF-style
  amortisation of search cost over later executions;
* a cold digest (no store, no stored results, or an unknown program) falls
  back to the default naive lowering, and the serving layer may enqueue a
  background tune for it.

A *tiled* tuned variant only reproduces the full output on shapes its tiles
exactly cover, so :meth:`RoutingPlan.program_for` checks coverage per
request shape and falls back to the naive lowering otherwise (recorded as
plan source ``"fallback"`` in responses and stats).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..core.ir import Lambda, structural_digest
from ..engine.store import ResultsStore, StoredResult
from ..rewriting.strategies import NAIVE, LoweredProgram, lower_program
from ..telemetry.registry import MetricsRegistry
from .requests import ServiceError


@dataclass
class RoutingPlan:
    """How the service executes all traffic for one structural digest."""

    digest: str
    benchmark: Optional[str]          # registry key, when the digest matched
    naive: LoweredProgram
    tuned: Optional[LoweredProgram] = None
    tuned_config: Optional[Dict[str, object]] = None
    tuned_cost: Optional[float] = None
    stencil_extent: int = 3
    #: Fingerprint of the stored result this plan was built from (``None``
    #: for the default lowering) — the staleness check compares it against
    #: the store's current best to rebuild only on an actual change.
    tuned_fingerprint: Optional[str] = None
    #: The benchmark's iterate() carry specification; ``None`` (programs
    #: outside the suite) is ``plan.iterate``'s default — the output feeds
    #: input 0, the rest stay static.
    carry: Optional[Tuple] = None

    @property
    def source(self) -> str:
        return "tuned" if self.tuned is not None else "default"

    def covers(self, shape: Tuple[int, ...]) -> bool:
        """True when the tuned tiling exactly covers this input shape."""
        lowered = self.tuned
        if lowered is None or not lowered.uses_tiling:
            return True
        u = lowered.tile_size
        v = u - (lowered.stencil_size - lowered.stencil_step)
        if v <= 0:
            return False
        radius = (self.stencil_extent - 1) // 2
        for extent in shape:
            padded = extent + 2 * radius
            if padded < u or (padded - u) % v != 0:
                return False
        return True

    def program_for(self, shape: Tuple[int, ...]) -> Tuple[Lambda, str, str]:
        """The program serving one request shape: (program, variant, source)."""
        if self.tuned is not None:
            if self.covers(shape):
                return (self.tuned.program,
                        self.tuned.strategy.describe(), "tuned")
            return (self.naive.program, self.naive.strategy.describe(),
                    "fallback")
        return (self.naive.program, self.naive.strategy.describe(), "default")


class TunedKernelRegistry:
    """Resolve programs to routing plans, consulting the results store.

    The registry notices store improvements *by itself*: ``plan_for``
    re-polls the store's
    :meth:`~repro.engine.store.ResultsStore.generation` counter (throttled
    to at most once per ``poll_interval`` seconds).  When the store gained
    results mid-flight — a background tune, or a concurrent ``repro tune``
    in another process — cached plans are marked *stale*; the next lookup
    of a stale digest re-reads just that digest's best stored result (one
    point query) and rebuilds the plan only if the best actually changed
    (compared by result fingerprint), so a tune writing hundreds of rows
    for one benchmark does not churn every other digest's plan.  Explicit
    :meth:`refresh` still works and skips the throttle.
    """

    def __init__(
        self,
        store: Union[ResultsStore, str, None] = None,
        device: str = "nvidia",
        poll_interval: float = 0.25,
    ) -> None:
        self._owns_store = isinstance(store, str)
        self.store: Optional[ResultsStore] = (
            ResultsStore(store) if isinstance(store, str) else store
        )
        self.device = device
        self.poll_interval = poll_interval
        self._plans: Dict[str, RoutingPlan] = {}
        self._stale: set = set()
        self._benchmark_digest: Dict[str, str] = {}
        self._digest_to_benchmark: Optional[Dict[str, str]] = None
        self._lock = threading.Lock()
        self._generation = self.store.generation() if self.store is not None else 0
        self._last_poll = 0.0
        self.lookups = 0
        self.tuned_hits = 0
        self.cold_misses = 0
        self.invalidations = 0

    def close(self) -> None:
        if self._owns_store and self.store is not None:
            self.store.close()

    # -- routing -------------------------------------------------------------
    def _benchmark_digests(self) -> Dict[str, str]:
        """Digest of every registered benchmark's high-level program.

        Built once: it lets a *serialized program* request route to the same
        tuned plan as the equivalent benchmark-name request.
        """
        if self._digest_to_benchmark is None:
            from ..apps.suite import ALL_BENCHMARKS

            self._digest_to_benchmark = {
                structural_digest(benchmark.build_program()): key
                for key, benchmark in ALL_BENCHMARKS.items()
            }
        return self._digest_to_benchmark

    def _maybe_invalidate(self) -> None:
        """Mark cached plans stale when the store advanced underneath us."""
        if self.store is None:
            return
        import time

        now = time.monotonic()
        if now - self._last_poll < self.poll_interval:
            return
        self._last_poll = now
        generation = self.store.generation()
        if generation != self._generation:
            self._generation = generation
            with self._lock:
                self._stale.update(self._plans)

    def _cached_plan(self, digest: str) -> Optional[RoutingPlan]:
        """The cached plan for a digest, re-validated if marked stale.

        A stale plan costs one point query against the store; the plan is
        dropped (forcing a rebuild) only when the best stored result's
        fingerprint differs from the one the plan was built from.
        """
        with self._lock:
            plan = self._plans.get(digest)
            stale = digest in self._stale
        if plan is None or not stale:
            return plan
        best = self._current_best(plan)
        fingerprint = best.fingerprint if best is not None else None
        if fingerprint == plan.tuned_fingerprint:
            with self._lock:
                self._stale.discard(digest)
            return plan
        with self._lock:
            self._plans.pop(digest, None)
            self._stale.discard(digest)
        self.invalidations += 1
        return None

    def _current_best(self, plan: RoutingPlan) -> Optional[StoredResult]:
        from ..apps.suite import ALL_BENCHMARKS

        if self.store is None:
            return None
        if plan.benchmark is not None:
            bench = ALL_BENCHMARKS.get(plan.benchmark)
            return self._best_result(bench)
        return self.store.best_for_digest(
            structural_digest(plan.naive.program), self.device
        )

    def plan_for(self, benchmark: Optional[str] = None,
                 program: Optional[Lambda] = None) -> RoutingPlan:
        """The execution plan for a request (cached per digest)."""
        from ..apps.suite import ALL_BENCHMARKS, get_benchmark

        self.lookups += 1
        self._maybe_invalidate()
        if benchmark is not None:
            key = benchmark.lower()
            digest = self._benchmark_digest.get(key)
            if digest is not None:
                # Hot path: a benchmark's digest (and usually its whole
                # plan) is computed once, not once per request.
                plan = self._cached_plan(digest)
                if plan is not None:
                    if plan.tuned is not None:
                        self.tuned_hits += 1
                    return plan
            bench = get_benchmark(key)
            program = bench.build_program()
            digest = structural_digest(program)
            self._benchmark_digest[key] = digest
        elif program is not None:
            digest = structural_digest(program)
            key = self._benchmark_digests().get(digest)
            bench = ALL_BENCHMARKS.get(key) if key is not None else None
        else:
            raise ServiceError("plan_for needs a benchmark key or a program")

        plan = self._cached_plan(digest)
        if plan is not None:
            if plan.tuned is not None:
                self.tuned_hits += 1
            return plan

        plan = self._build_plan(digest, key if bench is not None else None,
                                program, bench)
        with self._lock:
            self._plans.setdefault(digest, plan)
            plan = self._plans[digest]
        if plan.tuned is not None:
            self.tuned_hits += 1
        else:
            self.cold_misses += 1
        return plan

    def _build_plan(self, digest: str, key: Optional[str],
                    program: Lambda, bench) -> RoutingPlan:
        naive = lower_program(program, NAIVE)
        extent = bench.stencil_extent if bench is not None else 3
        carry = bench.carry_spec() if bench is not None else None
        plan = RoutingPlan(digest=digest, benchmark=key, naive=naive,
                             stencil_extent=extent, carry=carry)
        best = self._best_result(bench)
        if best is None and bench is None and self.store is not None:
            # Unknown program: the store keys results by the digest of the
            # *lowered* expression, so look its default lowering up — a hit
            # recalls the best configuration any past session found for
            # exactly this expression.
            best = self.store.best_for_digest(
                structural_digest(naive.program), self.device
            )
        if best is not None:
            try:
                tuned = lower_program(program, best.variant.to_strategy())
            except Exception:
                return plan  # un-lowerable stored variant: serve the default
            plan.tuned = tuned
            plan.tuned_config = dict(best.config)
            plan.tuned_cost = best.cost
            plan.tuned_fingerprint = best.fingerprint
        return plan

    def _best_result(self, bench) -> Optional[StoredResult]:
        if self.store is None or bench is None:
            return None
        return self.store.best_for(bench.name, self.device)

    # -- refresh (after a background tune) ------------------------------------
    def refresh(self, digest: str) -> Optional[RoutingPlan]:
        """Re-consult the store for one digest (e.g. after a tune finished)."""
        with self._lock:
            plan = self._plans.pop(digest, None)
            self._stale.discard(digest)
        if plan is None:
            return None
        return self.plan_for(benchmark=plan.benchmark) \
            if plan.benchmark is not None else None

    def stats(self) -> Dict[str, int]:
        with self._lock:
            cached = len(self._plans)
            tuned = sum(1 for plan in self._plans.values()
                        if plan.tuned is not None)
        return {
            "lookups": self.lookups,
            "tuned_hits": self.tuned_hits,
            "cold_misses": self.cold_misses,
            "plans_cached": cached,
            "plans_tuned": tuned,
            "store_generation": self._generation,
            "invalidations": self.invalidations,
        }


#: Backwards-compatible alias — the routing plan predates the backend's
#: buffer-pooled :class:`~repro.backend.plan.ExecutionPlan` and was renamed
#: to keep the two concepts distinct.
ExecutionPlan = RoutingPlan


# ---------------------------------------------------------------------------
# Digest circuit breakers
# ---------------------------------------------------------------------------

class _BreakerEntry:
    __slots__ = ("state", "failures", "opened_at", "opens", "probe_inflight",
                 "last_reason")

    def __init__(self) -> None:
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.opens = 0
        self.probe_inflight = False
        self.last_reason = ""


class DigestCircuitBreaker:
    """Per-digest circuit breaker over the serving fast path.

    A digest whose fast path keeps failing — plan capture raises on every
    request, or its groups keep taking shards down — re-pays that failure
    on every request.  The breaker caps the bill: after ``threshold``
    *consecutive* failures the digest is **quarantined** (state ``open``)
    and its groups are served on the generic unfused local path, which
    skips plan capture and shard dispatch entirely.  After ``cooldown_s``
    the breaker goes ``half_open`` and lets exactly **one** group (the
    probe) through the fast path: success closes the breaker, failure
    re-opens it for another cooldown.

    ``threshold=0`` disables the breaker (``allow`` is always True).  The
    clock is injectable so the state machine is unit-testable without
    sleeping.  Thread-safe: ``allow`` runs on executor threads while
    ``record_*`` runs on the event loop.  Trips are counted as
    ``repro_breaker_opens_total`` in ``metrics`` — the owning service's
    registry, or a private one for a breaker built alone.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 5.0,
                 clock=None, metrics: Optional[MetricsRegistry] = None) -> None:
        import time as _time

        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock if clock is not None else _time.monotonic
        self._entries: Dict[str, _BreakerEntry] = {}
        self._lock = threading.Lock()
        if metrics is None:
            metrics = MetricsRegistry()
        self._opens = metrics.counter(
            "repro_breaker_opens_total",
            "Digest circuit breakers tripped open (incl. half-open probes "
            "failing).")
        self.closes = 0

    @property
    def opens(self) -> int:
        return self._opens.value

    def allow(self, digest: str) -> bool:
        """May this group take the fast path?  ``False`` = quarantined."""
        if self.threshold <= 0:
            return True
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None or entry.state == "closed":
                return True
            if entry.state == "open":
                if self._clock() - entry.opened_at < self.cooldown_s:
                    return False
                entry.state = "half_open"
                entry.probe_inflight = False
            # half_open: exactly one concurrent probe takes the fast path.
            if entry.probe_inflight:
                return False
            entry.probe_inflight = True
            return True

    def record_failure(self, digest: str, reason: str = "") -> bool:
        """Count one fast-path failure; whether it tripped the breaker."""
        if self.threshold <= 0:
            return False
        with self._lock:
            entry = self._entries.setdefault(digest, _BreakerEntry())
            entry.failures += 1
            entry.last_reason = reason
            entry.probe_inflight = False
            tripped = (entry.state == "half_open"
                       or (entry.state == "closed"
                           and entry.failures >= self.threshold))
            if tripped:
                entry.state = "open"
                entry.opened_at = self._clock()
                entry.opens += 1
                self._opens.inc()
            return tripped

    def record_success(self, digest: str) -> None:
        if self.threshold <= 0:
            return
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                return
            if entry.state != "closed":
                self.closes += 1
            del self._entries[digest]

    def state(self, digest: str) -> str:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                return "closed"
            if (entry.state == "open"
                    and self._clock() - entry.opened_at >= self.cooldown_s):
                return "half_open"
            return entry.state

    def open_count(self) -> int:
        with self._lock:
            return sum(1 for entry in self._entries.values()
                       if entry.state == "open")

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
                "opens": self.opens,
                "closes": self.closes,
                "digests": {
                    digest[:16]: {
                        "state": entry.state,
                        "failures": entry.failures,
                        "opens": entry.opens,
                        "last_reason": entry.last_reason,
                    }
                    for digest, entry in self._entries.items()
                },
            }


__all__ = ["DigestCircuitBreaker", "ExecutionPlan", "RoutingPlan",
           "TunedKernelRegistry"]
