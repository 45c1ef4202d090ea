"""The digest router, and the per-digest circuit breakers.

Requests are routed by the :func:`~repro.core.ir.structural_digest` of their
program.  :class:`DigestRouter` resolves a digest to a :class:`Route` that
serves the program exactly as written, built once per digest and cached; a
benchmark-name request and the equivalent serialized-program request share
one route.

Nothing is lowered or tuned on the way.  The OpenCL lowerings (``mapGlb``,
``toLocal``, tiled variants) exist to generate GPU code; the CPU backend
compiles a program and its default lowering to the same tape, and stored
tuning results rank variants on simulated devices (docs/ARCHITECTURE.md §6).
"""

from __future__ import annotations

import threading
from typing import Dict, NamedTuple, Optional, Tuple

from ..core.ir import Lambda, structural_digest
from ..telemetry.registry import MetricsRegistry
from .requests import ServiceError

#: Consecutive fast-path failures that open a digest's circuit breaker.
BREAKER_THRESHOLD = 3
#: Seconds an open breaker quarantines its digest before one half-open probe.
BREAKER_COOLDOWN_S = 5.0


class Route(NamedTuple):
    """How the service executes all traffic for one structural digest."""

    digest: str
    benchmark: Optional[str]          # suite key, when the digest matched
    program: Lambda                   # the program as written
    #: The benchmark's iterate() carry specification; ``None`` (programs
    #: outside the suite) is ``plan.iterate``'s default — the output feeds
    #: input 0, the rest stay static.
    carry: Optional[Tuple] = None


class DigestRouter:
    """Resolve requests to routes, one cached :class:`Route` per digest."""

    def __init__(self) -> None:
        self._routes: Dict[str, Route] = {}
        self._benchmark_digest: Dict[str, str] = {}
        self._digest_to_benchmark: Optional[Dict[str, str]] = None
        self.lookups = 0
        self.cold_misses = 0

    def _benchmark_digests(self) -> Dict[str, str]:
        """Digest of every registered benchmark's high-level program.

        Built once: it lets a *serialized program* request route to the same
        route (and carry spec) as the equivalent benchmark-name request.
        """
        if self._digest_to_benchmark is None:
            from ..apps.suite import ALL_BENCHMARKS

            self._digest_to_benchmark = {
                structural_digest(benchmark.build_program()): key
                for key, benchmark in ALL_BENCHMARKS.items()
            }
        return self._digest_to_benchmark

    def plan_for(self, benchmark: Optional[str] = None,
                 program: Optional[Lambda] = None) -> Route:
        """The route for a request (cached per digest).

        Thread-safe without a lock: the tables are only read and
        ``setdefault``-ed, so two threads missing on one digest both build
        a route and the first insert wins.
        """
        from ..apps.suite import ALL_BENCHMARKS, get_benchmark

        self.lookups += 1
        if benchmark is not None:
            key = benchmark.lower()
            digest = self._benchmark_digest.get(key)
            # Hot path: a benchmark's digest and route are computed once,
            # not once per request.
            route = self._routes.get(digest) if digest is not None else None
            if route is not None:
                return route
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

        route = self._routes.get(digest)
        if route is not None:
            return route
        route = self._routes.setdefault(digest, Route(
            digest=digest,
            benchmark=key if bench is not None else None,
            program=program,
            carry=bench.carry_spec() if bench is not None else None,
        ))
        self.cold_misses += 1
        return route

    def stats(self) -> Dict[str, int]:
        return {
            "lookups": self.lookups,
            "cold_misses": self.cold_misses,
            "plans_cached": len(self._routes),
        }


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
    on every request.  The breaker caps the bill: after
    :data:`BREAKER_THRESHOLD` *consecutive* failures the digest is
    **quarantined** (state ``open``) and its groups are served on the
    generic unfused local path, which skips plan capture and shard
    dispatch entirely.  After :data:`BREAKER_COOLDOWN_S` the breaker goes
    ``half_open`` and lets exactly **one** group (the probe) through the
    fast path: success closes the breaker, failure re-opens it for another
    cooldown.

    The clock is injectable so the state machine is unit-testable without
    sleeping.  Thread-safe: ``allow`` runs on executor threads while
    ``record_*`` runs on the event loop.  Trips are counted as
    ``repro_breaker_opens_total`` in ``metrics`` — the owning service's
    registry, or a private one for a breaker built alone.
    """

    def __init__(self, clock=None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        import time as _time

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
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None or entry.state == "closed":
                return True
            if entry.state == "open":
                if self._clock() - entry.opened_at < BREAKER_COOLDOWN_S:
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
        with self._lock:
            entry = self._entries.setdefault(digest, _BreakerEntry())
            entry.failures += 1
            entry.last_reason = reason
            entry.probe_inflight = False
            tripped = (entry.state == "half_open"
                       or (entry.state == "closed"
                           and entry.failures >= BREAKER_THRESHOLD))
            if tripped:
                entry.state = "open"
                entry.opened_at = self._clock()
                entry.opens += 1
                self._opens.inc()
            return tripped

    def record_success(self, digest: str) -> None:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                return
            if entry.state != "closed":
                self.closes += 1
            del self._entries[digest]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "threshold": BREAKER_THRESHOLD,
                "cooldown_s": BREAKER_COOLDOWN_S,
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


__all__ = ["DigestCircuitBreaker", "DigestRouter", "Route"]
