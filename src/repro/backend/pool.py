"""The sized buffer pool backing allocation-free execution plans.

An :class:`~repro.backend.plan.ExecutionPlan` pre-allocates every array the
steady-state execution loop writes — padded halo buffers, user-function
scratch, ping-pong output buffers — from one :class:`BufferPool`.  The pool
is an accounting and reuse layer over ``np.empty``:

* ``acquire`` hands out a buffer of the requested shape/dtype, reusing a
  previously released one when an exact match is free;
* ``release`` returns buffers to the free lists (plans release their whole
  buffer set when they are evicted from the plan cache);
* ``stats`` reports how many buffers and bytes are live, how many fresh
  allocations happened, and how many acquisitions were served for free —
  the numbers the zero-allocation tests and the ladder's
  ``backend.pool.steady_allocations`` invariant assert on.

The pool is thread-safe; buffers themselves are owned by exactly one plan
at a time (plans serialise their own execution with a per-plan lock).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Tuple

import numpy as np

from .. import faults as _faults
from ..telemetry import registry as _telemetry

_Key = Tuple[Tuple[int, ...], str]

#: Every live pool, so the process-wide telemetry gauges can sum over them.
#: Weak references: a pool dropped with its backend must not be pinned (or
#: double-counted) by observability plumbing.
_POOLS: "weakref.WeakSet[BufferPool]" = weakref.WeakSet()


def _sum_over_pools(attribute: str) -> int:
    return sum(getattr(pool, attribute, 0) for pool in list(_POOLS))


class BufferPool:
    """A pool of reusable ndarray buffers keyed by (shape, dtype).

    **Thread safety.**  Every counter update and free-list mutation happens
    under one internal lock, so plans on different service executor threads
    (and the parallel replay workers underneath them) may acquire/release
    concurrently.  The lock covers the *pool's* bookkeeping only: a buffer
    handed out by ``acquire`` is owned by exactly one plan until released,
    and each parallel replay chunk gets its own scratch set, so buffer
    *contents* never need pool-level synchronisation.

    **Release on abort.**  Acquirers are responsible for returning buffers
    on every exit path, including failures: the plan capture arena releases
    everything it acquired when a capture aborts mid-trace
    (:class:`~repro.backend.numpy_backend.PlanCaptureError`), and the tape
    optimizer releases a region's scratch when fusion falls back — which is
    why the pool-hygiene tests can assert ``live_buffers`` returns to
    baseline after repeated aborts instead of growing each time.  The pool
    itself never reclaims: a buffer neither released nor referenced is a
    leak the ``stats()`` counters are designed to expose.
    """

    def __init__(self) -> None:
        self._free: Dict[_Key, List[np.ndarray]] = {}
        self._lock = threading.Lock()
        self.allocations = 0
        self.reuses = 0
        self.live_buffers = 0
        self.live_bytes = 0
        self.high_water_bytes = 0
        _POOLS.add(self)

    @staticmethod
    def _key(shape: Tuple[int, ...], dtype) -> _Key:
        return (tuple(int(extent) for extent in shape), str(np.dtype(dtype)))

    def acquire(self, shape, dtype=np.float64) -> np.ndarray:
        """A writable buffer of exactly this shape and dtype."""
        if _faults.ARMED and _faults.should_fail("pool.alloc_fail"):
            raise MemoryError("fault injected: pool.alloc_fail")
        key = self._key(tuple(shape), dtype)
        with self._lock:
            free = self._free.get(key)
            if free:
                buffer = free.pop()
                self.reuses += 1
            else:
                buffer = np.empty(key[0], dtype=np.dtype(key[1]))
                self.allocations += 1
            self.live_buffers += 1
            self.live_bytes += buffer.nbytes
            if self.live_bytes > self.high_water_bytes:
                self.high_water_bytes = self.live_bytes
        return buffer

    def release(self, buffer: np.ndarray) -> None:
        """Return a buffer to the pool for reuse."""
        key = self._key(buffer.shape, buffer.dtype)
        with self._lock:
            self._free.setdefault(key, []).append(buffer)
            self.live_buffers -= 1
            self.live_bytes -= buffer.nbytes

    def release_all(self, buffers) -> None:
        for buffer in buffers:
            self.release(buffer)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            free_buffers = sum(len(v) for v in self._free.values())
            free_bytes = sum(b.nbytes for v in self._free.values() for b in v)
            return {
                "allocations": self.allocations,
                "reuses": self.reuses,
                "live_buffers": self.live_buffers,
                "live_bytes": self.live_bytes,
                "high_water_bytes": self.high_water_bytes,
                "free_buffers": free_buffers,
                "free_bytes": free_bytes,
            }


# Sampled at scrape time only — pool hot paths never touch telemetry.
_telemetry.gauge(
    "repro_pool_live_bytes",
    "Bytes currently checked out of all buffer pools.",
    fn=lambda: _sum_over_pools("live_bytes"),
)
_telemetry.gauge(
    "repro_pool_high_water_bytes",
    "Peak bytes simultaneously checked out, summed over pools.",
    fn=lambda: _sum_over_pools("high_water_bytes"),
)
_telemetry.gauge(
    "repro_pool_allocations",
    "Fresh np.empty allocations performed by all buffer pools.",
    fn=lambda: _sum_over_pools("allocations"),
)
_telemetry.gauge(
    "repro_pool_reuses",
    "Acquisitions served from pool free lists.",
    fn=lambda: _sum_over_pools("reuses"),
)


__all__ = ["BufferPool"]
