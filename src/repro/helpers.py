"""One process-wide pool of helper threads: how work reaches a second core.

The row bands of temporal blocks, the tile chunks of fused regions and a
banded plan's bind and result copies (:mod:`repro.backend`), one share of
a frame's hashing (:mod:`repro.service.wire`) and durable-job checkpoint
writes (:mod:`repro.service.jobs`) all run beside their caller on
:func:`pool`.  Every hand-off pins its worker off the caller's CPU before
waking it: the kernel may wake a thread on its waker's CPU, and a caller
that goes on computing would share that CPU at half speed while another
idles: left on the caller's whole set, a fresh 2-vCPU pool ran both
bands of a Hotspot2D 1024² block on one CPU in 6 of 6 calls, in each of
3 processes (10.2–11.9 ms a block; 4.6–8.6 ms pinned apart).  A hand-off
to an idle worker costs 25–35 µs back to back, 50–75 µs after a 1 ms
idle.  Threads suffice: ``hashlib``, NumPy and ``ctypes`` calls release
the interpreter lock over their loops.

No thread starts at import; workers spawn on demand, up to
:data:`MAX_REPLAY_WORKERS`, and a forked child gets a fresh pool.  A
worker drops its task's references before it resolves the task's future
or parks: an idle helper that kept a received 4 MB body alive made the
next body land in never-touched pages, about 2 ms on the next execute.
"""

from __future__ import annotations

import ctypes
import functools
import os
import queue
import threading
from collections import deque
from concurrent.futures import Future
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from .telemetry import registry as _telemetry
from .telemetry.registry import RATIO_BUCKETS, metrics_enabled as _metrics_on

#: The most workers the pool spawns, and the most parts a fused region or
#: a temporal block splits into (:mod:`repro.backend.fuse`): each chunk has
#: its own scratch, and a banded barrier block needs all its bands running
#: at once.
MAX_REPLAY_WORKERS = 16

_CHUNK_SECONDS = _telemetry.histogram(
    "repro_replay_chunk_seconds",
    "Wall time of one parallel replay chunk (inline chunk included).",
)
_CHUNK_IMBALANCE = _telemetry.histogram(
    "repro_replay_chunk_imbalance",
    "(max - min) / max chunk wall time per parallel region replay.",
    buckets=RATIO_BUCKETS,
)


def usable_cpus() -> set:
    """The CPUs the calling thread may run on; empty where the platform
    keeps no affinity set."""
    try:
        return os.sched_getaffinity(0)
    except (AttributeError, OSError):
        return set()


@functools.lru_cache(maxsize=1)
def _sched_getcpu() -> Optional[Callable[[], int]]:
    """The C library's ``sched_getcpu``, resolved on first use."""
    function = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    if function is not None:
        function.argtypes = []
        function.restype = ctypes.c_int
    return function


def current_cpu() -> Optional[int]:
    """The CPU the calling thread runs on now, or ``None`` where the C
    library has no ``sched_getcpu``."""
    function = _sched_getcpu()
    return None if function is None else function()


def _part(fn: Callable, args: tuple, timed: bool):
    """One part of :meth:`HelperPool.run_parts`, run: its wall time (when
    ``timed``) and its error, for the caller to record and raise."""
    started = perf_counter() if timed else 0.0
    error: Optional[BaseException] = None
    try:
        fn(*args)
    except BaseException as raised:  # noqa: BLE001 - raised by the caller
        error = raised
    return (perf_counter() - started if timed else 0.0), error


class _Worker(threading.Thread):
    """One pool thread.  Only the thread that took it from the idle list
    pins it or hands it a task."""

    def __init__(self, pool: "HelperPool", index: int) -> None:
        super().__init__(name=f"repro-helper-{index}", daemon=True)
        self.pool = pool
        self.inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        #: The CPUs the last hand-off pinned it to; empty (its starter's
        #: set, unknown) until one places it.
        self.pinned = frozenset()

    def run(self) -> None:
        task = self.inbox.get()
        while True:
            future, fn, args = task
            try:
                result, error = fn(*args), None
            except BaseException as raised:  # noqa: BLE001 - the submitter's
                result, error = None, raised
            del task, fn, args  # nothing of the task outlives it here
            task = self.pool._park(self)
            if error is None:
                future.set_result(result)
            else:
                future.set_exception(error)
            del future, result, error
            if task is None:
                task = self.inbox.get()


class HelperPool:
    """Worker threads spawned on demand, up to ``max_threads``."""

    def __init__(self, max_threads: int = MAX_REPLAY_WORKERS) -> None:
        self.max_threads = max_threads
        self._lock = threading.Lock()
        self._idle: List[_Worker] = []
        self._backlog: "deque[Tuple[Future, Callable, tuple]]" = deque()
        self._threads = 0

    def submit(self, fn: Callable, *args) -> Future:
        """Run ``fn(*args)`` on an idle worker, pinned off the caller's CPU
        before it is woken; the future holds its result or error."""
        return self._hand(fn, args)

    def run_parts(self, parts: Sequence[Tuple[Callable, tuple]]) -> None:
        """Run every ``(fn, args)`` part at once: part 0 on the caller, the
        rest on workers pinned off the caller's CPU, as :meth:`submit`
        pins them (on one usable CPU they share the caller's).  Every part
        is awaited, even when one raises, so nothing a part touches is in
        use once this returns; then the first part's error (in part order)
        is raised.  With telemetry on, each part's wall time and their
        spread are recorded."""
        timed = _metrics_on()
        futures = [self._hand(_part, (fn, args, timed))
                   for fn, args in parts[1:]]
        outcomes = [_part(*parts[0], timed)]
        outcomes += [future.result() for future in futures]
        if timed:
            durations = [duration for duration, _error in outcomes]
            for duration in durations:
                _CHUNK_SECONDS.observe(duration)
            slowest = max(durations)
            if len(durations) > 1 and slowest > 0.0:
                _CHUNK_IMBALANCE.observe((slowest - min(durations)) / slowest)
        for _duration, error in outcomes:
            if error is not None:
                raise error

    def _hand(self, fn: Callable, args: tuple) -> Future:
        """Give ``fn(*args)`` to an idle worker (spawning one when none is
        idle and the pool has room), pinned first to the caller's usable
        CPUs but the one it runs on; a system call only when that changes,
        and none where no other CPU is usable.  With every worker busy, the
        task waits in the backlog."""
        future: Future = Future()
        with self._lock:
            if self._idle:
                worker = self._idle.pop()
            elif self._threads < self.max_threads:
                worker = _Worker(self, self._threads)
                worker.start()
                self._threads += 1
            else:
                self._backlog.append((future, fn, args))
                return future
        cpus = frozenset(usable_cpus() - {current_cpu()})
        if cpus and cpus != worker.pinned:
            try:
                os.sched_setaffinity(worker.native_id, cpus)
            except OSError:  # a refused placement leaves it where it runs
                pass
            else:
                worker.pinned = cpus
        worker.inbox.put((future, fn, args))
        return future

    def _park(self, worker: _Worker):
        """The backlog's oldest task, else ``None`` with ``worker`` idle."""
        with self._lock:
            if self._backlog:
                return self._backlog.popleft()
            self._idle.append(worker)
            return None


_POOL = HelperPool()


def pool() -> HelperPool:
    """The process's pool (its threads start on first use)."""
    return _POOL


def _forget() -> None:
    """In a forked child: the parent's workers do not exist here."""
    global _POOL
    _POOL = HelperPool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


__all__ = ["HelperPool", "MAX_REPLAY_WORKERS", "current_cpu", "pool",
           "usable_cpus"]
