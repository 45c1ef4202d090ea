"""Keep a helper thread off the CPU of the thread that hands it work.

The kernel may wake a thread on the CPU of the thread that woke it.  When
the waker goes on computing — a frame's other share of hashing
(:mod:`repro.service.wire`), a durable job's next segment
(:mod:`repro.service.jobs`) — the two then share that CPU at half speed
while another idles.  :class:`OffCallerCpu` pins its thread, at each
hand-off, to the caller's usable CPUs less the one the caller runs on.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from typing import Callable, Optional


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


class OffCallerCpu:
    """Pins one started thread off its caller's CPU.

    Callers serialise their calls to :meth:`pin` (one hands work to the
    thread at a time).  A thread replaced by a new one needs a new
    instance: the pinned set is remembered per thread.
    """

    def __init__(self, thread: threading.Thread) -> None:
        if thread.native_id is None:
            raise ValueError(f"thread {thread.name!r} has not started")
        self.thread = thread
        self._pinned: Optional[frozenset] = None

    def pin(self, cpus: Optional[set] = None) -> None:
        """Pin the thread to ``cpus`` (default: the caller's usable CPUs)
        less the caller's current CPU; no system call when that set is the
        one already pinned, and nothing when it is empty (one CPU).  A
        placement the system refuses leaves the thread where it runs."""
        cpus = usable_cpus() if cpus is None else cpus
        here = current_cpu()
        others = frozenset(cpus - {here} if here is not None else cpus)
        if not others or others == self._pinned:
            return
        try:
            os.sched_setaffinity(self.thread.native_id, others)
        except OSError:
            return
        self._pinned = others


__all__ = ["OffCallerCpu", "current_cpu", "usable_cpus"]
