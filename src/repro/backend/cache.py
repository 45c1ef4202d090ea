"""The compilation cache: expression hash + input signature → compiled kernel.

Exploration, tuning and the benchmark harness execute the *same* handful of
Lift expressions thousands of times on identically-shaped inputs.  Compiling
(staging the closure tree, concretising sizes, building pad index tables) is
cheap but not free, so compiled kernels are memoised here.

The key combines

* the :func:`~repro.core.ir.structural_key` of the program (alpha-equivalent
  programs share one entry),
* the input signature — per input, its shape and dtype,
* the concrete size environment the kernel was compiled against.

Multiprocessing contract
------------------------

Compiled kernels close over Python functions (the staged NumPy closures and
the user-function callables embedded in the IR), so they are **not
picklable** and are never shipped across process boundaries.  The parallel
search engine (:mod:`repro.engine`) instead sends *job specs* (benchmark
key + strategy + configuration) to its workers, and each worker process
**re-compiles** the kernels it needs into its own process-local cache — the
fork start method makes the first compile cheap and every subsequent
evaluation of the same variant a cache hit inside that worker.

To keep objects that *hold* a cache (e.g. a configured
:class:`~repro.backend.base.NumpyBackend`) picklable, pickling a
:class:`CompilationCache` intentionally drops its contents and lock: the
unpickled copy is an *empty* cache with zeroed statistics that re-compiles
on first use.  This is the "re-compile per worker" side of the
picklable-vs-recompile trade-off, chosen because kernels re-compile in
milliseconds while pickling closure trees is impossible in general.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.ir import Lambda, structural_key
from .numpy_backend import CompiledKernel, compile_program


def input_signature(inputs: Sequence) -> Tuple:
    """A hashable (shape, dtype) signature of concrete input data."""
    signature = []
    for value in inputs:
        array = value if isinstance(value, np.ndarray) else np.asarray(value)
        signature.append((array.shape, str(array.dtype)))
    return tuple(signature)


class _LRU:
    """A thread-safe LRU memo table with hit, miss and eviction counts.

    Eviction is *recency* based: a hit moves the entry to the back of the
    queue, so under pressure the least-recently-used value is dropped and a
    hot value survives arbitrarily many insertions of cold ones.  Evictions
    are counted and reported by :meth:`stats` alongside hits and misses.

    Thread-safety contract: every read *and* write of the entry table and
    the counters happens under one lock — the execution service fans sweeps
    out to executor threads that hit these caches concurrently, so an
    unlocked fast path (even a "harmless" ``len`` or a hit-count bump)
    would race with the LRU's pop-and-reinsert.  Building a value runs
    outside the lock; when two threads miss on the same key simultaneously
    both build, and the second insert discards its value in favour of the
    first — wasted work, never an inconsistent table.

    Pickling keeps only ``max_entries`` (see the module docstring's
    multiprocessing contract): the copy is empty, with zeroed statistics.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: Dict[Tuple, object] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _get_or_build(self, key: Tuple, build: Callable[[], object]):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self.hits += 1
                # LRU: refresh recency by re-inserting at the back.
                self._entries.pop(key)
                self._entries[key] = value
                return value
            self.misses += 1
        value = build()
        with self._lock:
            if key not in self._entries:
                while len(self._entries) >= self.max_entries:
                    # Drop the least-recently-used entry (front of the dict).
                    self._entries.pop(next(iter(self._entries)))
                    self.evictions += 1
                self._entries[key] = value
            else:
                value = self._entries[key]
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __getstate__(self) -> Dict[str, int]:
        # The values (closures, live buffers) are unpicklable and the lock
        # is process-local: a pickled cache deliberately carries neither.
        return {"max_entries": self.max_entries}

    def __setstate__(self, state: Dict[str, int]) -> None:
        self.__init__(max_entries=state["max_entries"])


class CompilationCache(_LRU):
    """A thread-safe LRU memo table of compiled kernels with statistics."""

    def __init__(self, max_entries: int = 256) -> None:
        super().__init__(max_entries)

    def key_for(
        self,
        program: Lambda,
        signature: Tuple,
        size_env: Optional[Mapping[str, int]] = None,
    ) -> Tuple:
        sizes = tuple(sorted((size_env or {}).items()))
        return (structural_key(program), signature, sizes)

    def get_or_compile(
        self,
        program: Lambda,
        inputs: Sequence,
        size_env: Optional[Mapping[str, int]] = None,
    ) -> CompiledKernel:
        return self.get_or_compile_keyed(
            program, input_signature(inputs), size_env
        )

    def get_or_compile_keyed(
        self,
        program: Lambda,
        signature: Tuple,
        size_env: Optional[Mapping[str, int]] = None,
    ) -> CompiledKernel:
        """Like :meth:`get_or_compile` with a caller-supplied signature.

        The execution service batches requests by stacking their inputs
        along a new leading axis; the kernel it needs is the *same* one a
        single request compiles (kernels are not shape-specialised), so the
        service keys the lookup by the per-item signature and any batch size
        shares the one cached kernel — one compilation for a hot program no
        matter how traffic is batched.
        """
        return self._get_or_build(
            self.key_for(program, signature, size_env),
            lambda: compile_program(program, size_env))


#: The process-wide cache used by the default NumPy backend.
default_cache = CompilationCache()


# Live cache statistics as scrape-time gauges (no hot-path coupling).
from ..telemetry import registry as _telemetry  # noqa: E402

_telemetry.gauge(
    "repro_compilation_cache_hits",
    "Hits in the process-wide compilation cache.",
    fn=lambda: default_cache.hits,
)
_telemetry.gauge(
    "repro_compilation_cache_misses",
    "Misses (compilations) in the process-wide compilation cache.",
    fn=lambda: default_cache.misses,
)
_telemetry.gauge(
    "repro_compilation_cache_evictions",
    "LRU evictions from the process-wide compilation cache.",
    fn=lambda: default_cache.evictions,
)
_telemetry.gauge(
    "repro_compilation_cache_entries",
    "Kernels currently memoised in the process-wide compilation cache.",
    fn=lambda: len(default_cache),
)


__all__ = ["CompilationCache", "default_cache", "input_signature"]
