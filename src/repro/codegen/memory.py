"""Memory-space bookkeeping for the code generator.

Lift allocates memory lazily while generating code: global buffers for the
kernel inputs/outputs, local (scratchpad) arrays when a ``toLocal`` copy is
requested, and private variables for accumulators.  This module centralises
name generation and local-memory accounting so the generator and the
performance model agree on how much local memory a kernel variant uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List


@dataclass
class LocalAllocation:
    """One ``__local float`` array allocated by a kernel."""

    name: str
    element_count: int


class MemoryAllocator:
    """Generates fresh names and tracks local-memory usage for one kernel."""

    def __init__(self) -> None:
        self._counter = itertools.count()
        self.local_allocations: List[LocalAllocation] = []

    def fresh(self, prefix: str) -> str:
        return f"{prefix}_{next(self._counter)}"

    def allocate_local(self, element_count: int,
                       prefix: str = "tile_local") -> LocalAllocation:
        allocation = LocalAllocation(self.fresh(prefix), element_count)
        self.local_allocations.append(allocation)
        return allocation

    @property
    def local_memory_bytes(self) -> int:
        return 4 * sum(a.element_count for a in self.local_allocations)


__all__ = ["LocalAllocation", "MemoryAllocator"]
