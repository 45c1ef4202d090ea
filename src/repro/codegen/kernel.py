"""Kernel descriptors: the artefacts produced by code generation.

An :class:`OpenCLKernel` bundles the generated source with everything a host
program (or the simulator) needs to launch it: buffer descriptions, the
ND-range, and the amount of local memory the kernel allocates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class KernelBuffer:
    """One global-memory buffer argument of a kernel."""

    name: str
    element_type: str
    element_count: int
    is_output: bool = False


@dataclass
class OpenCLKernel:
    """A generated OpenCL kernel plus launch metadata."""

    name: str
    source: str
    buffers: List[KernelBuffer]
    global_size: Tuple[int, ...]
    local_size: Optional[Tuple[int, ...]]
    local_memory_bytes: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def output_buffer(self) -> KernelBuffer:
        outputs = [b for b in self.buffers if b.is_output]
        if not outputs:
            raise ValueError(f"kernel {self.name} has no output buffer")
        return outputs[0]

    def describe(self) -> str:
        local = "x".join(map(str, self.local_size)) if self.local_size else "auto"
        return (
            f"kernel {self.name}: global={'x'.join(map(str, self.global_size))} "
            f"local={local} localMem={self.local_memory_bytes}B "
            f"buffers={[b.name for b in self.buffers]}"
        )


__all__ = ["KernelBuffer", "OpenCLKernel"]
