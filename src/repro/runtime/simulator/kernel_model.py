"""Structural kernel profiles: what the performance model reasons about.

A :class:`KernelProfile` captures the features of one kernel launch that the
analytical model in :mod:`repro.runtime.simulator.model` consumes:

* how many work-items and work-groups are launched, and how much sequential
  work each work-item performs;
* how many bytes each output element causes to be read from global memory
  (after accounting for local-memory staging and cache reuse);
* how much local memory each work-group uses, and how many local-memory bytes
  are moved;
* how many floating-point operations each output element costs;
* whether global accesses are coalesced.

Profiles are built either from a Lift :class:`~repro.rewriting.strategies.LoweredProgram`
plus a tuning configuration (:func:`build_profile`), or directly by the
baseline kernel plans in :mod:`repro.baselines`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    from ...rewriting.strategies import LoweredProgram


@dataclass(frozen=True)
class ProblemInstance:
    """One benchmark instance: the stencil's arithmetic/geometry characteristics."""

    name: str
    output_shape: Tuple[int, ...]      # elements updated, per dimension (outermost first)
    stencil_points: int                # neighbourhood values read per output element
    num_input_grids: int = 1           # additional point-wise grids read (Hotspot, Acoustic, ...)
    flops_per_output: float = 0.0      # defaults to ~2 flops per read value
    bytes_per_element: int = 4         # single precision

    @property
    def output_elements(self) -> int:
        total = 1
        for extent in self.output_shape:
            total *= extent
        return total

    @property
    def ndims(self) -> int:
        return len(self.output_shape)

    def effective_flops(self) -> float:
        if self.flops_per_output > 0:
            return self.flops_per_output
        return 2.0 * (self.stencil_points + self.num_input_grids - 1)


@dataclass(frozen=True)
class KernelConfig:
    """Tunable numerical parameters of one kernel variant (the ATF search space)."""

    workgroup_size: Tuple[int, ...] = (256,)
    work_per_thread: int = 1            # output elements computed sequentially per work-item
    tile_size: int = 0                  # overlapped-tiling tile width (0 = untiled)
    use_local_memory: bool = False
    unrolled: bool = True

    @property
    def workgroup_items(self) -> int:
        total = 1
        for extent in self.workgroup_size:
            total *= extent
        return total


@dataclass(frozen=True)
class KernelProfile:
    """Everything the analytical timing model needs about one kernel launch."""

    problem: ProblemInstance
    global_threads: int
    workgroup_items: int
    work_per_thread: int
    global_read_bytes: float
    global_write_bytes: float
    local_traffic_bytes: float
    local_memory_per_wg: int
    flops: float
    coalesced_fraction: float = 1.0
    redundant_compute_factor: float = 1.0
    uses_local_memory: bool = False
    barriers_per_workgroup: int = 0
    label: str = "kernel"

    def describe(self) -> str:
        return (
            f"{self.label}: threads={self.global_threads} wg={self.workgroup_items} "
            f"wpt={self.work_per_thread} rd={self.global_read_bytes/1e6:.2f}MB "
            f"localMem={self.local_memory_per_wg}B"
        )


def halo_factor(tile_size: int, stencil_size: int, step: int, ndims: int) -> float:
    """Extra global reads caused by tile halos (tile volume / useful outputs)."""
    if tile_size <= 0:
        return 1.0
    outputs = max(1, (tile_size - stencil_size + step) // step)
    return (tile_size / outputs) ** ndims


def build_profile(
    lowered: LoweredProgram,
    problem: ProblemInstance,
    config: KernelConfig,
    label: Optional[str] = None,
) -> KernelProfile:
    """Derive a kernel profile from a lowered Lift variant and a tuning point.

    The derivation mirrors what the generated OpenCL code does:

    * untiled kernels read every neighbourhood value from global memory; the
      device's cache captures part of the reuse (modelled downstream via the
      device's ``cache_efficiency``), so the profile reports the *raw* bytes;
    * tiled kernels with local memory read each tile (plus halo) from global
      memory exactly once and serve the neighbourhood accesses from the
      scratchpad, trading global traffic for local traffic and barriers;
    * the per-thread sequential work divides the number of launched
      work-items.
    """
    elements = problem.output_elements
    bpe = problem.bytes_per_element
    reads_per_output = problem.stencil_points + (problem.num_input_grids - 1)

    work_per_thread = max(1, config.work_per_thread)
    global_threads = max(1, math.ceil(elements / work_per_thread))

    uses_local = bool(config.use_local_memory and config.tile_size > 0)
    if uses_local:
        halo = halo_factor(config.tile_size, lowered.stencil_size or 3,
                           lowered.stencil_step or 1, problem.ndims)
        global_read_bytes = elements * bpe * halo \
            + elements * bpe * (problem.num_input_grids - 1)
        local_traffic = elements * bpe * (halo + problem.stencil_points)
        local_per_wg = (config.tile_size ** problem.ndims) * bpe
        barriers = 1
    else:
        global_read_bytes = elements * bpe * reads_per_output
        local_traffic = 0.0
        local_per_wg = 0
        barriers = 0

    coalesced = 1.0
    if config.workgroup_size and config.workgroup_size[0] < 16:
        # Narrow work-groups in the fastest-varying dimension break coalescing.
        coalesced = max(0.25, config.workgroup_size[0] / 16.0)

    flops = elements * problem.effective_flops()
    profile = KernelProfile(
        problem=problem,
        global_threads=global_threads,
        workgroup_items=config.workgroup_items,
        work_per_thread=work_per_thread,
        global_read_bytes=float(global_read_bytes),
        global_write_bytes=float(elements * bpe),
        local_traffic_bytes=float(local_traffic),
        local_memory_per_wg=local_per_wg,
        flops=flops,
        coalesced_fraction=coalesced,
        uses_local_memory=uses_local,
        barriers_per_workgroup=barriers,
        label=label or f"lift-{lowered.strategy.describe()}",
    )
    return profile


__all__ = [
    "ProblemInstance",
    "KernelConfig",
    "KernelProfile",
    "build_profile",
    "halo_factor",
]
