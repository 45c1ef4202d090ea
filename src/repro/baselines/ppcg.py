"""A simplified PPCG-style polyhedral compiler baseline.

PPCG [Verdoolaege et al. 2013] compiles affine loop nests to OpenCL/CUDA using
the polyhedral model.  Its characteristic schedule for stencils — the one the
paper repeatedly contrasts Lift against (§7.2) — is:

* rectangular (overlapped) tiling of the iteration space in every dimension,
* one work-group per tile, with the tile staged through shared/local memory,
* a fixed thread block whose threads each execute a large *sequential* chunk
  of the tile (the paper reports up to 512× more sequential work per thread
  than the best Lift kernel for ``Heat``).

This module reproduces that schedule as a small compiler over a loop-nest
description: it always tiles, always promotes to local memory, and exposes the
tile and block sizes as tunable parameters (exactly the knobs the paper says
PPCG exposes: "global/local thread counts and tile sizes").  The resulting
kernel plans are evaluated on the same virtual device as the Lift variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..runtime.simulator.device import DeviceModel
from ..runtime.simulator.kernel_model import KernelProfile, ProblemInstance
from ..tuning.parameters import Parameter, ParameterSpace


@dataclass(frozen=True)
class PolyhedralSchedule:
    """One PPCG schedule: tile sizes and thread-block sizes per dimension."""

    tile_sizes: Tuple[int, ...]
    block_sizes: Tuple[int, ...]

    @property
    def tile_elements(self) -> int:
        total = 1
        for extent in self.tile_sizes:
            total *= extent
        return total

    @property
    def block_threads(self) -> int:
        total = 1
        for extent in self.block_sizes:
            total *= extent
        return total

    @property
    def work_per_thread(self) -> int:
        return max(1, self.tile_elements // max(1, self.block_threads))


class PPCGCompiler:
    """Generate and evaluate PPCG-style schedules for a stencil problem."""

    #: Default tile sizes PPCG considers per dimension.
    TILE_CHOICES_2D = (16, 32, 64)
    TILE_CHOICES_3D = (4, 8, 16, 32)
    #: Thread-block extents per dimension.
    BLOCK_CHOICES = (4, 8, 16, 32)

    def __init__(self, problem: ProblemInstance, stencil_radius: int = 1) -> None:
        self.problem = problem
        self.stencil_radius = max(1, stencil_radius)

    # ------------------------------------------------------------- schedules
    def schedule_from_config(self, config: Dict[str, object]) -> PolyhedralSchedule:
        ndims = self.problem.ndims
        tiles = tuple(int(config[f"tile_{d}"]) for d in range(ndims))
        blocks = tuple(
            int(config[f"block_{d}"]) for d in range(min(ndims, 2))
        )
        return PolyhedralSchedule(tile_sizes=tiles, block_sizes=blocks)

    # ------------------------------------------------------------- profiles
    def profile(self, schedule: PolyhedralSchedule, device: DeviceModel) -> KernelProfile:
        """Build the kernel profile of one PPCG schedule.

        The tile (enlarged by the stencil halo in every dimension) is read
        from global memory once per input grid and staged in local memory;
        every neighbourhood access is then served from the scratchpad.  Each
        thread block processes one tile, so the number of launched work-items
        is ``output_elements / work_per_thread``; PPCG's thread blocks are
        two-dimensional even for 3D loop nests, so the outermost tile
        dimension is always walked sequentially with a barrier per step.  The
        generated inner loops carry extra index arithmetic compared with
        Lift's flat kernels, modelled as a modest redundant-compute factor.
        """
        problem = self.problem
        elements = problem.output_elements
        bpe = problem.bytes_per_element
        radius = self.stencil_radius

        halo_tile = 1
        for extent in schedule.tile_sizes:
            halo_tile *= extent + 2 * radius
        halo_factor = halo_tile / schedule.tile_elements

        global_read_bytes = elements * bpe * halo_factor * problem.num_input_grids
        local_traffic = elements * bpe * (halo_factor + problem.stencil_points)
        local_per_wg = halo_tile * bpe * problem.num_input_grids

        work_per_thread = schedule.work_per_thread
        global_threads = max(1, elements // work_per_thread)

        # One barrier pair per sequentially executed slice of the tile.
        sequential_steps = schedule.tile_sizes[0] if problem.ndims == 3 else 1

        return KernelProfile(
            problem=problem,
            global_threads=global_threads,
            workgroup_items=schedule.block_threads,
            work_per_thread=work_per_thread,
            global_read_bytes=float(global_read_bytes),
            global_write_bytes=float(elements * bpe),
            local_traffic_bytes=float(local_traffic),
            local_memory_per_wg=local_per_wg,
            flops=elements * problem.effective_flops(),
            coalesced_fraction=0.9,
            redundant_compute_factor=1.25,
            uses_local_memory=True,
            barriers_per_workgroup=2 * sequential_steps,
            label=f"ppcg-tile{schedule.tile_sizes}-block{schedule.block_sizes}",
        )


def ppcg_parameter_space(problem: ProblemInstance, device: DeviceModel) -> ParameterSpace:
    """The tunable space the paper describes for PPCG: tile and block sizes per dim."""
    ndims = problem.ndims
    tile_choices = (
        PPCGCompiler.TILE_CHOICES_3D if ndims == 3 else PPCGCompiler.TILE_CHOICES_2D
    )
    parameters: List[Parameter] = []
    for d in range(ndims):
        parameters.append(Parameter(f"tile_{d}", tuple(tile_choices)))
    # PPCG maps loop nests onto two-dimensional thread blocks even for 3D
    # stencils; the outermost tile dimension is executed sequentially.
    block_dims = min(ndims, 2)
    for d in range(block_dims):
        parameters.append(Parameter(f"block_{d}", tuple(PPCGCompiler.BLOCK_CHOICES)))

    def blocks_fit_tiles(config) -> bool:
        return all(
            int(config[f"block_{d}"]) <= int(config[f"tile_{d}"])
            for d in range(block_dims)
        )

    def block_fits_device(config) -> bool:
        threads = 1
        for d in range(block_dims):
            threads *= int(config[f"block_{d}"])
        return threads <= device.max_workgroup_size

    def local_memory_fits(config) -> bool:
        halo_tile = 1
        for d in range(ndims):
            halo_tile *= int(config[f"tile_{d}"]) + 2
        return halo_tile * problem.bytes_per_element * problem.num_input_grids \
            <= device.local_memory_bytes

    return ParameterSpace(
        parameters,
        constraints=[blocks_fit_tiles, block_fits_device, local_memory_fits],
    )


__all__ = ["PolyhedralSchedule", "PPCGCompiler", "ppcg_parameter_space"]
