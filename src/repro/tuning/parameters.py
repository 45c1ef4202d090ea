"""Tunable parameters and OpenCL constraints.

A :class:`ParameterSpace` is a set of named, discrete parameters plus a list
of constraints over complete configurations.  Constraints capture the OpenCL
validity rules the paper mentions explicitly (global sizes must be multiples
of local sizes, work-group sizes must not exceed the device limit, local
memory must fit) — the ATF framework's distinguishing feature over plain
OpenTuner.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

Configuration = Dict[str, object]
Constraint = Callable[[Configuration], bool]


@dataclass(frozen=True)
class Parameter:
    """One discrete tunable parameter."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"parameter {self.name!r} has no values")


class ParameterSpace:
    """A cartesian product of parameters filtered by constraints."""

    def __init__(self, parameters: Sequence[Parameter],
                 constraints: Sequence[Constraint] = ()) -> None:
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in space")
        self.parameters = list(parameters)
        self.constraints = list(constraints)

    # -- queries -------------------------------------------------------------
    def is_valid(self, config: Configuration) -> bool:
        return all(constraint(config) for constraint in self.constraints)

    def size(self) -> int:
        """Number of raw (unconstrained) configurations."""
        total = 1
        for parameter in self.parameters:
            total *= len(parameter.values)
        return total

    def __iter__(self) -> Iterator[Configuration]:
        return self.configurations()

    def configurations(self) -> Iterator[Configuration]:
        """All valid configurations, in deterministic order."""
        names = [p.name for p in self.parameters]
        for combo in itertools.product(*[p.values for p in self.parameters]):
            config = dict(zip(names, combo))
            if self.is_valid(config):
                yield config

    def sample(self, rng, count: int) -> List[Configuration]:
        """Sample up to ``count`` distinct valid configurations."""
        names = [p.name for p in self.parameters]
        seen = set()
        out: List[Configuration] = []
        attempts = 0
        max_attempts = count * 50
        while len(out) < count and attempts < max_attempts:
            attempts += 1
            combo = tuple(rng.choice(p.values) for p in self.parameters)
            if combo in seen:
                continue
            seen.add(combo)
            config = dict(zip(names, combo))
            if self.is_valid(config):
                out.append(config)
        return out

    def neighbours(self, config: Configuration) -> Iterator[Configuration]:
        """Configurations differing from ``config`` in exactly one parameter."""
        for parameter in self.parameters:
            current = config[parameter.name]
            for value in parameter.values:
                if value == current:
                    continue
                candidate = dict(config)
                candidate[parameter.name] = value
                if self.is_valid(candidate):
                    yield candidate


#: Row-block extents searched for the tape optimizer's tile parameter, per
#: grid dimensionality.  2-D grids block rows (trailing axis stays whole and
#: contiguous); 3-D grids block depth slabs.
FUSE_TILE_BLOCKS = {2: (16, 32, 64), 3: (2, 4, 8)}


def fuse_tile_candidates(ndims: int) -> List[object]:
    """Tile-shape candidates for fused-plan replay at one dimensionality.

    Returns specs in the form :func:`repro.backend.fuse.normalize_tile_spec`
    accepts: ``False`` (unfused tape), ``"auto"`` (the cache-sized
    heuristic — spelled as a string, not ``None``, so a winning heuristic
    stays distinguishable from "no tile search ran") and explicit
    leading-axis row/slab blocks with ``None`` (= whole-axis) entries for
    the remaining axes.  Its one consumer is
    :func:`repro.backend.fuse.measure_best_tile`, which times each with warm
    fused-plan replays.
    """
    blocks = FUSE_TILE_BLOCKS.get(min(max(ndims, 2), 3), FUSE_TILE_BLOCKS[3])
    return [False, "auto"] + [
        (block,) + (None,) * (max(ndims, 2) - 1) for block in blocks
    ]


#: Cap on the replay-worker counts the tuner searches.  Chunked replay is
#: bandwidth-bound; past a handful of cores extra workers only contend on
#: the memory bus, so the search space stays small and cheap.
MAX_WORKER_CANDIDATE = 8


def replay_worker_candidates(max_workers: int = None) -> Tuple[int, ...]:
    """Parallel-replay worker counts worth searching *on this machine*.

    Derived from the visible core count (overridable via ``max_workers``):
    always ``1`` (serial), then powers of two up to
    ``min(cores, MAX_WORKER_CANDIDATE)``.  On a single-core machine this is
    just ``(1,)``, so tile searches and tuning runs stay serial there
    instead of timing worker configurations that cannot win.
    """
    cores = max_workers if max_workers is not None else (os.cpu_count() or 1)
    candidates = [1]
    workers = 2
    while workers <= min(cores, MAX_WORKER_CANDIDATE):
        candidates.append(workers)
        workers *= 2
    return tuple(candidates)


def opencl_constraints(
    max_workgroup_size: int,
    local_memory_bytes: int,
    output_shape: Sequence[int],
    bytes_per_element: int = 4,
) -> List[Constraint]:
    """The standard OpenCL validity constraints used for every stencil kernel.

    Configurations are expected to contain ``wg_x`` / ``wg_y`` / ``wg_z``
    (missing dimensions default to 1), optionally ``tile_size`` and
    ``use_local_memory``.
    """

    def workgroup_items(config: Configuration) -> int:
        return (
            int(config.get("wg_x", 1))
            * int(config.get("wg_y", 1))
            * int(config.get("wg_z", 1))
        )

    def fits_workgroup(config: Configuration) -> bool:
        return 1 <= workgroup_items(config) <= max_workgroup_size

    def fits_local_memory(config: Configuration) -> bool:
        if not config.get("use_local_memory", False):
            return True
        tile = int(config.get("tile_size", 0))
        if tile <= 0:
            return True
        ndims = len(output_shape)
        return (tile ** ndims) * bytes_per_element <= local_memory_bytes

    def workgroup_not_larger_than_output(config: Configuration) -> bool:
        dims = ["wg_x", "wg_y", "wg_z"][: len(output_shape)]
        # wg_x maps to the innermost (fastest varying) output dimension.
        for dim_name, extent in zip(dims, reversed(list(output_shape))):
            if int(config.get(dim_name, 1)) > max(1, extent):
                return False
        return True

    return [fits_workgroup, fits_local_memory, workgroup_not_larger_than_output]


__all__ = [
    "Configuration",
    "Constraint",
    "FUSE_TILE_BLOCKS",
    "MAX_WORKER_CANDIDATE",
    "Parameter",
    "ParameterSpace",
    "fuse_tile_candidates",
    "opencl_constraints",
    "replay_worker_candidates",
]
