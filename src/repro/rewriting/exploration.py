"""Macro-rewrite exploration.

Lift explores the optimisation space in two stages (paper §6, "Auto-Tuning"):

1. *macro rewrites* produce several structurally different low-level
   expressions per benchmark (untiled vs. overlapped tiling with different
   tile sizes, with or without local memory, with or without loop unrolling);
2. each low-level expression exposes numerical *parameters* (thread counts,
   work per thread) which are tuned by the ATF-style tuner in
   :mod:`repro.tuning`.

This module implements stage 1: :func:`explore` enumerates the candidate
variants for a given stencil program, filtering tile sizes through the tiling
validity constraint (``size − step = u − v`` plus exact coverage of the padded
input).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.ir import Lambda
from ..core.primitives.stencil import OverlappedTiling
from .strategies import (
    LoweredProgram,
    LoweringError,
    NAIVE,
    Strategy,
    lower_program,
    tiled_strategy,
)


#: Tile sizes considered by the macro exploration (in padded input elements).
DEFAULT_TILE_SIZES = (4, 6, 8, 10, 16, 18, 32, 34, 64, 66, 128, 130)


@dataclass
class ExplorationResult:
    """One candidate kernel variant produced by the macro exploration."""

    strategy: Strategy
    lowered: LoweredProgram

    def describe(self) -> str:
        return self.lowered.describe()


def candidate_strategies(
    stencil_size: int,
    stencil_step: int,
    padded_length: int,
    tile_sizes: Sequence[int] = DEFAULT_TILE_SIZES,
    include_local_memory: bool = True,
    include_unrolled: bool = True,
    validate_tiles: bool = True,
) -> List[Strategy]:
    """Enumerate macro strategies valid for the given stencil geometry.

    ``padded_length`` is the length (per dimension) of the padded input the
    first ``slide`` runs over.  Every tile must hold whole windows
    (:attr:`~repro.core.primitives.stencil.OverlappedTiling.holds_whole_windows`),
    as :func:`~repro.rewriting.strategies.lower_program` requires; when
    ``validate_tiles`` is set (the default), tiles must also cover
    ``padded_length`` exactly
    (:meth:`~repro.core.primitives.stencil.OverlappedTiling.covers`).  The
    experiment pipeline disables the exact-coverage check, so at the paper's
    input sizes it also ranks tiles whose kernels compute a truncated output
    (ROADMAP.md, item 14).
    """
    strategies: List[Strategy] = []
    for unroll in ([True, False] if include_unrolled else [True]):
        strategies.append(
            Strategy(name="naive", use_tiling=False, unroll_reduce=unroll)
        )
    for tile in tile_sizes:
        tiling = OverlappedTiling(stencil_size, stencil_step, tile)
        if not tiling.holds_whole_windows:
            continue
        if validate_tiles and not tiling.covers(padded_length):
            continue
        local_options = [True, False] if include_local_memory else [False]
        for local in local_options:
            strategies.append(
                tiled_strategy(tile, use_local_memory=local, unroll_reduce=True)
            )
    return strategies


def explore(
    program: Lambda,
    stencil_size: int,
    stencil_step: int,
    padded_length: int,
    tile_sizes: Sequence[int] = DEFAULT_TILE_SIZES,
    max_variants: Optional[int] = None,
    validate_tiles: bool = True,
) -> List[ExplorationResult]:
    """Produce the lowered kernel variants for one stencil program.

    Strategies whose rewrites do not apply (e.g. tiling on a multi-grid
    benchmark) are silently skipped, mirroring how Lift's exploration simply
    does not generate those points.
    """
    results: List[ExplorationResult] = []
    for strategy in candidate_strategies(
        stencil_size, stencil_step, padded_length, tile_sizes,
        validate_tiles=validate_tiles,
    ):
        try:
            lowered = lower_program(program, strategy)
        except LoweringError:
            continue
        results.append(ExplorationResult(strategy=strategy, lowered=lowered))
        if max_variants is not None and len(results) >= max_variants:
            break
    if not results:
        # Every program admits at least the naive lowering.
        lowered = lower_program(program, NAIVE)
        results.append(ExplorationResult(strategy=NAIVE, lowered=lowered))
    return results


def verify_variants(
    program: Lambda,
    variants: Sequence[ExplorationResult],
    inputs: Sequence,
    backend=None,
    rtol: float = 1e-6,
    atol: float = 0.0,
) -> List[ExplorationResult]:
    """Execute each lowered variant and check it against the source program.

    Every rewrite is supposed to be semantics-preserving; this runs the
    high-level program and every exploration variant on concrete data with
    the selected backend (the fast compiled path by default, which makes the
    check affordable even inside experiment sweeps) and returns the variants
    whose results match.  A non-empty ``variants`` producing an empty result
    indicates a broken rewrite rule.
    """
    from ..backend import get_backend

    executor = get_backend(backend)
    expected = np.asarray(executor.run(program, list(inputs)), dtype=np.float64)
    verified: List[ExplorationResult] = []
    for variant in variants:
        result = np.asarray(
            executor.run(variant.lowered.program, list(inputs)), dtype=np.float64
        )
        if result.shape == expected.shape and np.allclose(
            result, expected, rtol=rtol, atol=atol
        ):
            verified.append(variant)
    return verified


__all__ = [
    "DEFAULT_TILE_SIZES",
    "ExplorationResult",
    "candidate_strategies",
    "explore",
    "verify_variants",
]
