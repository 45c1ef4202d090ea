"""End-to-end lowering strategies.

A *strategy* bundles the macro-level rewrite decisions the exploration makes
for one kernel variant:

* whether to apply the overlapped-tiling rule, and with which tile size,
* whether to stage the tile through OpenCL local memory,
* whether to unroll the neighbourhood reduction.

``lower_program`` turns those decisions into a short sequence of rewrite-rule
applications at the program's outermost stencil:

1. tiled strategies apply :class:`~.algorithmic_rules.TileStencilNDRule`, and
   with local memory stage each tile through a ``toLocal`` copy built by
   :class:`~.lowering_rules.IdInsertionRule` and
   :class:`~.lowering_rules.ToLocalRule`;
2. :class:`~.lowering_rules.LowerMapNestRule` maps the stencil's map nest onto
   global threads (untiled), or the tile nest onto work-groups and the
   per-tile nests onto local work-items (tiled);
3. the reduce rules lower every neighbourhood reduction.

It returns a :class:`LoweredProgram`: the lowered Lift expression (still
executable by the reference interpreter, which treats the OpenCL primitives
as their sequential counterparts), its strategy and the stencil geometry
consumed by the code generator and the GPU performance model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.ir import Expr, FunCall, Lambda, Primitive, replace
from ..core.printer import pretty
from ..core.primitives.algorithmic import Zip
from ..core.primitives.opencl import MapGlb, MapLcl, MapWrg
from .algorithmic_rules import (
    StencilMatch,
    TileStencilNDRule,
    match_map_nd,
    match_slide_nd,
    match_stencil,
    tile_exceeds_overlap,
)
from .lowering_rules import (
    IdInsertionRule,
    LowerMapNestRule,
    LowerReduceSeqRule,
    LowerReduceUnrollRule,
    ToLocalRule,
)
from .rules import apply_at, apply_everywhere


@dataclass(frozen=True)
class Strategy:
    """Macro-level rewrite decisions for one kernel variant."""

    name: str
    use_tiling: bool = False
    tile_size: int = 0
    use_local_memory: bool = False
    unroll_reduce: bool = True

    def describe(self) -> str:
        parts = [self.name]
        if self.use_tiling:
            parts.append(f"tile={self.tile_size}")
        if self.use_local_memory:
            parts.append("localMem")
        if self.unroll_reduce:
            parts.append("unroll")
        return " ".join(parts)

    def to_spec(self) -> dict:
        """A plain-dict form of the strategy (picklable, JSON-serialisable).

        The engine ships strategies to worker processes and persists them in
        the results store as specs; :meth:`from_spec` round-trips exactly.
        """
        return {
            "name": self.name,
            "use_tiling": self.use_tiling,
            "tile_size": self.tile_size,
            "use_local_memory": self.use_local_memory,
            "unroll_reduce": self.unroll_reduce,
        }

    @staticmethod
    def from_spec(spec: dict) -> "Strategy":
        return Strategy(
            name=str(spec["name"]),
            use_tiling=bool(spec.get("use_tiling", False)),
            tile_size=int(spec.get("tile_size", 0)),
            use_local_memory=bool(spec.get("use_local_memory", False)),
            unroll_reduce=bool(spec.get("unroll_reduce", True)),
        )


#: The baseline strategy: one global thread per output element, no tiling.
NAIVE = Strategy(name="naive", use_tiling=False)


def tiled_strategy(tile_size: int, use_local_memory: bool = True,
                   unroll_reduce: bool = True) -> Strategy:
    """A strategy applying overlapped tiling with the given tile size."""
    return Strategy(
        name="tiled",
        use_tiling=True,
        tile_size=tile_size,
        use_local_memory=use_local_memory,
        unroll_reduce=unroll_reduce,
    )


@dataclass
class LoweredProgram:
    """A lowered kernel variant, its strategy and the stencil's geometry."""

    program: Lambda
    strategy: Strategy
    ndims: int
    stencil_size: int           # window extent per dimension
    stencil_step: int
    multi_grid: bool            # True when the stencil zips several input grids

    def describe(self) -> str:
        return (
            f"{self.ndims}D stencil, {self.strategy.describe()}, "
            f"{'multi-grid' if self.multi_grid else 'single-grid'}"
        )


class LoweringError(Exception):
    """Raised when a strategy cannot be applied to a program."""


# ---------------------------------------------------------------------------
# Strategy application
# ---------------------------------------------------------------------------

def lower_program(program: Lambda, strategy: Strategy) -> LoweredProgram:
    """Apply a strategy to a high-level stencil program.

    The program body must contain either a pure ``mapN(f, slideN(...))``
    stencil (single input grid) or a ``mapN(f, zipN(...))`` stencil where one
    of the zipped arrays is a ``slideN`` (multi-grid benchmarks such as
    Hotspot or the acoustic simulation).  Tiling is only supported for the
    pure form, mirroring the exploration in the paper where the multi-grid
    benchmarks favour untiled kernels.
    """
    body = program.body
    target, stencil, multi_grid = _outermost_stencil(body)
    for node in body.walk():
        if (isinstance(node, FunCall) and isinstance(node.fun, Primitive)
                and any(nested.contains(target)
                        for nested in node.fun.nested_functions())):
            # Its parameter would be free in the kernel: no rule lowers
            # the enclosing pattern, so code generation could not bind it.
            raise LoweringError(
                f"the stencil sits inside the function of an outer "
                f"{node.fun.name} that no rule lowers: {pretty(node)}")
    size = int(stencil.size.evaluate()) if stencil.size.is_constant() else 0
    step = int(stencil.step.evaluate()) if stencil.step.is_constant() else 1
    if stencil.ndims > 3:
        raise LoweringError("OpenCL exposes at most three thread dimensions")

    if not strategy.use_tiling:
        lowered = apply_at(body, LowerMapNestRule(MapGlb), target)
    elif multi_grid:
        raise LoweringError(
            "tiling requested but the program is not a pure mapN(f, slideN(...)) stencil"
        )
    elif not tile_exceeds_overlap(strategy.tile_size, size, step):
        raise LoweringError(
            f"tile {strategy.tile_size} is too small: overlapped tiling needs "
            f"u > size − step = {size - step}"
        )
    else:
        tiled = TileStencilNDRule(strategy.tile_size).apply(target)
        tiles, tiling, _ = _outermost_stencil(tiled)
        per_tile = tiling.f  # tile ⇒ mapN(f, slideN(size, step, tile))
        tiled = apply_at(tiled, LowerMapNestRule(MapWrg), tiles)
        tiled = apply_at(tiled, LowerMapNestRule(MapLcl), per_tile.body)
        if strategy.use_local_memory:
            tile = per_tile.params[0]
            # IdInsertionRule only matches typed arrays and the tile parameter
            # is untyped before inference, so its rewrite builds the copy.
            copy = IdInsertionRule(stencil.ndims).rewrite(tile)
            staged = ToLocalRule().apply(LowerMapNestRule(MapLcl).apply(copy))
            tiled = replace(tiled, tile, staged)
        lowered = replace(body, target, tiled)

    rule = LowerReduceUnrollRule() if strategy.unroll_reduce else LowerReduceSeqRule()
    return LoweredProgram(
        program=Lambda(program.params, apply_everywhere(lowered, rule)),
        strategy=strategy,
        ndims=stencil.ndims,
        stencil_size=size,
        stencil_step=step,
        multi_grid=multi_grid,
    )


def _outermost_stencil(body: Expr) -> Tuple[FunCall, StencilMatch, bool]:
    """The outermost stencil node of ``body``, its match, and whether it zips grids.

    A pure ``mapN(f, slideN(...))`` stencil wins; otherwise the outermost
    ``mapN(f, ...zip...)`` whose zipped arrays include a ``slideN`` of the
    same depth (multi-grid benchmarks such as Hotspot, SRAD2 or the acoustic
    simulation; the zip may itself be the ``zipN`` composition of ``map`` and
    ``zip``).
    """
    outermost = None
    for node in body.walk():
        if match_stencil(node) is not None and (outermost is None or node.contains(outermost)):
            outermost = node
    if outermost is not None:
        return outermost, match_stencil(outermost), False

    best = None
    for node in body.walk():
        mapped = match_map_nd(node)
        if mapped is None or (best is not None and not node.contains(best[0])):
            continue
        ndims, f, arg = mapped
        if not any(isinstance(sub, FunCall) and isinstance(sub.fun, Zip) for sub in arg.walk()):
            continue
        for sub in arg.walk():
            slid = match_slide_nd(sub)
            if slid is not None and slid[0] == ndims:
                best = (node, StencilMatch(ndims, f, slid[1], slid[2], slid[3]))
                break
    if best is None:
        raise LoweringError("no stencil pattern found in program body")
    return best[0], best[1], True


__all__ = [
    "Strategy",
    "NAIVE",
    "tiled_strategy",
    "LoweredProgram",
    "LoweringError",
    "lower_program",
]
