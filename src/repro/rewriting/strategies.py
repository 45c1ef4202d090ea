"""End-to-end lowering strategies.

A *strategy* bundles the macro-level rewrite decisions the exploration makes
for one kernel variant:

* whether to apply the overlapped-tiling rule, and with which tile size,
* whether to stage the tile through OpenCL local memory,
* whether to unroll the neighbourhood reduction,
* how to map the remaining maps onto the thread hierarchy.

``lower_program`` applies the corresponding rewrites to a high-level stencil
program and returns a :class:`LoweredProgram`: the lowered Lift expression
(still executable by the reference interpreter, which treats the OpenCL
primitives as their sequential counterparts) together with the structural
metadata consumed by the code generator and the GPU performance model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core import builders as L
from ..core.arithmetic import Cst
from ..core.ir import Expr, FunCall, Lambda, replace
from ..core.primitives.algorithmic import Id, Zip
from ..core.primitives.opencl import MapGlb, MapLcl, MapWrg, ToLocal
from .algorithmic_rules import StencilMatch, match_stencil, tile_overlap
from .rules import apply_everywhere
from .lowering_rules import LowerReduceSeqRule, LowerReduceUnrollRule


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
    """A lowered kernel variant plus the structural metadata used downstream."""

    program: Lambda
    strategy: Strategy
    ndims: int
    stencil_size: int           # window extent per dimension
    stencil_step: int
    uses_tiling: bool
    tile_size: int
    uses_local_memory: bool
    unrolled: bool
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
    stencil = _find_outermost_stencil(body)

    if stencil is not None and strategy.use_tiling:
        lowered_body = _lower_tiled(body, stencil, strategy)
        multi_grid = False
    else:
        if strategy.use_tiling:
            raise LoweringError(
                "tiling requested but the program is not a pure mapN(f, slideN(...)) stencil"
            )
        lowered_body, stencil, multi_grid = _lower_naive(body, strategy)

    lowered_body = _lower_reductions(lowered_body, strategy)
    lowered = Lambda(program.params, lowered_body)

    size = int(stencil.size.evaluate()) if stencil.size.is_constant() else 0
    step = int(stencil.step.evaluate()) if stencil.step.is_constant() else 1
    return LoweredProgram(
        program=lowered,
        strategy=strategy,
        ndims=stencil.ndims,
        stencil_size=size,
        stencil_step=step,
        uses_tiling=strategy.use_tiling,
        tile_size=strategy.tile_size,
        uses_local_memory=strategy.use_local_memory and strategy.use_tiling,
        unrolled=strategy.unroll_reduce,
        multi_grid=multi_grid,
    )


def _find_outermost_stencil(body: Expr) -> Optional[StencilMatch]:
    """The stencil match not contained in any other matching sub-expression."""
    matching_nodes = [node for node in body.walk() if match_stencil(node) is not None]
    if not matching_nodes:
        return None
    outermost = matching_nodes[0]
    for node in matching_nodes[1:]:
        if node.contains(outermost):
            outermost = node
    return match_stencil(outermost)


def _find_zip_stencil(body: Expr) -> Optional[Tuple[FunCall, StencilMatch]]:
    """Recognise ``mapN(f, ...zip...)`` where a zipped array is a ``slideN``.

    Multi-grid benchmarks (Hotspot, SRAD2, the acoustic simulation) zip one or
    more point-wise grids with the neighbourhoods of another grid; the zip may
    itself be the ``zipN`` composition of ``map`` and ``zip``.  We locate the
    ``slideN`` of matching depth anywhere below the mapped argument.
    """
    from .algorithmic_rules import match_map_nd, match_slide_nd

    best: Optional[Tuple[FunCall, StencilMatch]] = None
    for node in body.walk():
        mapped = match_map_nd(node)
        if mapped is None:
            continue
        ndims, _f, arg = mapped
        contains_zip = any(
            isinstance(sub, FunCall) and isinstance(sub.fun, Zip) for sub in arg.walk()
        )
        if not contains_zip:
            continue
        for sub in arg.walk():
            slid = match_slide_nd(sub)
            if slid is not None and slid[0] == ndims:
                candidate = (node, StencilMatch(ndims, _f, slid[1], slid[2], slid[3]))
                if best is None or node.contains(best[0]):
                    best = candidate
                break
    return best


def _lower_naive(body: Expr, strategy: Strategy) -> Tuple[Expr, StencilMatch, bool]:
    """Lower without tiling: the stencil's map nest becomes a mapGlb nest."""
    stencil = _find_outermost_stencil(body)
    if stencil is not None:
        matching_nodes = [n for n in body.walk() if match_stencil(n) is not None]
        target = matching_nodes[0]
        for node in matching_nodes[1:]:
            if node.contains(target):
                target = node
        lowered_nest = _build_glb_nest(stencil.f, target_arg(target), stencil.ndims)
        return replace(body, target, lowered_nest), stencil, False

    zip_match = _find_zip_stencil(body)
    if zip_match is None:
        raise LoweringError("no stencil pattern found in program body")
    node, stencil = zip_match
    from .algorithmic_rules import match_map_nd

    mapped = match_map_nd(node)
    assert mapped is not None
    ndims, f, arg = mapped
    lowered_nest = _build_glb_nest(f, arg, ndims)
    return replace(body, node, lowered_nest), stencil, True


def target_arg(stencil_node: Expr) -> Expr:
    """The data argument of the outermost map of a matched stencil node."""
    assert isinstance(stencil_node, FunCall)
    return stencil_node.args[0]


def _build_glb_nest(f, arg: Expr, ndims: int) -> Expr:
    """``mapGlb(d_outer)(... mapGlb(0)(f) ...)`` — one work-item per output element.

    OpenCL dimension 0 is the fastest-varying one, so the innermost map uses
    dimension 0 and the outermost map uses dimension ``ndims − 1`` (matching
    how Lift assigns global ids to achieve coalesced accesses).
    """
    if ndims > 3:
        raise LoweringError("OpenCL exposes at most three thread dimensions")

    def nest(level: int):
        dim = ndims - 1 - level
        if level == ndims - 1:
            return MapGlb(f, dim)
        inner = nest(level + 1)
        inner_lambda = L.fun_n(1, lambda x, prim=inner: FunCall(prim, x))
        return MapGlb(inner_lambda, dim)

    return FunCall(nest(0), arg)


def _lower_tiled(body: Expr, stencil: StencilMatch, strategy: Strategy) -> Expr:
    """Apply overlapped tiling and lower onto work-groups / local work-items.

    Structure of the produced expression (2-D case, local memory enabled)::

        recombine(
          mapWrg(1)(mapWrg(0)(tile ⇒
             mapLcl(1)(mapLcl(0)(f'),
                slide2(size, step,
                   toLocal(mapLcl(1)(mapLcl(0)(id)))(tile))))
          , slide2(u, v, paddedInput)))
    """
    from .algorithmic_rules import recombine_tiles

    matching_nodes = [n for n in body.walk() if match_stencil(n) is not None]
    target = matching_nodes[0]
    for node in matching_nodes[1:]:
        if node.contains(target):
            target = node

    nd = stencil.ndims
    size, step = stencil.size, stencil.step
    overlap = tile_overlap(size, step)
    if overlap.is_constant() and strategy.tile_size <= overlap.evaluate():
        raise LoweringError(
            f"tile {strategy.tile_size} is too small: overlapped tiling needs "
            f"u > size − step = {overlap.evaluate()}"
        )
    u = Cst(strategy.tile_size)
    v = u - overlap

    def per_tile(tile: Expr) -> Expr:
        staged = tile
        if strategy.use_local_memory:
            copy_nest = _build_lcl_nest(Id(), nd)
            staged = FunCall(ToLocal(copy_nest), tile)
        windows = L.slide_nd(size, step, staged, nd)
        return FunCall(_build_lcl_nest(stencil.f, nd), windows)

    tiles = L.slide_nd(u, v, stencil.input, nd)
    tile_lambda = L.fun_n(1, per_tile)
    tiled = FunCall(_build_wrg_nest(tile_lambda, nd), tiles)
    recombined = recombine_tiles(tiled, nd)
    return replace(body, target, recombined)


def _build_lcl_nest(f, ndims: int):
    """A nest of ``mapLcl`` primitives, innermost dimension 0."""
    def nest(level: int):
        dim = ndims - 1 - level
        if level == ndims - 1:
            return MapLcl(f, dim)
        inner = nest(level + 1)
        inner_lambda = L.fun_n(1, lambda x, prim=inner: FunCall(prim, x))
        return MapLcl(inner_lambda, dim)

    return nest(0)


def _build_wrg_nest(f, ndims: int):
    """A nest of ``mapWrg`` primitives, innermost dimension 0."""
    def nest(level: int):
        dim = ndims - 1 - level
        if level == ndims - 1:
            return MapWrg(f, dim)
        inner = nest(level + 1)
        inner_lambda = L.fun_n(1, lambda x, prim=inner: FunCall(prim, x))
        return MapWrg(inner_lambda, dim)

    return nest(0)


def _lower_reductions(body: Expr, strategy: Strategy) -> Expr:
    """Lower every plain ``reduce`` to ``reduceSeq`` or ``reduceUnroll``."""
    rule = LowerReduceUnrollRule() if strategy.unroll_reduce else LowerReduceSeqRule()
    return apply_everywhere(body, rule)


__all__ = [
    "Strategy",
    "NAIVE",
    "tiled_strategy",
    "LoweredProgram",
    "LoweringError",
    "lower_program",
]
