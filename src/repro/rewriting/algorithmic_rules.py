"""Algorithmic rewrite rules, including the paper's overlapped-tiling rule.

The central addition of the CGO'18 paper is a single rewrite rule enabling
overlapped tiling for stencils (Section 4.1)::

    map(f, slide(size, step, in))
      ↦ join(map(tile ⇒ map(f, slide(size, step, tile)), slide(u, v, in)))

with the validity constraint ``size − step = u − v`` (the overlap between
tiles must equal the overlap between neighbourhoods).  The multi-dimensional
variants reuse the 1-D primitives: tiles are created with ``slideN``, the
stencil is applied per tile with ``mapN`` and the per-tile results are
recombined into the flat output grid with ``map``/``transpose``/``join``.

This module also provides classic Lift rules reused for stencils: map fusion,
split-join and the map/join interchange used to prove the tiling rule correct
(Section 4.1 of the paper decomposes tiling into these two smaller rules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core import builders as L
from ..core.arithmetic import ArithExpr, Cst
from ..core.ir import Expr, FunCall, FunDecl, Lambda, Param
from ..core.primitives.algorithmic import Join, Map, Transpose
from ..core.primitives.opencl import MapGlb, MapLcl, MapSeq, MapWrg
from ..core.primitives.stencil import Slide
from .rules import RewriteRule


def _is_plain_map(fun: FunDecl) -> bool:
    """True for the high-level ``map`` (not its lowered variants)."""
    return isinstance(fun, Map) and not isinstance(fun, (MapGlb, MapWrg, MapLcl, MapSeq))


# ---------------------------------------------------------------------------
# Pattern matching for (multi-dimensional) stencil expressions
# ---------------------------------------------------------------------------

@dataclass
class StencilMatch:
    """A recognised ``mapN(f, slideN(size, step, input))`` expression."""

    ndims: int
    f: FunDecl
    size: ArithExpr
    step: ArithExpr
    input: Expr


def match_map_nd(expr: Expr) -> Optional[Tuple[int, FunDecl, Expr]]:
    """Recognise ``mapN(f, arg)`` built by :func:`repro.core.builders.map_nd`.

    Returns ``(N, f, arg)`` for the deepest such nesting, or ``None``.
    """
    if not (isinstance(expr, FunCall) and _is_plain_map(expr.fun) and len(expr.args) == 1):
        return None
    f = expr.fun.f  # type: ignore[union-attr]
    arg = expr.args[0]
    depth = 1
    # map_nd wraps f as λx. map(f', x); peel those wrappers off.
    while (
        isinstance(f, Lambda)
        and len(f.params) == 1
        and isinstance(f.body, FunCall)
        and _is_plain_map(f.body.fun)
        and len(f.body.args) == 1
        and f.body.args[0] is f.params[0]
    ):
        f = f.body.fun.f  # type: ignore[union-attr]
        depth += 1
    return depth, f, arg


def match_slide_nd(expr: Expr) -> Optional[Tuple[int, ArithExpr, ArithExpr, Expr]]:
    """Recognise ``slideN(size, step, input)`` built by :func:`slide_nd`.

    Returns ``(N, size, step, input)`` or ``None``.
    """
    # Base case: a plain 1-D slide.
    if isinstance(expr, FunCall) and isinstance(expr.fun, Slide):
        return 1, expr.fun.size, expr.fun.step, expr.args[0]

    # Recursive case: map(reorder, slide(size, step, map(λx. slideN-1(x), input)))
    if not (isinstance(expr, FunCall) and _is_plain_map(expr.fun) and len(expr.args) == 1):
        return None
    reorder = expr.fun.f  # type: ignore[union-attr]
    if not _is_reorder_lambda(reorder):
        return None
    outer = expr.args[0]
    if not (isinstance(outer, FunCall) and isinstance(outer.fun, Slide)):
        return None
    size, step = outer.fun.size, outer.fun.step
    inner_map = outer.args[0]
    if not (
        isinstance(inner_map, FunCall)
        and _is_plain_map(inner_map.fun)
        and len(inner_map.args) == 1
    ):
        return None
    inner_fn = inner_map.fun.f  # type: ignore[union-attr]
    if not (isinstance(inner_fn, Lambda) and len(inner_fn.params) == 1):
        return None
    inner = match_slide_nd(inner_fn.body)
    if inner is None:
        return None
    inner_dims, inner_size, inner_step, inner_input = inner
    if inner_input is not inner_fn.params[0]:
        return None
    if inner_size != size or inner_step != step:
        return None
    return inner_dims + 1, size, step, inner_map.args[0]


def _is_reorder_lambda(f: FunDecl) -> bool:
    """True when ``f`` is a lambda built only from ``map``/``transpose`` on its parameter.

    This is the shape of the dimension-reordering step of ``slideN``.
    """
    if not (isinstance(f, Lambda) and len(f.params) == 1):
        return False

    def only_reordering(expr: Expr, param: Param) -> bool:
        if expr is param:
            return True
        if isinstance(expr, FunCall):
            fun = expr.fun
            if isinstance(fun, Transpose) and len(expr.args) == 1:
                return only_reordering(expr.args[0], param)
            if _is_plain_map(fun) and len(expr.args) == 1:
                nested = fun.f  # type: ignore[union-attr]
                if isinstance(nested, Lambda) and len(nested.params) == 1:
                    if not only_reordering(nested.body, nested.params[0]):
                        return False
                elif not isinstance(nested, Transpose):
                    return False
                return only_reordering(expr.args[0], param)
        return False

    return only_reordering(f.body, f.params[0])


def match_stencil(expr: Expr) -> Optional[StencilMatch]:
    """Recognise a full ``mapN(f, slideN(size, step, input))`` stencil expression."""
    mapped = match_map_nd(expr)
    if mapped is None:
        return None
    map_dims, f, arg = mapped
    slid = match_slide_nd(arg)
    if slid is None:
        return None
    slide_dims, size, step, input_expr = slid
    if map_dims != slide_dims:
        # A deeper map nest can still be a stencil over slideN if the extra map
        # levels belong to the user function (e.g. mapping over a tuple); only
        # treat exact matches as stencils to stay conservative.
        return None
    if _is_reorder_lambda(f) or isinstance(f, (Transpose,)):
        # A map whose function only reorders data (e.g. the map(transpose) step
        # inside slideN itself) performs no computation and is not a stencil.
        return None
    return StencilMatch(slide_dims, f, size, step, input_expr)


# ---------------------------------------------------------------------------
# Classic Lift rules reused by the stencil work
# ---------------------------------------------------------------------------

class MapFusionRule(RewriteRule):
    """``map(f, map(g, in)) ↦ map(f ∘ g, in)`` — removes an intermediate array."""

    name = "mapFusion"

    def matches(self, expr: Expr) -> bool:
        return (
            isinstance(expr, FunCall)
            and _is_plain_map(expr.fun)
            and len(expr.args) == 1
            and isinstance(expr.args[0], FunCall)
            and _is_plain_map(expr.args[0].fun)
        )

    def rewrite(self, expr: Expr) -> Expr:
        outer_f = expr.fun.f  # type: ignore[union-attr]
        inner_call = expr.args[0]
        inner_f = inner_call.fun.f  # type: ignore[union-attr]
        composed = L.fun_n(1, lambda x: FunCall(outer_f, FunCall(inner_f, x)))
        return L.map(composed, inner_call.args[0])


class SplitJoinRule(RewriteRule):
    """``map(f, in) ↦ join(map(map(f), split(n, in)))`` — introduces a 2-level nest."""

    name = "splitJoin"

    def __init__(self, chunk: int) -> None:
        self.chunk = chunk

    def matches(self, expr: Expr) -> bool:
        return isinstance(expr, FunCall) and _is_plain_map(expr.fun) and len(expr.args) == 1

    def rewrite(self, expr: Expr) -> Expr:
        f = expr.fun.f  # type: ignore[union-attr]
        chunk = self.chunk
        return L.join(
            L.map(lambda row: L.map(f, row), L.split(chunk, expr.args[0]))
        )


class MapJoinInterchangeRule(RewriteRule):
    """``map(f, join(in)) ↦ join(map(map(f), in))`` — first half of the tiling proof."""

    name = "mapJoinInterchange"

    def matches(self, expr: Expr) -> bool:
        return (
            isinstance(expr, FunCall)
            and _is_plain_map(expr.fun)
            and len(expr.args) == 1
            and isinstance(expr.args[0], FunCall)
            and isinstance(expr.args[0].fun, Join)
        )

    def rewrite(self, expr: Expr) -> Expr:
        f = expr.fun.f  # type: ignore[union-attr]
        inner = expr.args[0].args[0]
        return L.join(L.map(lambda row: L.map(f, row), inner))


class SlideTilingDecompositionRule(RewriteRule):
    """``slide(size, step, in) ↦ join(map(slide(size, step), slide(u, v, in)))``.

    The second half of the paper's decomposition of the tiling rule; valid when
    ``size − step = u − v``.
    """

    name = "slideTilingDecomposition"

    def __init__(self, tile_size: int) -> None:
        self.tile_size = tile_size

    def matches(self, expr: Expr) -> bool:
        return isinstance(expr, FunCall) and isinstance(expr.fun, Slide)

    def rewrite(self, expr: Expr) -> Expr:
        slide_prim: Slide = expr.fun  # type: ignore[assignment]
        size, step = slide_prim.size, slide_prim.step
        u = Cst(self.tile_size)
        v = u - (size - step)
        return L.join(
            L.map(lambda tile: L.slide(size, step, tile), L.slide(u, v, expr.args[0]))
        )


# ---------------------------------------------------------------------------
# Overlapped tiling (the paper's new rule)
# ---------------------------------------------------------------------------

def tile_overlap(size: ArithExpr, step: ArithExpr) -> ArithExpr:
    """The overlap between consecutive tiles required by the validity constraint."""
    return size - step


def tile_exceeds_overlap(tile_size: int, size: int, step: int) -> bool:
    """The structural constraint of overlapped tiling: ``u > size − step``.

    Only then is the tile step ``v = u − (size − step)`` positive, so that
    consecutive tiles advance over the input.
    """
    return tile_size > size - step


def tiling_is_valid(
    input_length: int, size: int, step: int, tile_size: int
) -> bool:
    """Check the tiling parameters against a concrete (padded) input length.

    The rewrite preserves semantics when the tile step ``v = u − (size − step)``
    is positive and tiles exactly cover the input, i.e. both ``slide`` calls on
    the right-hand side produce whole windows covering every neighbourhood.
    """
    if not tile_exceeds_overlap(tile_size, size, step) or tile_size < size:
        return False
    tile_step = tile_size - (size - step)
    if (input_length - tile_size) % tile_step != 0:
        return False
    if (tile_size - size) % step != 0:
        return False
    lhs_windows = (input_length - size + step) // step
    tiles = (input_length - tile_size + tile_step) // tile_step
    per_tile = (tile_size - size + step) // step
    return lhs_windows == tiles * per_tile


class TileStencilNDRule(RewriteRule):
    """Overlapped tiling in N dimensions (paper §4.1, "tiling in higher dimensions").

    The rule matches ``mapN(f, slideN(size, step, input))`` and produces::

        recombine(mapN(tile ⇒ mapN(f, slideN(size, step, tile)),
                       slideN(u, v, input)))

    where ``recombine`` flattens the per-tile results back into the output grid
    using only ``map``, ``transpose`` and ``join`` (matching the 2-D rule shown
    in the paper: ``map(join, join(map(transpose, ...)))``).
    """

    name = "tileStencilND"

    def __init__(self, tile_size: int, ndims: Optional[int] = None) -> None:
        self.tile_size = int(tile_size)
        self.ndims = ndims

    def matches(self, expr: Expr) -> bool:
        match = match_stencil(expr)
        if match is None:
            return False
        if self.ndims is not None and match.ndims != self.ndims:
            return False
        return True

    def rewrite(self, expr: Expr) -> Expr:
        match = match_stencil(expr)
        assert match is not None
        nd = match.ndims
        f, size, step = match.f, match.size, match.step
        u = Cst(self.tile_size)
        v = u - tile_overlap(size, step)

        tiles = L.slide_nd(u, v, match.input, nd)
        per_tile = L.fun_n(
            1, lambda tile: L.map_nd(f, L.slide_nd(size, step, tile, nd), nd)
        )
        tiled = L.map_nd(per_tile, tiles, nd)
        return recombine_tiles(tiled, nd)


def recombine_tiles(expr: Expr, ndims: int) -> Expr:
    """Flatten a ``[tiles…][outputs-per-tile…]`` nest into the output grid.

    For one dimension this is a plain ``join``; for two dimensions it is the
    paper's ``map(join, join(map(transpose, …)))``; higher dimensions recurse.
    """
    if ndims == 1:
        return L.join(expr)
    moved = L.map(lambda y: _move_dim_to_front(y, ndims - 1), expr)
    flattened_outer = L.join(moved)
    return L.map(lambda w: recombine_tiles(w, ndims - 1), flattened_outer)


def _move_dim_to_front(expr: Expr, depth: int) -> Expr:
    """Move the dimension at nesting ``depth`` to the outermost position."""
    if depth <= 0:
        return expr
    if depth == 1:
        return L.transpose(expr)
    return L.transpose(L.map(lambda z: _move_dim_to_front(z, depth - 1), expr))


__all__ = [
    "StencilMatch",
    "match_map_nd",
    "match_slide_nd",
    "match_stencil",
    "MapFusionRule",
    "SplitJoinRule",
    "MapJoinInterchangeRule",
    "SlideTilingDecompositionRule",
    "TileStencilNDRule",
    "recombine_tiles",
    "tile_exceeds_overlap",
    "tile_overlap",
    "tiling_is_valid",
]
