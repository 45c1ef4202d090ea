"""The user-facing embedded DSL for constructing Lift expressions.

These helpers mirror the surface syntax used in the paper's listings.  A
3-point Jacobi stencil (Listing 2) is written as::

    from repro.core import builders as L
    from repro.core.userfuns import add

    sum_nbh = L.fun_n(1, lambda nbh: L.reduce(add, 0.0, nbh))
    stencil = L.fun([L.array_type(L.Float, "N")], lambda a:
        L.map(sum_nbh, L.slide(3, 1, L.pad(1, 1, L.CLAMP, a))))

Multi-dimensional wrappers (``map_nd``, ``pad_nd``, ``slide_nd``) follow the
recursive definitions of Section 3.4 of the paper, composing the 1-D
primitives with ``map`` and ``transpose``.
"""

from __future__ import annotations

import builtins

from typing import Callable, List, Optional, Sequence, Union

from .arithmetic import ArithLike, Var
from .ir import Expr, FunCall, FunDecl, Lambda, Literal, Param
from .primitives.algorithmic import (
    ArrayConstructor,
    At,
    Get,
    Id,
    Iterate,
    Join,
    Map,
    Reduce,
    Split,
    Transpose,
    TupleCons,
    Zip,
)
from .primitives.opencl import (
    MapGlb,
    MapLcl,
    MapSeq,
    MapWrg,
    ReduceSeq,
    ReduceUnroll,
    ToGlobal,
    ToLocal,
    ToPrivate,
)
from .primitives.stencil import BOUNDARIES, Boundary, CLAMP, MIRROR, WRAP, Pad, PadConstant, Slide
from .types import Float, Int, Type
from .types import array as array_type

FunLike = Union[FunDecl, Callable[..., Expr]]
ExprLike = Union[Expr, float, int]


# ---------------------------------------------------------------------------
# Coercions
# ---------------------------------------------------------------------------

def lit(value: ExprLike, type_: Type = Float) -> Expr:
    """Coerce a Python number into a :class:`Literal` (expressions pass through)."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean literals are not supported")
    if isinstance(value, int) and type_ is Float:
        type_ = Int if not isinstance(value, float) else Float
    return Literal(value, type_)


def fun_n(arity: int, builder: Callable[..., Expr], names: Optional[Sequence[str]] = None) -> Lambda:
    """Build a :class:`Lambda` of the given arity from a Python body builder."""
    if names is None:
        names = [None] * arity
    params = [Param(name) for name in names]
    body = builder(*params)
    return Lambda(params, lit(body))


def fun(param_types: Sequence[Type], builder: Callable[..., Expr],
        names: Optional[Sequence[str]] = None) -> Lambda:
    """Build a closed top-level :class:`Lambda` with typed parameters.

    ``param_types`` gives the types of the program inputs; the Python
    ``builder`` receives the parameter expressions and returns the body.
    """
    if names is None:
        names = [None] * len(param_types)
    params = [
        Param(name, type_) for name, type_ in builtins.zip(names, param_types)
    ]
    body = builder(*params)
    return Lambda(params, lit(body))


def _as_fundecl(f: FunLike, arity: int = 1) -> FunDecl:
    """Coerce a Python callable into a :class:`Lambda`; pass declarations through."""
    if isinstance(f, FunDecl):
        return f
    if callable(f):
        return fun_n(arity, f)
    raise TypeError(f"expected a function, got {f!r}")


# ---------------------------------------------------------------------------
# Algorithmic primitives
# ---------------------------------------------------------------------------

def map(f: FunLike, arg: Expr) -> FunCall:  # noqa: A001 - mirrors the paper's name
    """``map(f, in)`` — apply ``f`` to every element of ``in``."""
    return FunCall(Map(_as_fundecl(f)), arg)


def reduce(f: FunLike, init: ExprLike, arg: Expr) -> FunCall:  # noqa: A001
    """``reduce(init, f, in)`` — reduce ``in`` with operator ``f``."""
    return FunCall(Reduce(_as_fundecl(f, 2), lit(init)), arg)


def iterate(count: int, f: FunLike, arg: Expr) -> FunCall:
    """``iterate(in, f, m)`` — apply ``f`` to ``in`` ``m`` times."""
    return FunCall(Iterate(count, _as_fundecl(f)), arg)


def zip(*args: Expr) -> FunCall:  # noqa: A001
    """``zip(in1, in2, ...)`` — combine equal-length arrays into tuples."""
    return FunCall(Zip(len(args)), *args)


def split(chunk: ArithLike, arg: Expr) -> FunCall:
    """``split(m, in)`` — split into chunks of ``m`` elements."""
    return FunCall(Split(chunk), arg)


def join(arg: Expr) -> FunCall:
    """``join(in)`` — flatten the two outermost dimensions."""
    return FunCall(Join(), arg)


def transpose(arg: Expr) -> FunCall:
    """``transpose(in)`` — swap the two outermost dimensions."""
    return FunCall(Transpose(), arg)


def at(index: int, arg: Expr) -> FunCall:
    """``in[i]`` — constant-index array access."""
    return FunCall(At(index), arg)


def get(index: int, arg: Expr) -> FunCall:
    """``in.i`` — tuple component access."""
    return FunCall(Get(index), arg)


def tuple_(*args: ExprLike) -> FunCall:
    """Construct a tuple value."""
    return FunCall(TupleCons(len(args)), *[lit(a) for a in args])


def array(size: ArithLike, generator: Callable[[int, int], object],
          elem_type: Type = Float, c_expression: Optional[str] = None) -> FunCall:
    """``array(n, f)`` — lazily generated array (e.g. the acoustic obstacle mask)."""
    return FunCall(ArrayConstructor(size, generator, elem_type, c_expression))


def id_(arg: Expr) -> FunCall:
    """Identity application, used to introduce explicit copies."""
    return FunCall(Id(), arg)


# ---------------------------------------------------------------------------
# Stencil primitives (the paper's additions)
# ---------------------------------------------------------------------------

def pad(left: int, right: int, boundary: Union[Boundary, str], arg: Expr) -> FunCall:
    """``pad(l, r, h, in)`` — boundary handling by re-indexing (clamp/mirror/wrap)."""
    if isinstance(boundary, str):
        boundary = BOUNDARIES[boundary]
    return FunCall(Pad(left, right, boundary), arg)


def pad_constant(left: int, right: int, value: ExprLike, arg: Expr) -> FunCall:
    """``pad(l, r, value, in)`` — boundary handling by appending a constant value."""
    return FunCall(PadConstant(left, right, lit(value)), arg)


def slide(size: ArithLike, step: ArithLike, arg: Expr) -> FunCall:
    """``slide(size, step, in)`` — create overlapping neighbourhoods/tiles."""
    return FunCall(Slide(size, step), arg)


# ---------------------------------------------------------------------------
# Low-level (OpenCL) primitives — for writing lowered programs by hand
# ---------------------------------------------------------------------------

def map_glb(f: FunLike, arg: Expr, dim: int = 0) -> FunCall:
    return FunCall(MapGlb(_as_fundecl(f), dim), arg)


def map_wrg(f: FunLike, arg: Expr, dim: int = 0) -> FunCall:
    return FunCall(MapWrg(_as_fundecl(f), dim), arg)


def map_lcl(f: FunLike, arg: Expr, dim: int = 0) -> FunCall:
    return FunCall(MapLcl(_as_fundecl(f), dim), arg)


def map_seq(f: FunLike, arg: Expr) -> FunCall:
    return FunCall(MapSeq(_as_fundecl(f)), arg)


def reduce_seq(f: FunLike, init: ExprLike, arg: Expr) -> FunCall:
    return FunCall(ReduceSeq(_as_fundecl(f, 2), lit(init)), arg)


def reduce_unroll(f: FunLike, init: ExprLike, arg: Expr) -> FunCall:
    return FunCall(ReduceUnroll(_as_fundecl(f, 2), lit(init)), arg)


def to_local(f: FunLike, arg: Expr) -> FunCall:
    return FunCall(ToLocal(_as_fundecl(f)), arg)


def to_global(f: FunLike, arg: Expr) -> FunCall:
    return FunCall(ToGlobal(_as_fundecl(f)), arg)


def to_private(f: FunLike, arg: Expr) -> FunCall:
    return FunCall(ToPrivate(_as_fundecl(f)), arg)


# ---------------------------------------------------------------------------
# Multi-dimensional wrappers (paper §3.4)
# ---------------------------------------------------------------------------

def map_nd(f: FunLike, arg: Expr, ndims: int) -> Expr:
    """``mapN(f, in)`` — apply ``f`` to the elements at nesting depth ``ndims``.

    Defined recursively as ``map1 = map`` and
    ``mapN(f, in) = mapN-1(map(f), in)``.
    """
    if ndims < 1:
        raise ValueError("map_nd requires ndims >= 1")
    f_decl = _as_fundecl(f)
    for _ in range(ndims - 1):
        inner = f_decl
        f_decl = fun_n(1, lambda x, inner=inner: map(inner, x))
    return map(f_decl, arg)


def pad_nd(
    left: Union[int, Sequence[int]],
    right: Union[int, Sequence[int]],
    boundary: Union[Boundary, str, Sequence[Union[Boundary, str]]],
    arg: Expr,
    ndims: int,
) -> Expr:
    """``padN(l, r, h, in)`` — boundary handling in every dimension.

    Defined recursively as ``pad1 = pad`` and
    ``padN(l, r, h, in) = mapN-1(pad(l, r, h), padN-1(l, r, h, in))``.

    ``left``, ``right`` and ``boundary`` may be given per dimension
    (outermost first) to support different boundary handling per dimension.
    """
    lefts = _per_dim(left, ndims)
    rights = _per_dim(right, ndims)
    boundaries = _per_dim(boundary, ndims)

    result = arg
    for dim in range(ndims):
        bnd = boundaries[dim]
        if isinstance(bnd, str):
            bnd = BOUNDARIES[bnd]
        pad_fn = fun_n(1, lambda x, l=lefts[dim], r=rights[dim], b=bnd: pad(l, r, b, x))
        if dim == 0:
            result = pad(lefts[0], rights[0], bnd, result)
        else:
            result = map_nd(pad_fn, result, dim)
    return result


def pad_constant_nd(
    left: Union[int, Sequence[int]],
    right: Union[int, Sequence[int]],
    value: ExprLike,
    arg: Expr,
    ndims: int,
) -> Expr:
    """``padN`` with the constant-value variant (e.g. zero boundaries)."""
    lefts = _per_dim(left, ndims)
    rights = _per_dim(right, ndims)
    result = arg
    for dim in range(ndims):
        if dim == 0:
            result = pad_constant(lefts[0], rights[0], value, result)
        else:
            pad_fn = fun_n(
                1, lambda x, l=lefts[dim], r=rights[dim], v=value: pad_constant(l, r, v, x)
            )
            result = map_nd(pad_fn, result, dim)
    return result


def slide_nd(size: ArithLike, step: ArithLike, arg: Expr, ndims: int) -> Expr:
    """``slideN(size, step, in)`` — create N-dimensional neighbourhoods.

    Defined recursively (paper §3.4): slide the inner dimensions via
    ``map(slideN-1)``, slide the outermost dimension, then move the new
    outermost window dimension inwards with ``map``/``transpose`` so that the
    window dimensions end up innermost.
    """
    if ndims < 1:
        raise ValueError("slide_nd requires ndims >= 1")
    if ndims == 1:
        return slide(size, step, arg)

    inner_slide = fun_n(1, lambda x: slide_nd(size, step, x, ndims - 1))
    outer = slide(size, step, map(inner_slide, arg))
    reorder = fun_n(1, lambda w: _move_outer_dim_in(w, ndims - 1))
    return map(reorder, outer)


def _move_outer_dim_in(window: Expr, depth: int) -> Expr:
    """Move the outermost dimension of ``window`` past ``depth`` inner dimensions.

    Realised purely as a combination of ``transpose`` and ``map`` as described
    in the paper: ``move(0) = id`` and
    ``move(k)(w) = map(move(k-1), transpose(w))``.
    """
    if depth <= 0:
        return window
    transposed = transpose(window)
    if depth == 1:
        return transposed
    mover = fun_n(1, lambda x: _move_outer_dim_in(x, depth - 1))
    return map(mover, transposed)


def zip_nd(args: Sequence[Expr], ndims: int) -> Expr:
    """``zipN`` — element-wise zip of equally-shaped N-dimensional arrays.

    Defined by composition: ``zip1 = zip`` and
    ``zipN(a, b, ...) = map(t ⇒ zipN-1(t.0, t.1, ...), zip(a, b, ...))``.
    The acoustic benchmark (paper Listing 3) uses ``zip3``.
    """
    args = list(args)
    if len(args) < 2:
        raise ValueError("zip_nd requires at least two arrays")
    if ndims < 1:
        raise ValueError("zip_nd requires ndims >= 1")
    if ndims == 1:
        return zip(*args)

    def zip_rows(t: Expr) -> Expr:
        components = [get(i, t) for i in range(len(args))]
        return zip_nd(components, ndims - 1)

    return map(fun_n(1, zip_rows), zip(*args))


def stencil_nd(
    f: FunLike,
    size: int,
    step: int,
    left: int,
    right: int,
    boundary: Union[Boundary, str],
    arg: Expr,
    ndims: int,
) -> Expr:
    """The canonical N-dimensional stencil skeleton from the paper:

    ``mapN(f, slideN(size, step, padN(l, r, h, in)))``
    """
    padded = pad_nd(left, right, boundary, arg, ndims)
    windows = slide_nd(size, step, padded, ndims)
    return map_nd(f, windows, ndims)


def _per_dim(value, ndims: int) -> List:
    """Broadcast a scalar setting to one entry per dimension."""
    if isinstance(value, (list, tuple)):
        if len(value) != ndims:
            raise ValueError(f"expected {ndims} per-dimension values, got {len(value)}")
        return list(value)
    return [value] * ndims


__all__ = [
    "Float",
    "Int",
    "CLAMP",
    "MIRROR",
    "WRAP",
    "array_type",
    "Var",
    "lit",
    "fun",
    "fun_n",
    "map",
    "reduce",
    "iterate",
    "zip",
    "split",
    "join",
    "transpose",
    "at",
    "get",
    "tuple_",
    "array",
    "id_",
    "pad",
    "pad_constant",
    "slide",
    "map_glb",
    "map_wrg",
    "map_lcl",
    "map_seq",
    "reduce_seq",
    "reduce_unroll",
    "to_local",
    "to_global",
    "to_private",
    "map_nd",
    "pad_nd",
    "pad_constant_nd",
    "slide_nd",
    "zip_nd",
    "stencil_nd",
]
