"""Views: how Lift reads memory without materialising intermediate arrays.

The paper (§5) explains that ``pad``, ``slide``, ``split``, ``join``,
``transpose`` and ``zip`` are never compiled into memory copies.  Instead they
become *views*: compiler-internal data structures that record how indices of
the conceptual (reorganised) array map back to indices of the underlying
buffer.  When the generated kernel finally reads a scalar, the chain of views
collapses into a single index expression.

A :class:`View` here is an object with two operations:

``access(index)``
    index the outermost dimension with a
    :class:`~repro.core.arithmetic.ArithExpr` (or an ``int``), producing the
    view of the selected element; the work-item and loop indices of a kernel
    are :class:`~repro.core.arithmetic.Var` s;
``scalar_ref()``
    render the C r-value expression for a fully-indexed scalar.  This is
    where an index is printed (:func:`~repro.core.arithmetic.to_c`), once,
    after the arithmetic has simplified it.

:func:`layout_view` is the one rule per layout primitive: the view that
``pad``, ``slide``, ``split``, ``join``, ``transpose``, ``zip`` (and the
tuple, element and generated-array primitives) make of their arguments'
views, each written as the index function of a :class:`ViewIndexed`.  The
walk over a lowered expression is the code generator's
(:meth:`repro.codegen.generator._KernelGenerator.gen_value`): it builds the
argument views, calls :func:`layout_view`, and maps a function over a view as
a :class:`ViewIndexed` that applies it to each element.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

from ..core.arithmetic import ArithExpr, ArithLike, _as_arith, lower_bound, to_c
from ..core.ir import Literal
from ..core.primitives.algorithmic import (
    ArrayConstructor,
    At,
    Get,
    Id,
    Join,
    Split,
    Transpose,
    TupleCons,
    Zip,
)
from ..core.primitives.stencil import CLAMP, Pad, PadConstant, Slide
from ..core.types import ArrayType, Type


class ViewError(Exception):
    """Raised when an expression cannot be turned into a view."""


class View:
    """Base class of all views."""

    def access(self, index: ArithLike) -> "View":
        raise ViewError(f"{type(self).__name__} cannot be indexed")

    def get(self, component: int) -> "View":
        raise ViewError(f"{type(self).__name__} is not a tuple view")

    def scalar_ref(self) -> str:
        raise ViewError(f"{type(self).__name__} is not a scalar view")

    def is_scalar(self) -> bool:
        return False


class ViewMemory(View):
    """A view of a linear buffer with a (row-major) multi-dimensional shape.

    ``shape`` holds one extent per remaining dimension; ``offset`` is the
    flat index of the dimensions indexed so far.
    """

    def __init__(self, buffer: str, shape: Sequence[ArithLike],
                 offset: ArithLike = 0) -> None:
        self.buffer = buffer
        self.shape = list(shape)
        self.offset = offset

    def access(self, index: ArithLike) -> View:
        if not self.shape:
            raise ViewError(f"buffer {self.buffer} is already fully indexed")
        stride = math.prod(self.shape[1:])
        return ViewMemory(self.buffer, self.shape[1:], self.offset + _as_arith(index) * stride)

    def scalar_ref(self) -> str:
        if self.shape:
            raise ViewError(
                f"buffer {self.buffer} still has {len(self.shape)} unindexed dimensions"
            )
        return f"{self.buffer}[{to_c(self.offset)}]"

    def is_scalar(self) -> bool:
        return not self.shape


class ViewScalar(View):
    """A scalar C expression (literal, user-function result, generated value)."""

    def __init__(self, expression: str) -> None:
        self.expression = expression

    def scalar_ref(self) -> str:
        return self.expression

    def is_scalar(self) -> bool:
        return True


class ViewGenerated(View):
    """A lazily generated array (the ``array`` primitive): no memory is read."""

    def __init__(self, c_expression: str, size: ArithLike,
                 index_so_far: Optional[List[ArithLike]] = None) -> None:
        self.c_expression = c_expression
        self.size = size
        self.index_so_far = index_so_far or []

    def access(self, index: ArithLike) -> View:
        return ViewGenerated(self.c_expression, self.size, self.index_so_far + [index])

    def scalar_ref(self) -> str:
        if not self.index_so_far:
            raise ViewError("generated array accessed as a scalar without an index")
        indices = [to_c(index) for index in self.index_so_far]
        return self.c_expression.format(i=indices[-1], n=to_c(self.size), indices=indices)

    def is_scalar(self) -> bool:
        return bool(self.index_so_far)


class ViewIndexed(View):
    """A view whose element ``i`` is ``rule(i)``: how ``map`` and every
    layout primitive but the tuple ones re-index the views they read."""

    def __init__(self, rule: Callable[[ArithExpr], View]) -> None:
        self.rule = rule

    def access(self, index: ArithLike) -> View:
        return self.rule(_as_arith(index))


class ViewGuarded(View):
    """A view whose reads are guarded by a boundary condition (constant ``pad``).

    The guard composes through further indexing so that a fully-indexed scalar
    read renders as ``cond ? constant : inner``; directly nested guards with
    the same constant share one ``||``.
    """

    def __init__(self, condition: str, constant: str, inner: View) -> None:
        self.condition = condition
        self.constant = constant
        self.inner = inner

    def access(self, index: ArithLike) -> View:
        return ViewGuarded(self.condition, self.constant, self.inner.access(index))

    def get(self, component: int) -> View:
        return ViewGuarded(self.condition, self.constant, self.inner.get(component))

    def scalar_ref(self) -> str:
        conditions, view = [], self
        while isinstance(view, ViewGuarded) and view.constant == self.constant:
            conditions.append(view.condition)
            view = view.inner
        return f"(({' || '.join(conditions)}) ? {self.constant} : {view.scalar_ref()})"

    def is_scalar(self) -> bool:
        return self.inner.is_scalar()


class ViewTuple(View):
    """A tuple of views, as produced by indexing a ``zip`` view."""

    def __init__(self, components: Sequence[View]) -> None:
        self.components = list(components)

    def get(self, component: int) -> View:
        return self.components[component]


# ---------------------------------------------------------------------------
# The view rule of each layout primitive
# ---------------------------------------------------------------------------

def layout_view(fun, parent_views: Sequence[View],
                arg_types: Sequence[Optional[Type]]) -> View:
    """The view that the layout primitive ``fun`` makes of its arguments' views.

    ``arg_types`` are the arguments' types: ``pad``, ``padConstant`` and
    ``join`` read their argument's sizes from them (a mapped element's type
    is its map argument's ``elem_type``).  ``padConstant`` takes the scalar
    view of its value after its argument's.
    """
    parent = parent_views[0] if parent_views else None
    arg_type = arg_types[0] if arg_types else None
    if isinstance(fun, Id):
        return parent
    if isinstance(fun, Pad):
        size, boundary = array_size(arg_type), fun.boundary
        return ViewIndexed(lambda i: parent.access(boundary.index(i - fun.left, size)))
    if isinstance(fun, PadConstant):
        # the read the guard skips is clamped too, so no index leaves the parent
        size, constant = array_size(arg_type), parent_views[1].scalar_ref()
        return ViewIndexed(lambda i: ViewGuarded(
            _outside(i - fun.left, size), constant,
            parent.access(CLAMP.index(i - fun.left, size))))
    if isinstance(fun, (Slide, Split)):
        # split(m) indexes exactly like slide(m, m)
        step = fun.step if isinstance(fun, Slide) else fun.chunk
        return ViewIndexed(lambda i: ViewIndexed(lambda j: parent.access(i * step + j)))
    if isinstance(fun, Join):
        inner = array_size(arg_type, depth=1)
        return ViewIndexed(lambda i: parent.access(i // inner).access(i % inner))
    if isinstance(fun, Transpose):
        return ViewIndexed(lambda i: ViewIndexed(lambda j: parent.access(j).access(i)))
    if isinstance(fun, Zip):
        return ViewIndexed(lambda i: ViewTuple([view.access(i) for view in parent_views]))
    if isinstance(fun, TupleCons):
        return ViewTuple(parent_views)
    if isinstance(fun, At):
        return parent.access(fun.index)
    if isinstance(fun, Get):
        return parent.get(fun.index)
    if isinstance(fun, ArrayConstructor):
        return ViewGenerated(fun.c_expression or "0.0f", fun.size)
    raise ViewError(f"{getattr(fun, 'name', type(fun).__name__)!r} has no view rule")


def _outside(i: ArithExpr, size: ArithLike) -> str:
    """The C condition that ``i`` lies outside ``[0, size)``."""
    tests = [f"{to_c(i)} >= {to_c(size)}"]
    bound = lower_bound(i)
    if bound is None or bound < 0:
        tests.insert(0, f"{to_c(i)} < 0")
    return " || ".join(tests)


def c_literal(literal: Literal) -> str:
    """A literal as C text (``1.5`` → ``1.5f``)."""
    value = literal.value
    if isinstance(value, float):
        return f"{value}f"
    return str(value)


def array_size(type_: Optional[Type], depth: int = 0) -> ArithExpr:
    """The extent of ``type_`` (``depth`` 1: of its elements)."""
    for _ in range(depth):
        type_ = getattr(type_, "elem_type", None)
    if not isinstance(type_, ArrayType):
        raise ViewError("cannot determine an array size: the expression is not "
                        "typed as an array of that depth")
    return type_.size


__all__ = [
    "View",
    "ViewError",
    "ViewMemory",
    "ViewScalar",
    "ViewGenerated",
    "ViewIndexed",
    "ViewGuarded",
    "ViewTuple",
    "layout_view",
    "c_literal",
    "array_size",
]
