"""Views: how Lift reads memory without materialising intermediate arrays.

The paper (§5) explains that ``pad``, ``slide``, ``split``, ``join``,
``transpose`` and ``zip`` are never compiled into memory copies.  Instead they
become *views*: compiler-internal data structures that record how indices of
the conceptual (reorganised) array map back to indices of the underlying
buffer.  When the generated kernel finally reads a scalar, the chain of views
collapses into a single index expression.

A :class:`View` here is an object with two operations:

``access(index)``
    index the outermost dimension with a C index expression (a string or an
    integer), producing the view of the selected element;
``scalar_ref()``
    render the C r-value expression for a fully-indexed scalar.

:func:`layout_view` is the one rule per layout primitive: the view that
``pad``, ``slide``, ``split``, ``join``, ``transpose``, ``zip`` (and the
tuple, element and generated-array primitives) make of their arguments'
views.  The walk over a lowered expression is the code generator's
(:meth:`repro.codegen.generator._KernelGenerator.gen_value`): it builds the
argument views, calls :func:`layout_view`, and hands :class:`ViewMapped` its
own application of the mapped function.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

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
from ..core.primitives.stencil import Pad, PadConstant, Slide
from ..core.types import ArrayType, Type

Index = Union[str, int]


class ViewError(Exception):
    """Raised when an expression cannot be turned into a view."""


def _idx(index: Index) -> str:
    return str(index)


def _simplify_index(expr: str) -> str:
    """Light clean-up of generated index expressions (purely cosmetic)."""
    return expr.replace("+ 0)", ")").replace("(0 + ", "(")


class View:
    """Base class of all views."""

    def access(self, index: Index) -> "View":
        raise ViewError(f"{type(self).__name__} cannot be indexed")

    def get(self, component: int) -> "View":
        raise ViewError(f"{type(self).__name__} is not a tuple view")

    def scalar_ref(self) -> str:
        raise ViewError(f"{type(self).__name__} is not a scalar view")

    def is_scalar(self) -> bool:
        return False


class ViewMemory(View):
    """A view of a linear buffer with a (row-major) multi-dimensional shape.

    ``shape`` holds one extent (C expression string) per remaining dimension;
    ``offset`` accumulates the flat index of the dimensions indexed so far.
    """

    def __init__(self, buffer: str, shape: Sequence[str], offset: str = "0",
                 space: str = "global") -> None:
        self.buffer = buffer
        self.shape = [str(s) for s in shape]
        self.offset = offset
        self.space = space

    def access(self, index: Index) -> View:
        if not self.shape:
            raise ViewError(f"buffer {self.buffer} is already fully indexed")
        head, *rest = self.shape
        stride = "1"
        for extent in rest:
            stride = f"({stride} * {extent})" if stride != "1" else f"({extent})"
        if rest:
            contribution = f"(({_idx(index)}) * {stride})"
        else:
            contribution = f"({_idx(index)})"
        new_offset = f"({self.offset} + {contribution})" if self.offset != "0" else contribution
        return ViewMemory(self.buffer, rest, new_offset, self.space)

    def scalar_ref(self) -> str:
        if self.shape:
            raise ViewError(
                f"buffer {self.buffer} still has {len(self.shape)} unindexed dimensions"
            )
        return _simplify_index(f"{self.buffer}[{self.offset}]")

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

    def __init__(self, c_expression: str, size: str, index_so_far: Optional[List[str]] = None) -> None:
        self.c_expression = c_expression
        self.size = size
        self.index_so_far = index_so_far or []

    def access(self, index: Index) -> View:
        return ViewGenerated(self.c_expression, self.size, self.index_so_far + [_idx(index)])

    def scalar_ref(self) -> str:
        if not self.index_so_far:
            raise ViewError("generated array accessed as a scalar without an index")
        return self.c_expression.format(i=self.index_so_far[-1], n=self.size,
                                         indices=self.index_so_far)


class ViewPad(View):
    """The re-indexing ``pad``: out-of-range indices are mapped back in range."""

    def __init__(self, parent: View, left: int, right: int, size: str, c_template: str) -> None:
        self.parent = parent
        self.left = left
        self.right = right
        self.size = size
        self.c_template = c_template

    def access(self, index: Index) -> View:
        shifted = f"(({_idx(index)}) - {self.left})" if self.left else f"({_idx(index)})"
        mapped = self.c_template.format(i=shifted, n=self.size)
        return self.parent.access(mapped)


class ViewGuarded(View):
    """A view whose reads are guarded by a boundary condition (constant ``pad``).

    The guard composes through further indexing so that a fully-indexed scalar
    read renders as ``cond ? constant : inner``.
    """

    def __init__(self, condition: str, constant: str, inner: View) -> None:
        self.condition = condition
        self.constant = constant
        self.inner = inner

    def access(self, index: Index) -> View:
        return ViewGuarded(self.condition, self.constant, self.inner.access(index))

    def get(self, component: int) -> View:
        return ViewGuarded(self.condition, self.constant, self.inner.get(component))

    def scalar_ref(self) -> str:
        return f"(({self.condition}) ? {self.constant} : {self.inner.scalar_ref()})"

    def is_scalar(self) -> bool:
        return self.inner.is_scalar()


class ViewPadConstant(View):
    """The value variant of ``pad``: boundary reads yield a constant."""

    def __init__(self, parent: View, left: int, right: int, size: str, constant: str) -> None:
        self.parent = parent
        self.left = left
        self.right = right
        self.size = size
        self.constant = constant

    def access(self, index: Index) -> View:
        i = _idx(index)
        shifted = f"(({i}) - {self.left})" if self.left else f"({i})"
        condition = f"({shifted}) < 0 || ({shifted}) >= ({self.size})"
        clamped = f"clamp((int)({shifted}), 0, (int)({self.size}) - 1)"
        return ViewGuarded(condition, self.constant, self.parent.access(clamped))


class ViewSlide(View):
    """``slide(size, step)``: window ``i`` starts at offset ``i * step``."""

    def __init__(self, parent: View, size: str, step: str) -> None:
        self.parent = parent
        self.size = size
        self.step = step

    def access(self, index: Index) -> View:
        return _ViewWindow(self.parent, f"(({_idx(index)}) * ({self.step}))")


class _ViewWindow(View):
    """A window into a parent view starting at a fixed offset."""

    def __init__(self, parent: View, base: str) -> None:
        self.parent = parent
        self.base = base

    def access(self, index: Index) -> View:
        return self.parent.access(f"({self.base} + ({_idx(index)}))")


class ViewJoin(View):
    """``join``: element ``i`` maps to parent element ``(i / m, i % m)``."""

    def __init__(self, parent: View, inner_size: str) -> None:
        self.parent = parent
        self.inner_size = inner_size

    def access(self, index: Index) -> View:
        i = _idx(index)
        outer = f"(({i}) / ({self.inner_size}))"
        inner = f"(({i}) % ({self.inner_size}))"
        return self.parent.access(outer).access(inner)


class ViewTranspose(View):
    """``transpose``: indexing order of the two outermost dimensions is swapped."""

    def __init__(self, parent: View) -> None:
        self.parent = parent

    def access(self, index: Index) -> View:
        return _ViewTransposedRow(self.parent, _idx(index))


class _ViewTransposedRow(View):
    def __init__(self, parent: View, first_index: str) -> None:
        self.parent = parent
        self.first_index = first_index

    def access(self, index: Index) -> View:
        return self.parent.access(index).access(self.first_index)


class ViewZip(View):
    """``zip``: indexing yields a tuple view of the component accesses."""

    def __init__(self, components: Sequence[View]) -> None:
        self.components = list(components)

    def access(self, index: Index) -> View:
        return ViewTuple([c.access(index) for c in self.components])


class ViewTuple(View):
    """A tuple of views, as produced by indexing a ``zip`` view."""

    def __init__(self, components: Sequence[View]) -> None:
        self.components = list(components)

    def get(self, component: int) -> View:
        return self.components[component]


class ViewMapped(View):
    """``map(f)`` over a view: indexing applies ``f`` to the element view.

    ``apply`` is the code generator's application of ``f``.  When ``f`` is a
    layout function (the ``map(slide)`` / ``map(transpose)`` of a composed
    ``slideN``) the element view is pure index arithmetic.
    """

    def __init__(self, parent: View, apply: Callable[[View], View]) -> None:
        self.parent = parent
        self.apply = apply

    def access(self, index: Index) -> View:
        return self.apply(self.parent.access(index))


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
    arg_type = arg_types[0] if arg_types else None
    if isinstance(fun, Id):
        return parent_views[0]
    if isinstance(fun, Pad):
        return ViewPad(parent_views[0], fun.left, fun.right, array_size(arg_type),
                       fun.boundary.c_template)
    if isinstance(fun, PadConstant):
        parent, value = parent_views
        return ViewPadConstant(parent, fun.left, fun.right, array_size(arg_type),
                               value.scalar_ref())
    if isinstance(fun, Slide):
        return ViewSlide(parent_views[0], str(fun.size), str(fun.step))
    if isinstance(fun, Split):
        # split(m) indexes exactly like slide(m, m)
        return ViewSlide(parent_views[0], str(fun.chunk), str(fun.chunk))
    if isinstance(fun, Join):
        return ViewJoin(parent_views[0], array_size(arg_type, depth=1))
    if isinstance(fun, Transpose):
        return ViewTranspose(parent_views[0])
    if isinstance(fun, Zip):
        return ViewZip(parent_views)
    if isinstance(fun, TupleCons):
        return ViewTuple(parent_views)
    if isinstance(fun, At):
        return parent_views[0].access(fun.index)
    if isinstance(fun, Get):
        return parent_views[0].get(fun.index)
    if isinstance(fun, ArrayConstructor):
        return ViewGenerated(fun.c_expression or "0.0f", str(fun.size))
    raise ViewError(f"{getattr(fun, 'name', type(fun).__name__)!r} has no view rule")


def c_literal(literal: Literal) -> str:
    """A literal as C text (``1.5`` → ``1.5f``)."""
    value = literal.value
    if isinstance(value, float):
        return f"{value}f"
    return str(value)


def array_size(type_: Optional[Type], depth: int = 0) -> str:
    """The extent of ``type_`` (``depth`` 1: of its elements) as C text."""
    for _ in range(depth):
        type_ = getattr(type_, "elem_type", None)
    if not isinstance(type_, ArrayType):
        raise ViewError("cannot determine an array size: the expression is not "
                        "typed as an array of that depth")
    return str(type_.size)


__all__ = [
    "View",
    "ViewError",
    "ViewMemory",
    "ViewScalar",
    "ViewGenerated",
    "ViewGuarded",
    "ViewPad",
    "ViewPadConstant",
    "ViewSlide",
    "ViewJoin",
    "ViewTranspose",
    "ViewZip",
    "ViewTuple",
    "ViewMapped",
    "layout_view",
    "c_literal",
    "array_size",
]
