"""The two stencil primitives added by the CGO'18 paper: ``pad`` and ``slide``.

``pad`` handles boundary conditions.  Its re-indexing variant (:class:`Pad`)
enlarges an array by ``l`` elements on the left and ``r`` elements on the
right; the extra elements are read from inside the original array via an index
function such as *clamp*, *mirror* or *wrap*.  The value variant
(:class:`PadConstant`) appends generated values instead (used for constant or
dampening boundaries).

``slide`` creates the stencil neighbourhoods: ``slide(size, step, in)`` groups
``size`` consecutive elements into a window and moves the window by ``step``,
producing ``(n − size + step) / step`` windows.

Both primitives are pure data-layout operations; during code generation they
are realised as *views* (index arithmetic) rather than memory copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from ..arithmetic import ArithExpr, ArithLike, _as_arith, arith_max, arith_min, exact_div
from ..ir import Expr, Literal, Primitive
from ..types import ArrayType, Type, TypeError_


@dataclass(frozen=True)
class Boundary:
    """A re-indexing boundary condition for :class:`Pad`.

    Attributes
    ----------
    name:
        The name programs are printed and serialised with.
    index_fn:
        ``(i, n, min=min, max=max) -> j`` mapping a possibly out-of-range
        index ``i`` into the valid range ``[0, n)``.  It is the one definition
        of the boundary: on ``int`` s with the built-in ``min``/``max`` it
        serves the interpreter and the NumPy backend's index tables
        (:meth:`__call__`); on :class:`~repro.core.arithmetic.ArithExpr`
        indices it builds the index of generated code (:meth:`index`).
    """

    name: str
    index_fn: Callable[..., ArithLike]

    def __call__(self, i: int, n: int) -> int:
        j = self.index_fn(i, n)
        if not 0 <= j < n:
            raise ValueError(
                f"boundary function {self.name} mapped {i} to {j}, outside [0, {n})"
            )
        return j

    def index(self, i: ArithLike, n: ArithLike) -> ArithExpr:
        """The boundary map of a symbolic index."""
        return self.index_fn(_as_arith(i), n, min=arith_min, max=arith_max)


def _clamp(i, n, min=min, max=max):
    return min(max(i, 0), n - 1)


def _mirror(i, n, min=min, max=max):
    reflected = max(i, -1 - i)
    return _clamp(min(reflected, 2 * n - 1 - reflected), n, min, max)


def _wrap(i, n, min=min, max=max):
    return i % n


#: Repeat the value at the boundary (``A[-1] == A[0]``).
CLAMP = Boundary("clamp", _clamp)
#: Reflect indices at the boundary (``A[-1] == A[0]``, ``A[-2] == A[1]``);
#: a pad wider than the input clamps what one reflection leaves outside.
MIRROR = Boundary("mirror", _mirror)
#: Wrap indices around (periodic boundary).
WRAP = Boundary("wrap", _wrap)

BOUNDARIES = {"clamp": CLAMP, "mirror": MIRROR, "wrap": WRAP}


class Pad(Primitive):
    """Enlarge an array by re-indexing into it at the boundaries.

    Type rule (paper §3.2)::

        pad : (l, r, h : (Int, Int) -> Int, in : [T]_n) -> [T]_{l+n+r}
    """

    name = "pad"

    def __init__(self, left: int, right: int, boundary: Boundary) -> None:
        super().__init__()
        self.left = int(left)
        self.right = int(right)
        self.boundary = boundary
        if self.left < 0 or self.right < 0:
            raise ValueError("pad amounts must be non-negative")

    def arity(self) -> int:
        return 1

    def static_key(self) -> Tuple:
        return (self.left, self.right, self.boundary.name)

    def infer_type(self, arg_types: Sequence[Type], args: Sequence[Expr]) -> Type:
        in_type = arg_types[0]
        if not isinstance(in_type, ArrayType):
            raise TypeError_(f"pad expects an array argument, got {in_type!r}")
        return ArrayType(in_type.elem_type, in_type.size + self.left + self.right)


class PadConstant(Primitive):
    """Enlarge an array by appending a constant value at the boundaries.

    This is the second ``pad`` variant described in the paper, used for
    constant (e.g. zero) boundary conditions such as the acoustic benchmark's
    ``pad3(1, 1, 1, zero, grid)``.
    """

    name = "padConstant"

    def __init__(self, left: int, right: int, value: Expr) -> None:
        super().__init__()
        self.left = int(left)
        self.right = int(right)
        self.value = value
        if self.left < 0 or self.right < 0:
            raise ValueError("pad amounts must be non-negative")

    def arity(self) -> int:
        return 1

    def static_key(self) -> Tuple:
        value_key = self.value.value if isinstance(self.value, Literal) else id(self.value)
        return (self.left, self.right, value_key)

    def nested_functions(self) -> Tuple[Expr, ...]:
        return (self.value,)

    def with_nested_functions(self, nested: Tuple[Expr, ...]) -> "PadConstant":
        return type(self)(self.left, self.right, nested[0])

    def infer_type(self, arg_types: Sequence[Type], args: Sequence[Expr]) -> Type:
        in_type = arg_types[0]
        if not isinstance(in_type, ArrayType):
            raise TypeError_(f"padConstant expects an array argument, got {in_type!r}")
        return ArrayType(in_type.elem_type, in_type.size + self.left + self.right)


class Slide(Primitive):
    """Group elements into overlapping windows (neighbourhood creation).

    Type rule (paper §3.2)::

        slide : (size, step, in : [T]_n) -> [[T]_size]_{(n - size + step) / step}
    """

    name = "slide"

    def __init__(self, size: ArithLike, step: ArithLike) -> None:
        super().__init__()
        self.size = _as_arith(size)
        self.step = _as_arith(step)
        if self.size.is_constant() and self.size.evaluate() <= 0:
            raise ValueError("slide window size must be positive")
        if self.step.is_constant() and self.step.evaluate() <= 0:
            raise ValueError("slide step must be positive")

    def arity(self) -> int:
        return 1

    def static_key(self) -> Tuple:
        return (self.size, self.step)

    def infer_type(self, arg_types: Sequence[Type], args: Sequence[Expr]) -> Type:
        in_type = arg_types[0]
        if not isinstance(in_type, ArrayType):
            raise TypeError_(f"slide expects an array argument, got {in_type!r}")
        window_count = exact_div(
            in_type.size - self.size + self.step, self.step, allow_floor=True
        )
        return ArrayType(
            ArrayType(in_type.elem_type, self.size),
            window_count,
        )


__all__ = [
    "Boundary",
    "CLAMP",
    "MIRROR",
    "WRAP",
    "BOUNDARIES",
    "Pad",
    "PadConstant",
    "Slide",
]
