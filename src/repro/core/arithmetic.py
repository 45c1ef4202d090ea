"""Symbolic arithmetic expressions used for array sizes in Lift types.

Array types in Lift carry their length in the type (``[T]_n``).  Lengths are
not always known constants: a stencil program is usually written for an input
of symbolic size ``N`` and only specialised to a concrete size when a kernel
is generated or executed.  This module provides a small symbolic arithmetic
language that supports exactly the operations the type checker and the view
system need:

* constants and named variables,
* addition, subtraction, multiplication,
* exact (assumed-divisible) division as used by ``split``/``slide``,
* ``min`` and ``max`` (the boundary maps of ``pad``),
* substitution of variables by values or other expressions,
* simplification of the common patterns produced by the stencil primitives
  (for example ``(n + 2 - 3 + 1) / 1``),
* printing as OpenCL-C (:func:`to_c`): every index of a generated kernel is
  one of these expressions.

Every variable stands for a non-negative integer, as sizes and work-item
indices do; :func:`lower_bound` builds on that (``max(i, 0)`` is ``i``).

The implementation intentionally favours clarity over algebraic completeness:
expressions are normalised into a sum-of-products form with rational-free
integer coefficients, plus opaque ``FloorDiv`` nodes when an expression cannot
be proven divisible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

Number = Union[int, Fraction]
ArithLike = Union["ArithExpr", int]


class ArithmeticError_(Exception):
    """Raised when an arithmetic operation cannot be performed symbolically."""


def _as_arith(value: ArithLike) -> "ArithExpr":
    """Coerce an ``int`` (or existing expression) into an :class:`ArithExpr`."""
    if isinstance(value, ArithExpr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid arithmetic operands")
    if isinstance(value, int):
        return Cst(value)
    raise TypeError(f"cannot convert {value!r} to an arithmetic expression")


class ArithExpr:
    """Base class of all symbolic arithmetic expressions.

    Instances are immutable and support the usual Python operators, returning
    new (simplified) expressions.
    """

    # -- operator overloads -------------------------------------------------
    def __add__(self, other: ArithLike) -> "ArithExpr":
        if type(other) is int and other == 0:
            return self
        return simplify_sum([self, _as_arith(other)])

    __radd__ = __add__  # sums and products are kept sorted

    def __sub__(self, other: ArithLike) -> "ArithExpr":
        if type(other) is int:
            return self + -other
        return simplify_sum([self, simplify_product([Cst(-1), _as_arith(other)])])

    def __rsub__(self, other: ArithLike) -> "ArithExpr":
        return simplify_sum([_as_arith(other), simplify_product([Cst(-1), self])])

    def __mul__(self, other: ArithLike) -> "ArithExpr":
        if type(other) is int and other == 1:
            return self
        return simplify_product([self, _as_arith(other)])

    __rmul__ = __mul__

    def __floordiv__(self, other: ArithLike) -> "ArithExpr":
        return exact_div(self, _as_arith(other), allow_floor=True)

    def __truediv__(self, other: ArithLike) -> "ArithExpr":
        return exact_div(self, _as_arith(other), allow_floor=True)

    def __mod__(self, other: ArithLike) -> "ArithExpr":
        return modulo(self, _as_arith(other))

    def __neg__(self) -> "ArithExpr":
        return simplify_product([Cst(-1), self])

    # -- queries ------------------------------------------------------------
    def free_variables(self) -> frozenset:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, ArithLike]) -> "ArithExpr":
        """Replace variables by the given values/expressions and simplify."""
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, int] | None = None) -> int:
        """Evaluate to a concrete integer; raise if variables remain unbound."""
        env = env or {}
        result = self.substitute(env)
        if isinstance(result, Cst):
            if result.value != int(result.value):
                raise ArithmeticError_(f"{self} does not evaluate to an integer")
            return int(result.value)
        raise ArithmeticError_(
            f"cannot evaluate {self}: unbound variables {sorted(result.free_variables())}"
        )

    def is_constant(self) -> bool:
        return isinstance(self, Cst)

    # -- comparisons --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Cst(other)
        if not isinstance(other, ArithExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> Tuple:
        """The structural identity (computed once per node)."""
        key = self.__dict__.get("_cached_key")
        if key is None:
            key = self._make_key()
            object.__setattr__(self, "_cached_key", key)
        return key

    def _make_key(self) -> Tuple:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Cst(ArithExpr):
    """An integer (or exact rational, internally) constant."""

    value: Number

    def __post_init__(self) -> None:
        value = self.value
        if type(value) is Fraction and value.denominator == 1:
            object.__setattr__(self, "value", int(value))

    def free_variables(self) -> frozenset:
        return frozenset()

    def substitute(self, mapping: Mapping[str, ArithLike]) -> ArithExpr:
        return self

    def _make_key(self) -> Tuple:
        return ("cst", self.value)

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, eq=False)
class Var(ArithExpr):
    """A named size variable, e.g. the ``N`` in ``[float]_N``."""

    name: str

    def free_variables(self) -> frozenset:
        return frozenset({self.name})

    def substitute(self, mapping: Mapping[str, ArithLike]) -> ArithExpr:
        if self.name in mapping:
            return _as_arith(mapping[self.name])
        return self

    def _make_key(self) -> Tuple:
        return ("var", self.name)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Sum(ArithExpr):
    """A sum of two or more terms (kept flat and sorted)."""

    terms: Tuple[ArithExpr, ...]

    def free_variables(self) -> frozenset:
        return frozenset().union(*(x.free_variables() for x in self.terms))

    def substitute(self, mapping: Mapping[str, ArithLike]) -> ArithExpr:
        return simplify_sum([t.substitute(mapping) for t in self.terms])

    def _make_key(self) -> Tuple:
        return ("sum", tuple(sorted(t._key() for t in self.terms)))

    def __repr__(self) -> str:
        return "(" + " + ".join(repr(t) for t in self.terms) + ")"


@dataclass(frozen=True, eq=False)
class Prod(ArithExpr):
    """A product of two or more factors (kept flat and sorted)."""

    factors: Tuple[ArithExpr, ...]

    def free_variables(self) -> frozenset:
        return frozenset().union(*(x.free_variables() for x in self.factors))

    def substitute(self, mapping: Mapping[str, ArithLike]) -> ArithExpr:
        return simplify_product([f.substitute(mapping) for f in self.factors])

    def _make_key(self) -> Tuple:
        return ("prod", tuple(sorted(f._key() for f in self.factors)))

    def __repr__(self) -> str:
        return "(" + " * ".join(repr(f) for f in self.factors) + ")"


@dataclass(frozen=True, eq=False)
class _Binary(ArithExpr):
    """``a`` and ``b`` under an operation that could not be resolved
    symbolically; ``build`` resolves it again after a substitution."""

    a: ArithExpr
    b: ArithExpr
    name = ""
    form = ""

    def free_variables(self) -> frozenset:
        return self.a.free_variables() | self.b.free_variables()

    def substitute(self, mapping: Mapping[str, ArithLike]) -> ArithExpr:
        return self.build(self.a.substitute(mapping), self.b.substitute(mapping))

    def _make_key(self) -> Tuple:
        return (self.name, self.a._key(), self.b._key())

    def __repr__(self) -> str:
        return self.form.format(a=repr(self.a), b=repr(self.b))


class FloorDiv(_Binary):
    """An integer division."""

    name, form = "floordiv", "({a} / {b})"

    @staticmethod
    def build(a: ArithExpr, b: ArithExpr) -> ArithExpr:
        return exact_div(a, b, allow_floor=True)


class Mod(_Binary):
    """A modulo (floored: the result has the divisor's sign)."""

    name, form = "mod", "({a} % {b})"

    @staticmethod
    def build(a: ArithExpr, b: ArithExpr) -> ArithExpr:
        return modulo(a, b)


class Min(_Binary):
    name, form = "min", "min({a}, {b})"

    @staticmethod
    def build(a: ArithExpr, b: ArithExpr) -> ArithExpr:
        return arith_min(a, b)


class Max(_Binary):
    name, form = "max", "max({a}, {b})"

    @staticmethod
    def build(a: ArithExpr, b: ArithExpr) -> ArithExpr:
        return arith_max(a, b)


# ---------------------------------------------------------------------------
# Normalisation helpers
# ---------------------------------------------------------------------------

def _flatten_sum(terms: Iterable[ArithExpr]) -> list:
    flat: list = []
    for term in terms:
        if isinstance(term, Sum):
            flat.extend(_flatten_sum(term.terms))
        else:
            flat.append(term)
    return flat


def _split_coefficient(expr: ArithExpr) -> Tuple[Number, Tuple[ArithExpr, ...]]:
    """Split ``expr`` into (numeric coefficient, non-constant factor tuple)."""
    if isinstance(expr, Cst):
        return expr.value, ()
    if isinstance(expr, Prod):
        coeff: Number = 1
        rest = []
        for factor in expr.factors:
            if isinstance(factor, Cst):
                coeff *= factor.value
            else:
                rest.append(factor)
        return coeff, tuple(rest)  # a product keeps its factors sorted
    return 1, (expr,)


def simplify_sum(terms: Iterable[ArithExpr]) -> ArithExpr:
    """Build a simplified :class:`Sum` (collecting like terms and constants)."""
    # key -> [coefficient, factors, the term itself while it is alone]
    collected: Dict[Tuple, list] = {}
    constant: Number = 0
    for term in _flatten_sum(terms):
        coeff, factors = _split_coefficient(term)
        if not factors:
            constant += coeff
            continue
        key = tuple(f._key() for f in factors)
        if key in collected:
            entry = collected[key]
            entry[0] += coeff
            entry[2] = None
        else:
            collected[key] = [coeff, factors, term]

    result_terms: list = []
    for coeff, factors, term in collected.values():
        if coeff == 0:
            continue
        if term is not None:
            result_terms.append(term)
        elif coeff == 1 and len(factors) == 1:
            result_terms.append(factors[0])
        else:
            result_terms.append(simplify_product([Cst(coeff), *factors]))
    if constant != 0:
        result_terms.append(Cst(constant))

    if not result_terms:
        return Cst(0)
    if len(result_terms) == 1:
        return result_terms[0]
    result_terms.sort(key=lambda e: e._key())
    return Sum(tuple(result_terms))


def _flatten_product(factors: Iterable[ArithExpr]) -> list:
    flat: list = []
    for factor in factors:
        if isinstance(factor, Prod):
            flat.extend(_flatten_product(factor.factors))
        else:
            flat.append(factor)
    return flat


def simplify_product(factors: Iterable[ArithExpr]) -> ArithExpr:
    """Build a simplified :class:`Prod` (multiplying constants, distributing over sums)."""
    coeff: Number = 1
    rest: list = []
    for factor in _flatten_product(factors):
        if isinstance(factor, Cst):
            coeff *= factor.value
        else:
            rest.append(factor)

    if coeff == 0:
        return Cst(0)

    # Distribute a constant over a single sum so that e.g. 2*(n+1) == 2n+2.
    if rest and isinstance(rest[0], Sum) and len(rest) == 1 and coeff != 1:
        return simplify_sum(
            [simplify_product([Cst(coeff), term]) for term in rest[0].terms]
        )

    if not rest:
        return Cst(coeff)
    if coeff == 1 and len(rest) == 1:
        return rest[0]

    result = sorted(rest, key=lambda e: e._key())
    if coeff != 1:
        result.insert(0, Cst(coeff))
    if len(result) == 1:
        return result[0]
    return Prod(tuple(result))


def exact_div(num: ArithExpr, den: ArithExpr, *, allow_floor: bool = False) -> ArithExpr:
    """Divide ``num`` by ``den``.

    When the division can be performed exactly (constant/constant with zero
    remainder, identical expressions, or a product containing the denominator
    as a factor) the simplified quotient is returned.  Otherwise, a
    :class:`FloorDiv` node is produced when ``allow_floor`` is true, or an
    :class:`ArithmeticError_` is raised.
    """
    num = _as_arith(num)
    den = _as_arith(den)
    if isinstance(den, Cst) and den.value == 0:
        raise ZeroDivisionError("symbolic division by zero")
    if isinstance(den, Cst) and den.value == 1:
        return num
    if num == den:
        return Cst(1)
    if isinstance(num, Cst) and num.value == 0:
        return Cst(0)
    if isinstance(num, Cst) and isinstance(den, Cst):
        quotient = Fraction(num.value) / Fraction(den.value)
        if quotient.denominator == 1:
            return Cst(int(quotient))
        if allow_floor:
            return Cst(int(Fraction(num.value) // Fraction(den.value)))
        raise ArithmeticError_(f"{num} is not divisible by {den}")

    # Try to cancel a factor: (a*den)/den == a, and divide constant coefficients.
    if isinstance(den, Cst):
        coeff, factors = _split_coefficient(num)
        new_coeff = coeff / Fraction(den.value)
        if new_coeff.denominator == 1:
            return simplify_product([Cst(new_coeff), *factors])
        # Distribute over sums: (2n + 4)/2 == n + 2 when every term divides.
        if isinstance(num, Sum):
            divided = []
            ok = True
            for term in num.terms:
                t_coeff, t_factors = _split_coefficient(term)
                t_new = t_coeff / Fraction(den.value)
                if t_new.denominator != 1:
                    ok = False
                    break
                divided.append(simplify_product([Cst(t_new), *t_factors]))
            if ok:
                return simplify_sum(divided)
    else:
        coeff, factors = _split_coefficient(num)
        den_coeff, den_factors = _split_coefficient(den)
        if den_factors and all(f in factors for f in den_factors):
            remaining = list(factors)
            for f in den_factors:
                remaining.remove(f)
            new_coeff = Fraction(coeff) / den_coeff
            if new_coeff.denominator == 1:
                return simplify_product([Cst(new_coeff), *remaining])

    if allow_floor:
        return FloorDiv(num, den)
    raise ArithmeticError_(f"cannot divide {num} by {den} exactly")


def modulo(num: ArithExpr, den: ArithExpr) -> ArithExpr:
    """Compute ``num mod den`` where possible, otherwise return a :class:`Mod` node."""
    num = _as_arith(num)
    den = _as_arith(den)
    if isinstance(den, Cst) and den.value == 0:
        raise ZeroDivisionError("symbolic modulo by zero")
    if isinstance(den, Cst) and den.value == 1:
        return Cst(0)
    if isinstance(num, Cst) and isinstance(den, Cst):
        return Cst(int(Fraction(num.value) % Fraction(den.value)))
    if num == den:
        return Cst(0)
    return Mod(num, den)


def lower_bound(expr: ArithExpr) -> Optional[Number]:
    """A lower bound of ``expr`` over non-negative variables, or ``None``."""
    if isinstance(expr, Cst):
        return expr.value
    if isinstance(expr, Var):
        return 0
    if isinstance(expr, Sum):
        bounds = [lower_bound(term) for term in expr.terms]
        return None if None in bounds else sum(bounds)
    if isinstance(expr, Prod):
        coeff, factors = _split_coefficient(expr)
        bounds = [lower_bound(factor) for factor in factors]
        if coeff < 0 or None in bounds or min(bounds) < 0:
            return None
        return math.prod(bounds, start=coeff)
    if isinstance(expr, Max):
        bounds = [b for b in (lower_bound(expr.a), lower_bound(expr.b)) if b is not None]
        return max(bounds) if bounds else None
    if isinstance(expr, Min):
        bounds = [lower_bound(expr.a), lower_bound(expr.b)]
        return None if None in bounds else min(bounds)
    if isinstance(expr, Mod):  # floored: the divisor's sign
        return 0 if _at_least(expr.b, 1) else None
    if isinstance(expr, FloorDiv):
        num, den = lower_bound(expr.a), expr.b
        if num is not None and num >= 0 and isinstance(den, Cst) and den.value > 0:
            return num // den.value
    return None


def _at_least(a: ArithExpr, b: ArithLike = 0) -> bool:
    """Whether ``a >= b`` provably."""
    if not isinstance(b, (int, Cst)):
        a, b = a - b, 0
    bound = lower_bound(a)
    return bound is not None and bound >= (b.value if isinstance(b, Cst) else b)


def arith_min(a: ArithLike, b: ArithLike) -> ArithExpr:
    """Minimum of two expressions (resolved when one provably is the smaller)."""
    a = _as_arith(a)
    b = _as_arith(b)
    if _at_least(b, a):
        return a
    if _at_least(a, b):
        return b
    return Min(a, b)


def arith_max(a: ArithLike, b: ArithLike) -> ArithExpr:
    """Maximum of two expressions (resolved when one provably is the larger)."""
    a = _as_arith(a)
    b = _as_arith(b)
    if _at_least(a, b):
        return a
    if _at_least(b, a):
        return b
    return Max(a, b)


# ---------------------------------------------------------------------------
# Printing as OpenCL C
# ---------------------------------------------------------------------------

def to_c(expr: ArithLike) -> str:
    """``expr`` as an OpenCL-C ``int`` expression.

    A sum prints its positive terms first, largest coefficient first, and
    its constant last; ``min`` and ``max`` are OpenCL's integer built-ins; a
    modulo whose operand may be negative prints floored
    (``((a % n + n) % n)``), as :func:`modulo` means it.  C's ``/``
    truncates, so a division of a possibly negative operand is refused.
    """
    expr = _as_arith(expr)
    if not isinstance(expr, Sum):
        return _c_factor(expr)
    text = ""
    for term in sorted(expr.terms, key=_print_order):
        coeff, factors = _split_coefficient(term)
        magnitude = _c_product(abs(coeff), factors)
        if text:
            text += f" {'-' if coeff < 0 else '+'} {magnitude}"
        else:
            text = f"-{magnitude}" if coeff < 0 else magnitude
    return text


def _print_order(term: ArithExpr) -> Tuple:
    coeff = _split_coefficient(term)[0]
    return coeff < 0, isinstance(term, Cst), -abs(coeff)


def _c_product(coeff: Number, factors: Tuple[ArithExpr, ...]) -> str:
    parts = [_c_factor(factor) for factor in factors]
    if coeff != 1 or not parts:
        parts.append(_c_int(coeff))
    return " * ".join(parts)


def _c_factor(expr: ArithExpr) -> str:
    """``expr`` as an operand of ``*``: sums, divisions and modulos in parentheses."""
    if isinstance(expr, Cst):
        return f"({expr.value})" if expr.value < 0 else _c_int(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Sum):
        return f"({to_c(expr)})"
    if isinstance(expr, Prod):
        coeff, factors = _split_coefficient(expr)
        text = _c_product(abs(coeff), factors)
        return f"(-{text})" if coeff < 0 else text
    if isinstance(expr, (Min, Max)):
        return f"{expr.name}({to_c(expr.a)}, {to_c(expr.b)})"
    a, b = _c_factor(expr.a), _c_factor(expr.b)
    if isinstance(expr, Mod):
        return f"({a} % {b})" if _at_least(expr.a) else f"(({a} % {b} + {b}) % {b})"
    if not _at_least(expr.a):
        raise ArithmeticError_(f"C division truncates: {expr!r} may be negative")
    return f"({a} / {b})"


def _c_int(value: Number) -> str:
    if type(value) is not int and Fraction(value).denominator != 1:
        raise ArithmeticError_(f"{value} is not an integer")
    return str(int(value))


__all__ = [
    "ArithExpr",
    "ArithLike",
    "ArithmeticError_",
    "Cst",
    "Var",
    "Sum",
    "Prod",
    "FloorDiv",
    "Mod",
    "Min",
    "Max",
    "simplify_sum",
    "simplify_product",
    "exact_div",
    "modulo",
    "arith_min",
    "arith_max",
    "lower_bound",
    "to_c",
]
