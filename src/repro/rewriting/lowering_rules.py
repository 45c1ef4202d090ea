"""Lowering rewrite rules: mapping onto the OpenCL execution and memory model.

These rules turn the high-level, hardware-agnostic expression into a
low-level, OpenCL-specific expression.  They are the existing Lift machinery
the paper reuses unchanged (Section 4.2/4.3):

* thread-hierarchy mapping — an N-deep ``map`` nest ``↦`` a nest of
  ``mapGlb`` / ``mapWrg`` / ``mapLcl``, one OpenCL dimension per level,
* local memory — ``map(id) ↦ toLocal(map(id))`` together with a rule that
  introduces ``mapN(id)`` copies,
* loop unrolling — ``reduce ↦ reduceSeq`` / ``reduceUnroll`` (the latter only
  when the reduced array has a compile-time constant length, which is always
  true for stencil neighbourhoods).

:func:`repro.rewriting.strategies.lower_program` applies them, after the
overlapped-tiling rule, to produce every kernel variant.
"""

from __future__ import annotations

from typing import Type as PyType

from ..core import builders as L
from ..core.ir import Expr, FunCall, Lambda, UserFun
from ..core.primitives.algorithmic import Id, Map, Reduce
from ..core.primitives.opencl import MapGlb, MapWrg, ReduceSeq, ReduceUnroll, ToLocal
from ..core.types import ArrayType
from .algorithmic_rules import match_map_nd
from .rules import RewriteRule


def _is_plain_reduce(expr: Expr) -> bool:
    return (
        isinstance(expr, FunCall)
        and isinstance(expr.fun, Reduce)
        and type(expr.fun) is Reduce
        and len(expr.args) == 1
    )


class LowerMapNestRule(RewriteRule):
    """``mapN(f) ↦ mapX(N−1)(… mapX(0)(f))`` — one thread level per dimension.

    ``target`` is ``MapGlb``, ``MapWrg`` or ``MapLcl``.  Level ``k`` of the
    nest (outermost first) runs on OpenCL dimension ``N − 1 − k``: dimension 0
    varies fastest, so the innermost map gets it and neighbouring work-items
    touch neighbouring elements, as Lift assigns ids for coalesced accesses.
    OpenCL exposes three thread dimensions, so deeper nests do not match.
    """

    def __init__(self, target: PyType[Map]) -> None:
        self.target = target
        self.name = f"lowerMapNestTo{target.__name__}"

    def matches(self, expr: Expr) -> bool:
        mapped = match_map_nd(expr)
        return mapped is not None and mapped[0] <= 3

    def rewrite(self, expr: Expr) -> Expr:
        ndims, f, arg = match_map_nd(expr)  # type: ignore[misc]
        nest = self.target(f, 0)  # type: ignore[call-arg]
        for dim in range(1, ndims):
            inner = L.fun_n(1, lambda x, prim=nest: FunCall(prim, x))
            nest = self.target(inner, dim)  # type: ignore[call-arg]
        return FunCall(nest, arg)


class LowerReduceSeqRule(RewriteRule):
    """``reduce ↦ reduceSeq`` — execute the reduction as a sequential loop."""

    name = "lowerReduceSeq"

    def matches(self, expr: Expr) -> bool:
        return _is_plain_reduce(expr)

    def rewrite(self, expr: Expr) -> Expr:
        reduce_prim: Reduce = expr.fun  # type: ignore[assignment]
        return FunCall(ReduceSeq(reduce_prim.f, reduce_prim.init), expr.args[0])


class LowerReduceUnrollRule(RewriteRule):
    """``reduce ↦ reduceUnroll`` — unroll the reduction loop (paper §4.3).

    Only legal when the input length is a compile-time constant; for stencils
    this is always the case because the reduction runs over a neighbourhood of
    fixed size.  The length check happens at type-inference time
    (:class:`~repro.core.primitives.opencl.ReduceUnroll`); here we additionally
    require the argument type, when known, to be a constant-length array.
    """

    name = "lowerReduceUnroll"

    def matches(self, expr: Expr) -> bool:
        if not _is_plain_reduce(expr):
            return False
        arg_type = expr.args[0].type
        if isinstance(arg_type, ArrayType):
            return arg_type.size.is_constant()
        return True  # not yet typed: allow, the type checker enforces legality later

    def rewrite(self, expr: Expr) -> Expr:
        reduce_prim: Reduce = expr.fun  # type: ignore[assignment]
        return FunCall(ReduceUnroll(reduce_prim.f, reduce_prim.init), expr.args[0])


class ToLocalRule(RewriteRule):
    """``map(id) ↦ toLocal(map(id))`` — direct a copy into local memory (paper §4.2)."""

    name = "toLocal"

    def matches(self, expr: Expr) -> bool:
        if not (isinstance(expr, FunCall) and isinstance(expr.fun, Map)):
            return False
        if isinstance(expr.fun, (MapGlb, MapWrg)):
            return False  # work-group-level copies only make sense for lcl/seq maps
        return _is_identity_function(expr.fun.f)

    def rewrite(self, expr: Expr) -> Expr:
        return FunCall(ToLocal(expr.fun), expr.args[0])


class IdInsertionRule(RewriteRule):
    """``in ↦ mapN(id, in)`` — introduce an explicit copy of an N-d array.

    Together with :class:`ToLocalRule` this lets the exploration place data in
    local memory at any point of the program.  To keep the rewrite space
    finite the rule refuses to wrap an expression that is already a copy.
    """

    name = "idInsertion"

    def __init__(self, ndims: int = 1) -> None:
        self.ndims = ndims

    def matches(self, expr: Expr) -> bool:
        if not isinstance(expr, FunCall):
            return False
        if isinstance(expr.fun, (Map,)) and _is_identity_function(getattr(expr.fun, "f", None)):
            return False
        if isinstance(expr.fun, ToLocal):
            return False
        return isinstance(expr.type, ArrayType)

    def rewrite(self, expr: Expr) -> Expr:
        return L.map_nd(Id(), expr, self.ndims)


def _is_identity_function(f) -> bool:
    if isinstance(f, Id):
        return True
    if isinstance(f, UserFun) and f.name == "id_fn":
        return True
    if isinstance(f, Lambda) and len(f.params) == 1:
        body = f.body
        if body is f.params[0]:
            return True
        if (
            isinstance(body, FunCall)
            and isinstance(body.fun, (Id,))
            and len(body.args) == 1
            and body.args[0] is f.params[0]
        ):
            return True
        # map(id)-shaped lambda: λx. map(id, x)
        if (
            isinstance(body, FunCall)
            and isinstance(body.fun, Map)
            and len(body.args) == 1
            and body.args[0] is f.params[0]
            and _is_identity_function(body.fun.f)
        ):
            return True
    return False


__all__ = [
    "LowerMapNestRule",
    "LowerReduceSeqRule",
    "LowerReduceUnrollRule",
    "ToLocalRule",
    "IdInsertionRule",
]
