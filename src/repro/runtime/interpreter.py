"""Reference interpreter for Lift expressions.

The interpreter executes any (high-level or lowered) Lift expression directly
on Python data.  It is the correctness oracle for the whole system: rewrite
rules are checked by interpreting both sides, generated kernels are validated
against interpreted results, and every benchmark's Lift expression is compared
against an independent NumPy implementation.

Arrays are represented as (nested) Python lists, tuples as Python tuples and
scalars as Python numbers.  NumPy arrays are accepted as inputs and converted
on entry.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.arithmetic import ArithExpr
from ..core.ir import (
    Expr,
    FunCall,
    FunDecl,
    Lambda,
    Literal,
    Param,
    Primitive,
    UserFun,
)
from ..core.primitives.algorithmic import (
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
from ..core.primitives.opencl import _MemorySpaceModifier
from ..core.primitives.stencil import Pad, PadConstant, Slide


class InterpreterError(Exception):
    """Raised when an expression cannot be evaluated."""


def _to_nested_lists(value):
    """Convert NumPy arrays (recursively) into nested Python lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        converted = [_to_nested_lists(v) for v in value]
        return tuple(converted) if isinstance(value, tuple) else converted
    if isinstance(value, np.generic):
        return value.item()
    return value


def evaluate_program(
    program: Lambda,
    inputs: Sequence,
    size_env: Optional[Mapping[str, int]] = None,
):
    """Evaluate a closed top-level program on concrete input data.

    Parameters
    ----------
    program:
        The top-level lambda (as produced by :func:`repro.core.builders.fun`).
    inputs:
        One data value per program parameter (NumPy arrays or nested lists).
    size_env:
        Concrete values for symbolic size variables; needed only by
        primitives whose semantics depend on a size (``array`` generators).
    """
    if len(inputs) != len(program.params):
        raise InterpreterError(
            f"program expects {len(program.params)} inputs, got {len(inputs)}"
        )
    interpreter = Interpreter(size_env or {})
    env: Dict[Param, object] = {
        param: _to_nested_lists(value) for param, value in zip(program.params, inputs)
    }
    return interpreter.eval(program.body, env)


class Interpreter:
    """Evaluates expressions under an environment mapping parameters to data."""

    def __init__(self, size_env: Mapping[str, int]) -> None:
        self.size_env = dict(size_env)

    # -- expressions ---------------------------------------------------------
    def eval(self, expr: Expr, env: Dict[Param, object]):
        if isinstance(expr, Param):
            if expr not in env:
                raise InterpreterError(f"unbound parameter {expr.name!r}")
            return env[expr]
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, FunCall):
            args = [self.eval(arg, env) for arg in expr.args]
            return self.apply(expr.fun, args, env)
        if isinstance(expr, (Lambda, UserFun, Primitive)):
            # A function value: return a closure capturing the environment.
            return _Closure(expr, env)
        raise InterpreterError(f"cannot evaluate expression {type(expr).__name__}")

    # -- application ---------------------------------------------------------
    def apply(self, fun: FunDecl, args: List, env: Dict[Param, object]):
        if isinstance(fun, _Closure):
            return self.apply(fun.fun, args, fun.env)
        if isinstance(fun, Lambda):
            if len(fun.params) != len(args):
                raise InterpreterError(
                    f"lambda expects {len(fun.params)} arguments, got {len(args)}"
                )
            inner = dict(env)
            inner.update(dict(zip(fun.params, args)))
            return self.eval(fun.body, inner)
        if isinstance(fun, UserFun):
            return fun.python_fn(*args)
        if isinstance(fun, Primitive):
            return self._apply_primitive(fun, args, env)
        raise InterpreterError(f"cannot apply {type(fun).__name__}")

    # -- primitive semantics --------------------------------------------------
    def _apply_primitive(self, prim: Primitive, args: List, env: Dict[Param, object]):
        if isinstance(prim, Map):  # covers mapGlb/mapWrg/mapLcl/mapSeq subclasses
            (data,) = args
            _check_list(data, prim.name)
            return [self.apply(prim.f, [x], env) for x in data]

        if isinstance(prim, Reduce):  # covers reduceSeq / reduceUnroll subclasses
            (data,) = args
            _check_list(data, prim.name)
            acc = self.eval(prim.init, env)
            for x in data:
                acc = self.apply(prim.f, [acc, x], env)
            return [acc]

        if isinstance(prim, Iterate):
            (data,) = args
            for _ in range(prim.count):
                data = self.apply(prim.f, [data], env)
            return data

        if isinstance(prim, Zip):
            for data in args:
                _check_list(data, prim.name)
            length = len(args[0])
            for data in args[1:]:
                if len(data) != length:
                    raise InterpreterError("zip: arrays have different lengths")
            return [tuple(data[i] for data in args) for i in range(length)]

        if isinstance(prim, Split):
            (data,) = args
            _check_list(data, prim.name)
            chunk = self._concretise(prim.chunk)
            if len(data) % chunk != 0:
                raise InterpreterError(
                    f"split({chunk}): input length {len(data)} is not divisible"
                )
            return [data[i : i + chunk] for i in range(0, len(data), chunk)]

        if isinstance(prim, Join):
            (data,) = args
            _check_list(data, prim.name)
            out: List = []
            for chunk in data:
                _check_list(chunk, prim.name)
                out.extend(chunk)
            return out

        if isinstance(prim, Transpose):
            (data,) = args
            _check_list(data, prim.name)
            if not data:
                return []
            return [list(row) for row in zip(*data)]

        if isinstance(prim, At):
            (data,) = args
            _check_list(data, prim.name)
            return data[prim.index]

        if isinstance(prim, Get):
            (data,) = args
            if not isinstance(data, tuple):
                raise InterpreterError(f"get expects a tuple, got {type(data).__name__}")
            return data[prim.index]

        if isinstance(prim, TupleCons):
            return tuple(args)

        if isinstance(prim, ArrayConstructor):
            size = self._concretise(prim.size)
            return [prim.generator(i, size) for i in range(size)]

        if isinstance(prim, Id):
            (value,) = args
            return value

        if isinstance(prim, Pad):
            (data,) = args
            _check_list(data, prim.name)
            return [data[j] for j in _pad_indices(prim.boundary, prim.left, prim.right,
                                                  len(data))]

        if isinstance(prim, PadConstant):
            (data,) = args
            _check_list(data, prim.name)
            value = self.eval(prim.value, env)
            # When padding an outer dimension of a nested array, the appended
            # boundary elements are whole sub-arrays filled with the constant.
            boundary = _constant_like(data[0], value) if data else value
            return (
                [_copy_nested(boundary) for _ in range(prim.left)]
                + list(data)
                + [_copy_nested(boundary) for _ in range(prim.right)]
            )

        if isinstance(prim, Slide):
            (data,) = args
            _check_list(data, prim.name)
            size = self._concretise(prim.size)
            step = self._concretise(prim.step)
            n = len(data)
            count = (n - size + step) // step
            if count < 0:
                raise InterpreterError(
                    f"slide({size}, {step}): input of length {n} is too short"
                )
            return [data[i * step : i * step + size] for i in range(count)]

        if isinstance(prim, _MemorySpaceModifier):
            return self.apply(prim.f, args, env)

        raise InterpreterError(f"no interpretation for primitive {prim.name!r}")

    def _concretise(self, size: ArithExpr) -> int:
        try:
            return size.evaluate(self.size_env)
        except Exception as exc:  # noqa: BLE001 - rewrap with context
            raise InterpreterError(
                f"cannot concretise symbolic size {size!r}: {exc}"
            ) from exc


class _Closure(FunDecl):
    """A function value paired with its defining environment."""

    def __init__(self, fun: FunDecl, env: Dict[Param, object]) -> None:
        self.fun = fun
        self.env = env

    def arity(self) -> int:
        return self.fun.arity()


def _constant_like(template, value):
    """A nested structure shaped like ``template`` but filled with ``value``."""
    if isinstance(template, list):
        return [_constant_like(item, value) for item in template]
    return value


def _copy_nested(value):
    if isinstance(value, list):
        return [_copy_nested(item) for item in value]
    return value


@functools.lru_cache(maxsize=256)
def _pad_indices(boundary, left: int, right: int, n: int) -> Tuple[int, ...]:
    """Where each element of ``pad(left, right, boundary)`` over ``n`` reads."""
    return tuple(boundary(i - left, n) for i in range(n + left + right))


def _check_list(value, who: str) -> None:
    if not isinstance(value, list):
        raise InterpreterError(f"{who} expects an array, got {type(value).__name__}")


__all__ = ["evaluate_program", "Interpreter", "InterpreterError"]
