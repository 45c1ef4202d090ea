"""Expression nodes of the Lift intermediate representation.

A Lift program is a closed :class:`Lambda` whose body is a composition of
*function calls*.  Callees are either other lambdas, :class:`UserFun`
definitions (scalar C functions embedded into the generated OpenCL code) or
*primitives* (``map``, ``reduce``, ``slide``, ``pad``, ...).

The representation is deliberately small:

``Param``
    a named function parameter,
``Literal``
    a scalar constant,
``Lambda``
    an anonymous function,
``FunCall``
    application of a callee to argument expressions,
``UserFun``
    a scalar function with both a C body (for code generation) and a Python
    callable (for the reference interpreter),
``Primitive``
    the base class of all built-in patterns; concrete primitives live in
    :mod:`repro.core.primitives`.

Every expression carries a ``type`` attribute which is filled in by
:mod:`repro.core.typecheck`.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .types import Type, UNTYPED


_param_counter = itertools.count()


class Expr:
    """Base class of all IR expressions."""

    def __init__(self) -> None:
        self.type: Type = UNTYPED

    # -- traversal ----------------------------------------------------------
    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions (not including callee *declarations*)."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Post-order traversal over the expression tree."""
        for child in self.children():
            yield from child.walk()
        yield self

    def contains(self, node: "Expr") -> bool:
        """True when ``node`` (by identity) occurs inside this expression."""
        return any(sub is node for sub in self.walk())

    # -- pretty printing ----------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import pretty

        return pretty(self)


class Param(Expr):
    """A named function parameter (also used as a free variable)."""

    def __init__(self, name: Optional[str] = None, type_: Type = UNTYPED) -> None:
        super().__init__()
        self.name = name if name is not None else f"p{next(_param_counter)}"
        self.type = type_

    def children(self) -> Tuple[Expr, ...]:
        return ()


class Literal(Expr):
    """A scalar literal such as ``0.0f`` used to initialise reductions."""

    def __init__(self, value, type_: Type) -> None:
        super().__init__()
        self.value = value
        self.type = type_

    def children(self) -> Tuple[Expr, ...]:
        return ()


class FunDecl:
    """Base class for things that can be called: lambdas, user functions, primitives."""

    name: str = "<fun>"

    def arity(self) -> int:
        raise NotImplementedError


class Lambda(Expr, FunDecl):
    """An anonymous function ``λ(p1, ..., pk). body``.

    Lambdas are both expressions (so they can be passed to ``map``) and
    callable declarations (so they can head a :class:`FunCall`).
    """

    name = "λ"

    def __init__(self, params: Sequence[Param], body: Expr) -> None:
        Expr.__init__(self)
        self.params: Tuple[Param, ...] = tuple(params)
        self.body = body

    def arity(self) -> int:
        return len(self.params)

    def children(self) -> Tuple[Expr, ...]:
        return (self.body,)


class UserFun(Expr, FunDecl):
    """A scalar user function embedded in the generated OpenCL code.

    Parameters
    ----------
    name:
        The C identifier used in generated code.
    param_names:
        Names of the formal parameters (used in the C body).
    body_c:
        The C expression/statement list forming the function body.
    param_types / return_type:
        Scalar (or tuple-of-scalar) Lift types.
    python_fn:
        A Python callable with the same semantics, used by the reference
        interpreter and by the simulator's functional check.
    numpy_fn:
        Optional whole-array implementation used by the compiled NumPy
        backend.  It receives NumPy arrays (with arbitrary leading batch
        axes) instead of scalars and must vectorise over them.  When absent
        the backend applies ``python_fn`` to full arrays, which is correct
        for purely arithmetic bodies (they broadcast) but not for bodies
        with data-dependent branches.
    """

    def __init__(
        self,
        name: str,
        param_names: Sequence[str],
        body_c: str,
        param_types: Sequence[Type],
        return_type: Type,
        python_fn: Callable,
        numpy_fn: Optional[Callable] = None,
    ) -> None:
        Expr.__init__(self)
        self.name = name
        self.param_names = tuple(param_names)
        self.body_c = body_c
        self.param_types = tuple(param_types)
        self.return_type = return_type
        self.python_fn = python_fn
        self.numpy_fn = numpy_fn
        if len(self.param_names) != len(self.param_types):
            raise ValueError("UserFun parameter names and types differ in length")

    def arity(self) -> int:
        return len(self.param_types)

    def __call__(self, *args):
        return self.python_fn(*args)


class Primitive(Expr, FunDecl):
    """Base class of built-in Lift patterns.

    A primitive instance may carry *static* parameters (e.g. the chunk size of
    ``split`` or the window size of ``slide``); the *data* arguments are
    supplied through a :class:`FunCall`.
    """

    name = "<primitive>"

    def __init__(self) -> None:
        Expr.__init__(self)

    def children(self) -> Tuple["Expr", ...]:
        # Nested functions (the f of a map, the operator and init of a reduce)
        # are part of the expression tree: traversals and rewrites must see them.
        return tuple(f for f in self.nested_functions() if isinstance(f, Expr))

    def arity(self) -> int:
        raise NotImplementedError

    def infer_type(self, arg_types: Sequence[Type], args: Sequence[Expr]) -> Type:
        """Compute the result type given already-typed arguments."""
        raise NotImplementedError

    # Primitives with an embedded function argument (map, reduce, ...) expose
    # it so generic traversals (rewriting, code generation) can find it.
    def nested_functions(self) -> Tuple[Expr, ...]:
        return ()

    def with_nested_functions(self, nested: Tuple[Expr, ...]) -> "Primitive":
        """Rebuild this primitive with replaced nested functions."""
        if nested:
            raise NotImplementedError(
                f"{type(self).__name__} does not support nested-function replacement"
            )
        return self

    def static_key(self) -> Tuple:
        """Static (non-expression) parameters, used for structural equality."""
        return ()


class FunCall(Expr):
    """Application of a callee to one or more argument expressions."""

    def __init__(self, fun: FunDecl, *args: Expr) -> None:
        super().__init__()
        if not isinstance(fun, FunDecl):
            raise TypeError(f"FunCall callee must be a FunDecl, got {type(fun)!r}")
        self.fun = fun
        self.args: Tuple[Expr, ...] = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        callee_children: Tuple[Expr, ...] = ()
        if isinstance(self.fun, (Lambda, Primitive)):
            callee_children = (self.fun,)
        return callee_children + self.args


# ---------------------------------------------------------------------------
# Structural utilities
# ---------------------------------------------------------------------------

def replace(root: Expr, target: Expr, replacement: Expr) -> Expr:
    """Return a copy of ``root`` with ``target`` (by identity) replaced.

    Shared structure outside the replaced path is reused; the path from the
    root to the target is rebuilt so the original expression is not mutated.
    """
    if root is target:
        return replacement
    if isinstance(root, FunCall):
        new_fun = root.fun
        if isinstance(root.fun, (Lambda, Primitive)) and root.fun.contains(target):
            new_fun = replace(root.fun, target, replacement)  # type: ignore[assignment]
        new_args = tuple(
            replace(arg, target, replacement) if arg.contains(target) else arg
            for arg in root.args
        )
        if new_fun is root.fun and all(a is b for a, b in zip(new_args, root.args)):
            return root
        return FunCall(new_fun, *new_args)  # type: ignore[arg-type]
    if isinstance(root, Lambda):
        if not root.body.contains(target):
            return root
        return Lambda(root.params, replace(root.body, target, replacement))
    if isinstance(root, Primitive):
        return _replace_in_primitive(root, target, replacement)
    return root


def _replace_in_primitive(prim: Primitive, target: Expr, replacement: Expr) -> Expr:
    """Rebuild a primitive whose nested function contains ``target``."""
    nested = prim.nested_functions()
    if not nested:
        return prim
    new_nested = tuple(
        replace(f, target, replacement) if f.contains(target) else f for f in nested
    )
    if all(a is b for a, b in zip(new_nested, nested)):
        return prim
    return prim.with_nested_functions(new_nested)  # type: ignore[attr-defined]


def substitute_params(expr: Expr, mapping: Dict[Param, Expr]) -> Expr:
    """Replace occurrences of parameters by the mapped expressions (copying)."""
    if isinstance(expr, Param):
        return mapping.get(expr, expr)
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, FunCall):
        new_fun = expr.fun
        if isinstance(expr.fun, (Lambda, Primitive)):
            new_fun = substitute_params(expr.fun, mapping)  # type: ignore[assignment]
        new_args = tuple(substitute_params(a, mapping) for a in expr.args)
        return FunCall(new_fun, *new_args)  # type: ignore[arg-type]
    if isinstance(expr, Lambda):
        inner = {p: e for p, e in mapping.items() if p not in expr.params}
        return Lambda(expr.params, substitute_params(expr.body, inner))
    if isinstance(expr, Primitive):
        nested = expr.nested_functions()
        if not nested:
            return expr
        new_nested = tuple(substitute_params(f, mapping) for f in nested)
        if all(a is b for a, b in zip(new_nested, nested)):
            return expr
        return expr.with_nested_functions(new_nested)  # type: ignore[attr-defined]
    return expr


def collect(root: Expr, predicate: Callable[[Expr], bool]) -> List[Expr]:
    """All sub-expressions satisfying ``predicate`` (post-order)."""
    return [node for node in root.walk() if predicate(node)]


def structurally_equal(a: Expr, b: Expr) -> bool:
    """Structural equality over expressions (ignoring object identity)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Param):
        return a is b or a.name == b.name  # type: ignore[union-attr]
    if isinstance(a, Literal) and isinstance(b, Literal):
        return a.value == b.value and a.type == b.type
    if isinstance(a, UserFun) and isinstance(b, UserFun):
        return a.name == b.name and a.body_c == b.body_c
    if isinstance(a, Lambda) and isinstance(b, Lambda):
        if len(a.params) != len(b.params):
            return False
        renamed = substitute_params(b.body, dict(zip(b.params, a.params)))
        return structurally_equal(a.body, renamed)
    if isinstance(a, FunCall) and isinstance(b, FunCall):
        if len(a.args) != len(b.args):
            return False
        if not _decl_equal(a.fun, b.fun):
            return False
        return all(structurally_equal(x, y) for x, y in zip(a.args, b.args))
    if isinstance(a, Primitive) and isinstance(b, Primitive):
        return _decl_equal(a, b)
    return False


def structural_key(expr: Expr) -> Tuple:
    """A hashable key identifying an expression up to structural equality.

    Parameters are numbered by binding order (de Bruijn style), so
    alpha-equivalent programs produce the same key.  The key is the basis of
    the compiled backend's compilation cache: two expressions with equal keys
    compile to the same kernel.

    Caveat: embedded Python callables (an ``ArrayConstructor``'s generator)
    have no structural identity, so they are keyed by object identity.  Keys
    are therefore only valid while the expressions they were derived from
    are alive — holding a key without the expression (as a dedup table
    might) can conflate two programs whose generator ids were reused after
    garbage collection.  The compilation cache is safe: its cached kernels
    keep their expressions (and thus the generators) alive.

    The key is memoised per expression object, held weakly so it dies with
    the expression: IR nodes are never restructured after construction
    (rewrites build new nodes, typechecking only assigns ``.type``) and the
    key reads no inferred type, so a warm plan or kernel lookup costs one
    dictionary hit instead of a walk of the whole program.
    """
    key = _KEYS.get(expr)
    if key is None:
        key = _KEYS[expr] = _structural_key(expr, {})
    return key


#: ``structural_key`` memo: expression → key, dropped with the expression.
_KEYS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _structural_key(expr: Expr, param_ids: Dict[Param, int],
                    stable: bool = False) -> Tuple:
    if isinstance(expr, Param):
        if expr in param_ids:
            return ("param", param_ids[expr])
        return ("free", expr.name)
    if isinstance(expr, Literal):
        return ("lit", expr.value, repr(expr.type))
    if isinstance(expr, Lambda):
        inner = dict(param_ids)
        for param in expr.params:
            inner[param] = len(inner)
        return ("lambda", len(expr.params),
                _structural_key(expr.body, inner, stable))
    if isinstance(expr, UserFun):
        return ("userfun", expr.name, expr.body_c)
    if isinstance(expr, FunCall):
        fun = expr.fun
        if isinstance(fun, Expr):
            fun_key = _structural_key(fun, param_ids, stable)
        else:  # pragma: no cover - FunDecl that is not an Expr
            fun_key = ("decl", type(fun).__name__, id(fun))
        return ("call", fun_key) + tuple(
            _structural_key(arg, param_ids, stable) for arg in expr.args
        )
    if isinstance(expr, Primitive):
        static = tuple(
            repr(item) if not isinstance(item, (int, float, str, bool, type(None))) else item
            for item in expr.static_key()
        )
        extra: Tuple = ()
        generator = getattr(expr, "generator", None)
        if generator is not None:  # ArrayConstructor: the closure is part of identity
            if stable:
                # Key the generator by its code location, which survives
                # process boundaries, instead of the process-local ``id``.
                extra = (
                    getattr(generator, "__module__", ""),
                    getattr(generator, "__qualname__", repr(type(generator))),
                )
            else:
                extra = (id(generator),)
        nested = tuple(
            _structural_key(f, param_ids, stable) for f in expr.nested_functions()
        )
        return ("prim", type(expr).__name__, static, extra) + nested
    raise TypeError(f"cannot key expression {type(expr).__name__}")


def structural_hash(expr: Expr) -> int:
    """A stable (within one process) hash of :func:`structural_key`."""
    return hash(structural_key(expr))


def structural_digest(expr: Expr) -> str:
    """A hex digest of the structure of ``expr``, stable across processes.

    Unlike :func:`structural_hash` (which relies on Python's salted ``hash``
    and on object ids for embedded generator callables), the digest keys
    generators by their code location (module + qualname), so the same
    program built in different processes — or in different runs — produces
    the same digest.  It is the identity used by the persistent
    :class:`~repro.engine.store.ResultsStore`.

    Caveat: two *distinct* closures created at the same code location (e.g.
    the same factory called with different captured constants) share a
    digest; callers keying persisted results additionally include the
    benchmark / strategy / configuration that produced the expression, which
    disambiguates every case arising in practice.
    """
    import hashlib

    key = _structural_key(expr, {}, stable=True)
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def _decl_equal(a: FunDecl, b: FunDecl) -> bool:
    if isinstance(a, (Lambda, UserFun)) and isinstance(b, (Lambda, UserFun)):
        return structurally_equal(a, b)  # type: ignore[arg-type]
    if isinstance(a, Primitive) and isinstance(b, Primitive):
        if type(a) is not type(b):
            return False
        if a.static_key() != b.static_key():
            return False
        nested_a, nested_b = a.nested_functions(), b.nested_functions()
        if len(nested_a) != len(nested_b):
            return False
        return all(structurally_equal(x, y) for x, y in zip(nested_a, nested_b))
    return a is b


__all__ = [
    "Expr",
    "Param",
    "Literal",
    "Lambda",
    "UserFun",
    "Primitive",
    "FunDecl",
    "FunCall",
    "replace",
    "substitute_params",
    "collect",
    "structurally_equal",
    "structural_key",
    "structural_hash",
]
