"""Unit tests for IR expression nodes and structural utilities."""

import gc
import weakref

import pytest

from repro.core import builders as L
from repro.core import ir
from repro.core.ir import (
    FunCall,
    Lambda,
    Literal,
    Param,
    _structural_key,
    collect,
    replace,
    structural_key,
    structurally_equal,
    substitute_params,
)
from repro.core.primitives.algorithmic import Map, Split
from repro.core.types import Float
from repro.core.userfuns import add, id_fn


class TestConstruction:
    def test_param_gets_fresh_name(self):
        assert Param().name != Param().name

    def test_funcall_requires_callable(self):
        with pytest.raises(TypeError):
            FunCall("not a function", Param())

    def test_lambda_is_both_expr_and_decl(self):
        p = Param("x")
        lam = Lambda([p], p)
        assert lam.arity() == 1
        assert lam.children() == (p,)

    def test_userfun_arity_and_call(self):
        assert add.arity() == 2
        assert add(2.0, 3.0) == 5.0

    def test_userfun_mismatched_names_types_raises(self):
        from repro.core.ir import UserFun

        with pytest.raises(ValueError):
            UserFun("bad", ["x"], "return x;", [Float, Float], Float, lambda x: x)


class TestTraversal:
    def test_walk_is_postorder(self):
        p = Param("x")
        call = L.map(id_fn, p)
        nodes = list(call.walk())
        assert nodes[-1] is call
        assert p in nodes

    def test_contains_by_identity(self):
        p = Param("x")
        expr = L.slide(3, 1, L.pad(1, 1, L.CLAMP, p))
        assert expr.contains(p)
        assert not expr.contains(Param("x"))

    def test_collect_finds_matching_nodes(self):
        p = Param("x")
        expr = L.map(id_fn, L.map(id_fn, p))
        maps = collect(expr, lambda e: isinstance(e, FunCall) and isinstance(e.fun, Map))
        assert len(maps) == 2


class TestReplace:
    def test_replace_argument(self):
        p, q = Param("x"), Param("y")
        expr = L.slide(3, 1, p)
        replaced = replace(expr, p, q)
        assert replaced.args[0] is q
        assert expr.args[0] is p  # original untouched

    def test_replace_deep_inside_lambda(self):
        p = Param("x")
        inner = L.pad(1, 1, L.CLAMP, p)
        expr = L.map(lambda nbh: L.reduce(add, 0.0, nbh), L.slide(3, 1, inner))
        replacement = L.pad(2, 2, L.MIRROR, p)
        rewritten = replace(expr, inner, replacement)
        pads = collect(rewritten, lambda e: isinstance(e, FunCall) and e.fun.name == "pad")
        assert any(f.fun.left == 2 for f in pads)

    def test_replace_returns_same_object_when_target_absent(self):
        p = Param("x")
        expr = L.join(p)
        assert replace(expr, Param("unrelated"), p) is expr


class TestSubstituteParams:
    def test_substitution_binds_free_params(self):
        p, q = Param("x"), Param("y")
        expr = L.split(2, p)
        substituted = substitute_params(expr, {p: q})
        assert substituted.args[0] is q

    def test_substitution_respects_shadowing(self):
        p = Param("x")
        lam = Lambda([p], p)
        substituted = substitute_params(lam, {p: Literal(1.0, Float)})
        # The lambda's own parameter shadows the outer binding.
        assert substituted.body is p


class TestStructuralEquality:
    def test_identical_structure_is_equal(self):
        a = L.fun_n(1, lambda x: L.slide(3, 1, L.pad(1, 1, L.CLAMP, x)))
        b = L.fun_n(1, lambda x: L.slide(3, 1, L.pad(1, 1, L.CLAMP, x)))
        assert structurally_equal(a, b)

    def test_different_static_parameters_differ(self):
        a = L.fun_n(1, lambda x: L.split(2, x))
        b = L.fun_n(1, lambda x: L.split(4, x))
        assert not structurally_equal(a, b)

    def test_literal_equality(self):
        assert structurally_equal(Literal(1.0, Float), Literal(1.0, Float))
        assert not structurally_equal(Literal(1.0, Float), Literal(2.0, Float))

    def test_primitive_static_key(self):
        assert Split(4).static_key() == Split(4).static_key()
        assert Split(4).static_key() != Split(8).static_key()


class TestStructuralKeyMemo:
    """``structural_key`` walks an expression once, then answers from a
    weak per-expression memo."""

    def test_independent_builds_of_one_app_share_a_key(self):
        from repro.apps.suite import get_benchmark

        benchmark = get_benchmark("hotspot2d")
        first, second = benchmark.build_program(), benchmark.build_program()
        assert first is not second
        assert structural_key(first) == structural_key(second)
        assert structural_key(first) == _structural_key(second, {})

    def test_rewritten_variant_gets_its_own_key(self):
        from repro.apps.suite import get_benchmark
        from repro.rewriting.strategies import lower_program, tiled_strategy

        program = get_benchmark("jacobi2d5pt").build_program()
        original = structural_key(program)
        variant = lower_program(program, tiled_strategy(8)).program
        assert variant is not program
        assert structural_key(variant) == _structural_key(variant, {})
        assert structural_key(variant) != original
        assert structural_key(program) == original

    def test_memo_keeps_no_expression_alive(self):
        def build():
            return L.fun_n(1, lambda x: L.map(id_fn, L.pad(1, 1, L.CLAMP, x)))

        gc.collect()
        before = len(ir._KEYS)
        probe = build()
        structural_key(probe)
        dead = weakref.ref(probe)
        del probe
        for _ in range(1000):
            structural_key(build())
        gc.collect()
        assert dead() is None
        assert len(ir._KEYS) <= before

    def test_threads_sharing_the_memo_read_fresh_walks(self):
        # Executor threads key programs concurrently while others die.
        import sys
        import threading

        def build(size):
            return L.fun_n(
                1, lambda x: L.slide(size, 1, L.pad(1, 1, L.CLAMP, x)))

        shared = [build(size) for size in range(1, 5)]
        errors = []

        def worker():
            try:
                for round_ in range(200):
                    own = build(round_ % 4 + 1)
                    for expr in (own, shared[round_ % 4]):
                        if structural_key(expr) != _structural_key(expr, {}):
                            errors.append(round_)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_warm_lookups_do_not_walk_the_program(self, monkeypatch):
        from repro.apps.suite import get_benchmark
        from repro.backend.base import NumpyBackend
        from repro.backend.cache import CompilationCache

        benchmark = get_benchmark("hotspot2d")
        program = benchmark.build_program()
        inputs = benchmark.make_inputs((16, 16), 0)
        backend, cache = NumpyBackend(), CompilationCache()
        backend.plan(program, inputs)
        cache.get_or_compile(program, inputs)
        walks = []
        real = ir._structural_key

        def counting(expr, param_ids, stable=False):
            walks.append(expr)
            return real(expr, param_ids, stable)

        monkeypatch.setattr(ir, "_structural_key", counting)
        assert backend.plan(program, inputs) is backend.plan(program, inputs)
        cache.get_or_compile(program, inputs)
        assert walks == []
        assert cache.stats()["misses"] == 1
