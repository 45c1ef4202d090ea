"""Unit and property tests for the compiled NumPy backend.

Every primitive that the compiler vectorises is checked against the
reference interpreter on the same program and data — the interpreter is the
oracle, the backend must agree bit-for-bit (these are pure float64 pipelines
evaluated in the same operation order).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (
    BackendMismatch,
    CompilationCache,
    CompileError,
    CrossCheckBackend,
    ExecutionError,
    InterpreterBackend,
    NumpyBackend,
    compile_program,
    get_backend,
    run_program,
)
from repro.core import builders as L
from repro.core.arithmetic import Var
from repro.core.ir import structural_key
from repro.core.types import Float, array
from repro.core.userfuns import add, max_fn

floats = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def both(program, inputs):
    """Run a program on both backends and return (compiled, interpreted)."""
    compiled = run_program(program, inputs, backend="numpy")
    interpreted = run_program(program, inputs, backend="interpreter")
    return compiled, interpreted


def assert_backends_agree(program, inputs):
    compiled, interpreted = both(program, inputs)
    np.testing.assert_array_equal(compiled, interpreted)


# ---------------------------------------------------------------------------
# Primitive-by-primitive equivalence
# ---------------------------------------------------------------------------

class TestAlgorithmicPrimitives:
    def test_map_userfun(self):
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.map(lambda x: L.lit(x), a))
        assert_backends_agree(program, [[1.0, 2.0, 3.0]])

    def test_map_scalar_arithmetic(self):
        from repro.core.ir import FunCall
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.map(lambda x: FunCall(add, x, x), a))
        assert_backends_agree(program, [[1.0, 2.0, 3.0]])

    def test_reduce_sum(self):
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.reduce(add, 0.0, a))
        assert_backends_agree(program, [[1.0, 2.0, 3.0, 4.0]])

    def test_reduce_noncommutative_order(self):
        # subtraction folds left-to-right; order differences would show up
        from repro.core.userfuns import subtract
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.reduce(subtract, 0.0, a))
        assert_backends_agree(program, [[5.0, 1.0, 2.25, -3.5]])

    def test_zip_and_get(self):
        from repro.core.ir import FunCall
        program = L.fun(
            [array(Float, Var("N")), array(Float, Var("N"))],
            lambda a, b: L.map(
                lambda t: FunCall(add, L.get(0, t), L.get(1, t)), L.zip(a, b)
            ),
        )
        assert_backends_agree(program, [[1.0, 2.0], [10.0, 20.0]])

    def test_zip_length_mismatch_raises(self):
        program = L.fun(
            [array(Float, Var("N")), array(Float, Var("M"))],
            lambda a, b: L.zip(a, b),
        )
        with pytest.raises(ExecutionError):
            NumpyBackend(cache=None).run(program, [[1.0, 2.0], [1.0]])

    @given(st.lists(floats, min_size=2, max_size=24).filter(lambda d: len(d) % 2 == 0))
    @settings(max_examples=25, deadline=None)
    def test_split_join_roundtrip(self, data):
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.join(L.split(2, a)))
        assert_backends_agree(program, [data])

    def test_split_indivisible_raises(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.split(2, a))
        with pytest.raises(ExecutionError):
            NumpyBackend(cache=None).run(program, [[1.0, 2.0, 3.0]])

    def test_transpose(self):
        program = L.fun([array(Float, Var("N"), Var("M"))], L.transpose)
        assert_backends_agree(program, [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])

    def test_at_and_tuple(self):
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.tuple_(L.at(0, a), L.at(2, a)))
        compiled, interpreted = both(program, [[5.0, 6.0, 7.0]])
        np.testing.assert_array_equal(compiled, interpreted)

    def test_iterate(self):
        from repro.core.ir import FunCall
        double = lambda x: FunCall(add, x, x)
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.iterate(3, lambda xs: L.map(double, xs), a))
        assert_backends_agree(program, [[1.0, 2.0]])

    def test_array_constructor(self):
        program = L.fun([], lambda: L.array(4, lambda i, n: float(i * 10)))
        assert_backends_agree(program, [])

    def test_map_with_userfun_max(self):
        from repro.core.ir import FunCall
        program = L.fun(
            [array(Float, Var("N")), array(Float, Var("N"))],
            lambda a, b: L.map(
                lambda t: FunCall(max_fn, L.get(0, t), L.get(1, t)), L.zip(a, b)
            ),
        )
        assert_backends_agree(program, [[1.0, 5.0, -2.0], [4.0, 2.0, -1.0]])


class TestStencilPrimitives:
    @pytest.mark.parametrize("boundary", ["clamp", "mirror", "wrap"])
    @given(data=st.lists(floats, min_size=3, max_size=24),
           left=st.integers(0, 3), right=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_pad_boundaries(self, boundary, data, left, right):
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.pad(left, right, boundary, a))
        assert_backends_agree(program, [data])

    @given(data=st.lists(floats, min_size=1, max_size=16),
           value=floats, left=st.integers(0, 3), right=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_pad_constant(self, data, value, left, right):
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.pad_constant(left, right, value, a))
        assert_backends_agree(program, [data])

    def test_pad_constant_2d_fills_whole_rows(self):
        program = L.fun([array(Float, Var("N"), Var("M"))],
                        lambda a: L.pad_constant_nd(1, 1, 9.0, a, 2))
        assert_backends_agree(program, [[[1.0, 2.0], [3.0, 4.0]]])

    @given(data=st.lists(floats, min_size=1, max_size=30),
           size=st.integers(1, 5), step=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_slide_windows(self, data, size, step):
        if len(data) - size + step < 0:
            return  # interpreter rejects these too
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.slide(size, step, a))
        compiled, interpreted = both(program, [data])
        if interpreted.size == 0:
            assert compiled.size == 0
        else:
            np.testing.assert_array_equal(compiled, interpreted)

    def test_slide_nd_2d(self):
        grid = np.arange(30.0).reshape(5, 6)
        program = L.fun([array(Float, Var("N"), Var("M"))],
                        lambda a: L.slide_nd(3, 1, a, 2))
        assert_backends_agree(program, [grid])

    def test_full_1d_stencil(self):
        program = L.fun(
            [array(Float, Var("N"))],
            lambda a: L.map(lambda nbh: L.reduce(add, 0.0, nbh),
                            L.slide(3, 1, L.pad(1, 1, L.CLAMP, a))),
        )
        assert_backends_agree(program, [list(np.arange(16.0))])


class TestOpenCLPrimitives:
    def test_map_glb_and_reduce_seq(self):
        program = L.fun(
            [array(Float, Var("N"))],
            lambda a: L.map_glb(lambda nbh: L.reduce_seq(add, 0.0, nbh),
                                L.slide(3, 1, L.pad(1, 1, L.CLAMP, a))),
        )
        assert_backends_agree(program, [list(np.arange(12.0))])

    def test_to_local_is_transparent(self):
        program = L.fun(
            [array(Float, Var("N"))],
            lambda a: L.to_local(lambda xs: L.map(L.id_, xs), a),
        )
        assert_backends_agree(program, [[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# Backend protocol, cache and cross-check
# ---------------------------------------------------------------------------

class TestBackendProtocol:
    def test_get_backend_names(self):
        assert get_backend("numpy").name == "numpy"
        assert get_backend("interpreter").name == "interpreter"
        assert get_backend("crosscheck").name == "crosscheck"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            get_backend("cuda")

    def test_backend_instance_passthrough(self):
        backend = NumpyBackend(cache=None)
        assert get_backend(backend) is backend

    def test_none_selects_numpy(self, monkeypatch):
        # No environment variable picks a process-wide backend.
        monkeypatch.setenv("REPRO_BACKEND", "interpreter")
        assert isinstance(get_backend(None), NumpyBackend)

    def test_crosscheck_passes_on_agreement(self):
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.map(L.id_, a))
        result = CrossCheckBackend().run(program, [[1.0, 2.0]])
        np.testing.assert_array_equal(result, [1.0, 2.0])

    def test_crosscheck_detects_divergence(self):
        class LyingBackend:
            name = "lying"
            def run(self, program, inputs, size_env=None):
                return np.asarray(InterpreterBackend().run(program, inputs)) + 1.0

        program = L.fun([array(Float, Var("N"))], lambda a: L.map(L.id_, a))
        checker = CrossCheckBackend(primary=LyingBackend())
        with pytest.raises(BackendMismatch):
            checker.run(program, [[1.0, 2.0]])


class TestCompilationCache:
    def test_hit_on_identical_program_and_shape(self):
        cache = CompilationCache()
        program = L.fun([array(Float, Var("N"))], lambda a: L.map(L.id_, a))
        data = [[1.0, 2.0, 3.0]]
        k1 = cache.get_or_compile(program, data)
        k2 = cache.get_or_compile(program, data)
        assert k1 is k2
        assert cache.stats() == {
            "entries": 1, "max_entries": 256,
            "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_alpha_equivalent_programs_share_an_entry(self):
        cache = CompilationCache()
        build = lambda: L.fun([array(Float, Var("N"))], lambda a: L.map(L.id_, a))
        p1, p2 = build(), build()
        assert structural_key(p1) == structural_key(p2)
        k1 = cache.get_or_compile(p1, [[1.0]])
        k2 = cache.get_or_compile(p2, [[1.0]])
        assert k1 is k2

    def test_different_shapes_compile_separately(self):
        cache = CompilationCache()
        program = L.fun([array(Float, Var("N"))], lambda a: L.map(L.id_, a))
        cache.get_or_compile(program, [[1.0, 2.0]])
        cache.get_or_compile(program, [[1.0, 2.0, 3.0]])
        assert len(cache) == 2

    def test_eviction_respects_max_entries(self):
        cache = CompilationCache(max_entries=2)
        program = L.fun([array(Float, Var("N"))], lambda a: L.map(L.id_, a))
        for n in range(4):
            cache.get_or_compile(program, [list(np.arange(float(n + 1)))])
        assert len(cache) == 2

    def test_clear_resets_statistics(self):
        cache = CompilationCache()
        program = L.fun([array(Float, Var("N"))], lambda a: L.map(L.id_, a))
        cache.get_or_compile(program, [[1.0]])
        cache.clear()
        assert cache.stats() == {
            "entries": 0, "max_entries": 256,
            "hits": 0, "misses": 0, "evictions": 0,
        }


class TestCompileErrors:
    def test_arity_mismatch(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.map(L.id_, a))
        kernel = compile_program(program)
        with pytest.raises(ExecutionError):
            kernel([[1.0], [2.0]])

    def test_first_class_functions_are_rejected(self):
        from repro.core.ir import FunCall, Lambda, Param
        # A program whose body evaluates a bare lambda as a value.
        p = Param("x")
        inner = Lambda([Param("y")], L.lit(1.0))
        program = Lambda([p], inner)
        with pytest.raises(CompileError):
            compile_program(program)

    def test_numpy_backend_falls_back_to_interpreter(self, monkeypatch):
        import repro.backend.base as base

        def refuse(program, size_env=None):
            raise CompileError("unsupported on purpose")

        monkeypatch.setattr(base, "compile_program", refuse)
        program = L.fun([array(Float, Var("N"))], lambda a: L.map(L.id_, a))
        strict = NumpyBackend(cache=None, fallback=False)
        with pytest.raises(CompileError):
            strict.run(program, [[1.0, 2.0]])
        result = NumpyBackend(cache=None, fallback=True).run(program, [[1.0, 2.0]])
        np.testing.assert_array_equal(result, [1.0, 2.0])
