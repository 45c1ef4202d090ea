"""Tests for the reference interpreter (the correctness oracle)."""

import numpy as np
import pytest

from repro.core import builders as L
from repro.core.arithmetic import Var
from repro.core.ir import FunCall
from repro.core.types import Float, array
from repro.core.userfuns import add, id_fn, mult
from repro.runtime.interpreter import InterpreterError, evaluate_program

from ..conftest import golden_sum_1d_clamp, interpret_to_array


class TestBasicPrimitives:
    def test_map_applies_function(self):
        program = L.fun([array(Float, Var("N"))],
                        lambda a: L.map(lambda x: FunCall(mult, x, L.lit(2.0)), a))
        assert evaluate_program(program, [[1.0, 2.0, 3.0]]) == [2.0, 4.0, 6.0]

    def test_reduce_sums(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.reduce(add, 0.0, a))
        assert evaluate_program(program, [[1.0, 2.0, 3.0, 4.0]]) == [10.0]

    def test_zip_and_get(self):
        program = L.fun(
            [array(Float, Var("N"))] * 2,
            lambda a, b: L.map(lambda t: FunCall(add, L.get(0, t), L.get(1, t)), L.zip(a, b)),
        )
        assert evaluate_program(program, [[1.0, 2.0], [10.0, 20.0]]) == [11.0, 22.0]

    def test_split_join_roundtrip(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.join(L.split(2, a)))
        data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert evaluate_program(program, [data]) == data

    def test_split_requires_divisible_length(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.split(4, a))
        with pytest.raises(InterpreterError):
            evaluate_program(program, [[1.0, 2.0, 3.0]])

    def test_transpose(self):
        program = L.fun([array(Float, Var("N"), Var("M"))], lambda a: L.transpose(a))
        out = evaluate_program(program, [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
        assert out == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]

    def test_at_indexing(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.at(2, a))
        assert evaluate_program(program, [[5.0, 6.0, 7.0]]) == 7.0

    def test_iterate_applies_repeatedly(self):
        program = L.fun(
            [array(Float, Var("N"))],
            lambda a: L.iterate(3, lambda arr: L.map(
                lambda x: FunCall(add, x, L.lit(1.0)), arr), a),
        )
        assert evaluate_program(program, [[0.0, 1.0]]) == [3.0, 4.0]

    def test_array_generator(self):
        program = L.fun([], lambda: L.array(4, lambda i, n: float(i * 10)))
        assert evaluate_program(program, []) == [0.0, 10.0, 20.0, 30.0]

    def test_unbound_parameter_raises(self):
        program = L.fun([array(Float, 4)], lambda a: a)
        with pytest.raises(InterpreterError):
            evaluate_program(program, [])


class TestStencilPrimitives:
    def test_pad_clamp(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.pad(2, 1, L.CLAMP, a))
        assert evaluate_program(program, [[1.0, 2.0, 3.0]]) == [1.0, 1.0, 1.0, 2.0, 3.0, 3.0]

    def test_pad_mirror(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.pad(2, 2, L.MIRROR, a))
        assert evaluate_program(program, [[1.0, 2.0, 3.0]]) == [
            2.0, 1.0, 1.0, 2.0, 3.0, 3.0, 2.0,
        ]

    def test_pad_wrap(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.pad(1, 1, L.WRAP, a))
        assert evaluate_program(program, [[1.0, 2.0, 3.0]]) == [3.0, 1.0, 2.0, 3.0, 1.0]

    def test_boundaries_match_their_case_by_case_definitions(self):
        """Each boundary is one function of ``(i, n)``, on ints and on
        symbolic constants alike, also for pads wider than the input."""
        def clamp(i, n):
            return 0 if i < 0 else (n - 1 if i >= n else i)

        def mirror(i, n):
            if i < 0:
                i = -1 - i
            if i >= n:
                i = n - (i - n) - 1
            return clamp(i, n)

        for boundary, reference in ((L.CLAMP, clamp), (L.MIRROR, mirror),
                                    (L.WRAP, lambda i, n: i % n)):
            for n in range(1, 7):
                for i in range(-15, 20):
                    assert boundary(i, n) == reference(i, n) == boundary.index(i, n)

    def test_pad_constant_scalar(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.pad_constant(1, 2, 9.0, a))
        assert evaluate_program(program, [[1.0, 2.0]]) == [9.0, 1.0, 2.0, 9.0, 9.0]

    def test_pad_constant_outer_dimension_appends_rows(self):
        program = L.fun([array(Float, Var("N"), Var("M"))],
                        lambda a: L.pad_constant(1, 1, 0.0, a))
        out = evaluate_program(program, [[[1.0, 2.0], [3.0, 4.0]]])
        assert out == [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]

    def test_slide_windows(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.slide(3, 1, a))
        assert evaluate_program(program, [[0.0, 1.0, 2.0, 3.0]]) == [
            [0.0, 1.0, 2.0],
            [1.0, 2.0, 3.0],
        ]

    def test_slide_with_larger_step(self):
        program = L.fun([array(Float, Var("N"))], lambda a: L.slide(5, 3, a))
        data = [float(i) for i in range(11)]
        out = evaluate_program(program, [data])
        assert out == [[0.0, 1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0, 7.0],
                       [6.0, 7.0, 8.0, 9.0, 10.0]]

    def test_listing2_jacobi_semantics(self, jacobi3_1d_program):
        data = [float(i) for i in range(8)]
        out = [v[0] for v in evaluate_program(jacobi3_1d_program, [data])]
        assert out == golden_sum_1d_clamp(data)

    def test_lowered_primitives_interpret_like_high_level(self, jacobi3_1d_program):
        """mapGlb / reduceSeq behave exactly like map / reduce in the interpreter."""
        lowered = L.fun(
            [array(Float, Var("N"))],
            lambda a: L.map_glb(
                lambda nbh: L.reduce_seq(add, 0.0, nbh),
                L.slide(3, 1, L.pad(1, 1, L.CLAMP, a)),
            ),
        )
        data = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert evaluate_program(lowered, [data]) == evaluate_program(
            jacobi3_1d_program, [data]
        )

    def test_to_local_is_semantically_transparent(self):
        program = L.fun(
            [array(Float, Var("N"))],
            lambda a: L.to_local(lambda arr: L.map_lcl(id_fn, arr), a),
        )
        assert evaluate_program(program, [[1.0, 2.0]]) == [1.0, 2.0]


class TestNumpyInterop:
    def test_numpy_inputs_are_accepted(self, sum2d_program):
        grid = np.arange(16, dtype=np.float64).reshape(4, 4)
        out = interpret_to_array(sum2d_program, [grid])
        assert out.shape == (4, 4)

    def test_wrong_input_count_raises(self, sum2d_program):
        with pytest.raises(InterpreterError):
            evaluate_program(sum2d_program, [])
