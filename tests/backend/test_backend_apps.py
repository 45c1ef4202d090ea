"""Compiled backend vs interpreter across the whole application suite.

The acceptance property of the compiled backend: for every Table-1
application (and its lowered kernel variants) the compiled result matches
the reference interpreter.  Since both paths evaluate the same float64
operations in the same order, the comparison is *bit-for-bit*, which is
stricter than the ``rtol=1e-6`` acceptance criterion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.base import squeeze_result
from repro.apps.suite import ALL_BENCHMARKS
from repro.backend import run_program
from repro.core import builders as L
from repro.core.arithmetic import Var
from repro.core.types import Float, array
from repro.core.userfuns import add
from repro.rewriting.exploration import explore, verify_variants
from repro.rewriting.strategies import NAIVE, lower_program, tiled_strategy

SMALL_SHAPES = {2: (13, 11), 3: (5, 7, 9)}


def run_both(program, inputs):
    compiled = squeeze_result(np.asarray(run_program(program, inputs, backend="numpy")))
    oracle = squeeze_result(np.asarray(run_program(program, inputs, backend="interpreter")))
    return compiled, oracle


@pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
def test_compiled_matches_interpreter_on_every_app(key):
    bench = ALL_BENCHMARKS[key]
    shape = SMALL_SHAPES[bench.ndims]
    inputs = bench.make_inputs(shape, seed=7)
    compiled, oracle = run_both(bench.build_program(), list(inputs))
    assert compiled.shape == oracle.shape
    np.testing.assert_array_equal(compiled, oracle)
    # ... and therefore within the acceptance tolerance of the golden too.
    assert np.allclose(compiled, bench.run_reference(inputs), rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_squares_are_products_on_every_path(seed):
    # Regression: the scalar callable squared with ``** 2`` (libm ``pow``)
    # while NumPy's ``power`` multiplies, and at 96x96 one or two cells per
    # seed came out an ulp apart.  Written as products, like the C body, the
    # interpreter, the compiled kernel and the default plan agree byte for
    # byte.
    from repro.backend.base import NumpyBackend

    bench = ALL_BENCHMARKS["gradient"]
    inputs = bench.make_inputs((96, 96), seed)
    compiled, oracle = run_both(bench.build_program(), list(inputs))
    planned = squeeze_result(
        NumpyBackend(cache=None).plan(bench.build_program(), inputs).run(inputs))
    assert compiled.tobytes() == oracle.tobytes() == planned.tobytes()
    assert bench.run_reference(inputs).tobytes() == oracle.tobytes()


@pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
def test_compiled_matches_interpreter_on_lowered_naive(key):
    bench = ALL_BENCHMARKS[key]
    shape = SMALL_SHAPES[bench.ndims]
    inputs = bench.make_inputs(shape, seed=13)
    lowered = lower_program(bench.build_program(), NAIVE)
    compiled, oracle = run_both(lowered.program, list(inputs))
    np.testing.assert_array_equal(compiled, oracle)


@pytest.mark.parametrize("key", ["stencil2d", "gradient", "jacobi2d5pt"])
@pytest.mark.parametrize("tile,local", [(4, True), (6, False), (10, True)])
def test_compiled_matches_interpreter_on_tiled_variants(key, tile, local):
    bench = ALL_BENCHMARKS[key]
    # shape chosen so the tiling exactly covers the padded input for all tiles
    shape = (18, 18)
    inputs = bench.make_inputs(shape, seed=3)
    lowered = lower_program(bench.build_program(), tiled_strategy(tile, local))
    compiled, oracle = run_both(lowered.program, list(inputs))
    np.testing.assert_array_equal(compiled, oracle)


@pytest.mark.parametrize("boundary", ["clamp", "mirror", "wrap"])
def test_boundary_handling_2d_stencils(boundary):
    """The paper's three re-indexing boundary modes, end-to-end in 2D."""
    program = L.fun(
        [array(Float, Var("N"), Var("M"))],
        lambda a: L.map_nd(
            lambda nbh: L.reduce(add, 0.0, L.join(nbh)),
            L.slide_nd(3, 1, L.pad_nd(1, 1, boundary, a, 2), 2),
            2,
        ),
    )
    grid = np.arange(42.0).reshape(6, 7)
    compiled, oracle = run_both(program, [grid])
    np.testing.assert_array_equal(compiled, oracle)


def test_pad_constant_3d_stencil():
    """PadConstant (value boundaries) through a full 3D stencil pipeline."""
    program = L.fun(
        [array(Float, Var("D"), Var("N"), Var("M"))],
        lambda a: L.map_nd(
            lambda nbh: L.reduce(add, 0.0, L.join(L.join(nbh))),
            L.slide_nd(3, 1, L.pad_constant_nd(1, 1, 0.5, a, 3), 3),
            3,
        ),
    )
    grid = np.arange(60.0).reshape(3, 4, 5)
    compiled, oracle = run_both(program, [grid])
    np.testing.assert_array_equal(compiled, oracle)


def test_mixed_boundaries_per_dimension():
    program = L.fun(
        [array(Float, Var("N"), Var("M"))],
        lambda a: L.map_nd(
            lambda nbh: L.reduce(add, 0.0, L.join(nbh)),
            L.slide_nd(3, 1, L.pad_nd(1, 1, ["mirror", "wrap"], a, 2), 2),
            2,
        ),
    )
    grid = np.arange(20.0).reshape(4, 5)
    compiled, oracle = run_both(program, [grid])
    np.testing.assert_array_equal(compiled, oracle)


def test_verify_variants_accepts_all_exploration_results():
    """Every exploration variant of a covering configuration is equivalent."""
    bench = ALL_BENCHMARKS["stencil2d"]
    shape = (18, 18)
    inputs = bench.make_inputs(shape, seed=1)
    program = bench.build_program()
    variants = explore(
        program, stencil_size=3, stencil_step=1,
        padded_length=shape[-1] + 2, tile_sizes=(4, 6, 10),
        validate_tiles=True,
    )
    assert len(variants) >= 3
    verified = verify_variants(program, variants, list(inputs))
    assert len(verified) == len(variants)


def test_crosscheck_backend_on_an_app():
    bench = ALL_BENCHMARKS["jacobi2d5pt"]
    inputs = bench.make_inputs((9, 8), seed=2)
    checked = bench.run_lift(inputs, backend="crosscheck")
    plain = bench.run_lift(inputs, backend="numpy")
    np.testing.assert_array_equal(checked, plain)


def test_run_lift_default_backend_matches_interpreter():
    bench = ALL_BENCHMARKS["heat"]
    inputs = bench.make_inputs((5, 6, 7), seed=9)
    np.testing.assert_array_equal(
        bench.run_lift(inputs), bench.run_interpreter(inputs)
    )


def test_compiled_backend_is_an_order_of_magnitude_faster():
    """The compiled backend's acceptance bar: >= 10x over the interpreter
    (the ladder records 2-3 orders; its rows are `runtime.interpreter.*`
    vs `backend.kernel.*`)."""
    import time

    bench = ALL_BENCHMARKS["stencil2d"]
    inputs = bench.make_inputs((48, 48), seed=0)
    bench.run_lift(inputs, backend="numpy")  # compile outside the timing

    def best_of(backend, runs):
        walls = []
        for _ in range(runs):
            started = time.perf_counter()
            bench.run_lift(inputs, backend=backend)
            walls.append(time.perf_counter() - started)
        return min(walls)

    assert best_of("interpreter", 1) >= 10.0 * best_of("numpy", 3)
