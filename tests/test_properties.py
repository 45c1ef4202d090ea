"""Property-based tests (hypothesis) for core invariants.

These cover the algebraic properties the paper's rewrite-rule approach relies
on: the typing rules of ``pad``/``slide``, the semantics-preservation of the
overlapped-tiling rewrite for arbitrary valid parameters, the symbolic
arithmetic laws used by the type checker, and the view-free data-layout
round-trips (split/join, transpose).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import builders as L
from repro.core.arithmetic import Cst, Var, exact_div
from repro.core.ir import Lambda
from repro.core.types import Float, array
from repro.core.typecheck import check_program
from repro.core.userfuns import add
from repro.core.primitives.stencil import OverlappedTiling
from repro.rewriting.algorithmic_rules import TileStencilNDRule
from repro.rewriting.rules import apply_at, find_applications
from repro.runtime.interpreter import evaluate_program

floats = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Symbolic arithmetic laws
# ---------------------------------------------------------------------------

@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_arithmetic_matches_python_integers(a, b, c):
    n = Var("n")
    expr = (n + a) * b + c
    assert expr.evaluate({"n": 7}) == (7 + a) * b + c


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_addition_is_commutative_symbolically(a, b):
    n, m = Var("n"), Var("m")
    assert (n * a + m * b) == (m * b + n * a)


@given(st.integers(1, 40), st.integers(1, 12))
def test_exact_division_inverts_multiplication(value, divisor):
    n = Var("n")
    assert exact_div(n * (value * divisor), Cst(divisor)) == n * value


@given(st.integers(2, 64), st.integers(1, 8))
def test_split_type_sizes_multiply_back(length_factor, chunk):
    length = chunk * length_factor
    program = L.fun([array(Float, length)], lambda a: L.join(L.split(chunk, a)))
    assert check_program(program, [array(Float, length)]) == array(Float, length)


# ---------------------------------------------------------------------------
# pad / slide semantics
# ---------------------------------------------------------------------------

@given(st.lists(floats, min_size=1, max_size=30), st.integers(0, 3), st.integers(0, 3))
def test_pad_clamp_length_and_boundary_values(data, left, right):
    program = L.fun([array(Float, Var("N"))], lambda a: L.pad(left, right, L.CLAMP, a))
    out = evaluate_program(program, [data])
    assert len(out) == left + len(data) + right
    assert all(v == data[0] for v in out[:left])
    assert all(v == data[-1] for v in out[len(out) - right:])
    assert out[left:left + len(data)] == data


@given(st.lists(floats, min_size=1, max_size=30), st.integers(1, 3))
def test_pad_wrap_is_periodic(data, amount):
    program = L.fun([array(Float, Var("N"))], lambda a: L.pad(amount, amount, L.WRAP, a))
    out = evaluate_program(program, [data])
    n = len(data)
    for i, value in enumerate(out):
        assert value == data[(i - amount) % n]


@given(
    st.lists(floats, min_size=3, max_size=40),
    st.integers(2, 5),
    st.integers(1, 3),
)
def test_slide_window_count_and_content(data, size, step):
    if len(data) < size:
        data = data + [0.0] * (size - len(data))
    program = L.fun([array(Float, Var("N"))], lambda a: L.slide(size, step, a))
    windows = evaluate_program(program, [data])
    expected_count = (len(data) - size) // step + 1
    assert len(windows) == expected_count
    for index, window in enumerate(windows):
        start = index * step
        assert window == data[start:start + size]


@given(st.lists(floats, min_size=1, max_size=25))
def test_pad_then_slide_preserves_element_count(data):
    """The canonical stencil shape keeps one output per input element."""
    program = L.fun(
        [array(Float, Var("N"))],
        lambda a: L.map(lambda nbh: L.reduce(add, 0.0, nbh),
                        L.slide(3, 1, L.pad(1, 1, L.CLAMP, a))),
    )
    out = evaluate_program(program, [data])
    assert len(out) == len(data)


@given(
    st.integers(2, 6).flatmap(
        lambda rows: st.integers(2, 6).map(lambda cols: (rows, cols))
    ),
    st.integers(0, 1000),
)
def test_transpose_is_an_involution(shape, seed):
    rows, cols = shape
    grid = np.random.default_rng(seed).random((rows, cols))
    program = L.fun(
        [array(Float, Var("N"), Var("M"))], lambda a: L.transpose(L.transpose(a))
    )
    out = np.array(evaluate_program(program, [grid]))
    assert np.allclose(out, grid)


@given(st.lists(floats, min_size=2, max_size=40), st.integers(1, 5))
def test_split_join_is_identity(data, chunk):
    remainder = len(data) % chunk
    if remainder:
        data = data + [0.0] * (chunk - remainder)
    program = L.fun([array(Float, Var("N"))], lambda a: L.join(L.split(chunk, a)))
    assert evaluate_program(program, [data]) == data


# ---------------------------------------------------------------------------
# Overlapped tiling: semantics preservation for arbitrary valid parameters
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([(3, 1), (3, 2), (5, 2), (5, 3)]),  # (size, step)
    st.integers(2, 12),   # tiles
    st.integers(1, 8),    # outputs per tile
    st.integers(0, 1000), # data seed
)
def test_overlapped_tiling_preserves_semantics_for_valid_parameters(
        window, tiles, per_tile, seed):
    """For every valid (u, v) choice, both sides of the rewrite agree (paper §4.1),
    and wherever the tiles cover a length, they hold the untiled slide's windows."""
    size, step = window
    overlap = size - step
    tile_step = per_tile * step
    tile_size = tile_step + overlap
    padded_length = tiles * tile_step + overlap
    n = padded_length - 2  # the program pads by 1 on each side
    tiling = OverlappedTiling(size, step, tile_size)
    assert tiling.covers(padded_length)
    assert (tiling.tile_step, tiling.outputs_per_tile) == (tile_step, per_tile)
    for length in range(size, padded_length + 1):
        if tiling.covers(length):
            windows = check_program(
                L.fun([array(Float, length)], lambda a: L.slide(size, step, a)),
                [array(Float, length)]).size
            assert tiling.tiles(length) * tiling.outputs_per_tile == windows

    program = L.fun(
        [array(Float, Var("N"))],
        lambda a: L.map(lambda nbh: L.reduce(add, 0.0, nbh),
                        L.slide(size, step, L.pad(1, 1, L.CLAMP, a))),
    )
    rule = TileStencilNDRule(tile_size=tile_size, ndims=1)
    target = find_applications(program.body, rule)[0]
    tiled = Lambda(program.params, apply_at(program.body, rule, target))

    data = list(np.random.default_rng(seed).random(n))
    assert np.allclose(
        np.array(evaluate_program(program, [data])),
        np.array(evaluate_program(tiled, [data])),
    )


# ---------------------------------------------------------------------------
# Multi-dimensional wrappers
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(
    st.integers(3, 8),
    st.integers(3, 8),
    st.integers(0, 10_000),
)
def test_2d_box_stencil_matches_numpy_for_random_grids(rows, cols, seed):
    program = L.fun(
        [array(Float, Var("N"), Var("M"))],
        lambda a: L.map_nd(
            lambda nbh: L.reduce(add, 0.0, L.join(nbh)),
            L.slide_nd(3, 1, L.pad_nd(1, 1, L.CLAMP, a, 2), 2),
            2,
        ),
    )
    grid = np.random.default_rng(seed).random((rows, cols))
    out = np.array(evaluate_program(program, [grid]))[..., 0]
    padded = np.pad(grid, 1, mode="edge")
    golden = sum(padded[i:i + rows, j:j + cols] for i in range(3) for j in range(3))
    assert np.allclose(out, golden)


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 100))
def test_zip_nd_pairs_every_element(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.random((rows, cols)), rng.random((rows, cols))
    program = L.fun(
        [array(Float, Var("N"), Var("M"))] * 2,
        lambda x, y: L.map_nd(
            lambda t: L.get(0, t), L.zip_nd([x, y], 2), 2
        ),
    )
    out = np.array(evaluate_program(program, [a, b]))
    assert np.allclose(out, a)
