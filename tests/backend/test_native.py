"""Native regions: the relation, the whitelist, the cache and the demotions.

A fused region on the default tile spec is compiled to one C loop nest
(:mod:`repro.backend.native`).  The acceptance properties: every suite app
on the default plan is byte-equal to the reference interpreter with every
region native; over grids seeded with NaN / inf / signed zeros / subnormals
/ huge values the native plan, the ufunc-tiled plan and the generic loop
agree bit for bit on every non-NaN cell and are NaN together elsewhere,
with no region rejected at capture; every whitelisted operation is exact,
everything else declines to ufunc tiles under a counted reason; a
temporal block split into row bands on the replay pool is bit-identical to
the per-sweep loop at every band count, and a failing band is a decline at
capture and an error raised only after every band has finished at steady
state; and the object cache survives hostile directories, truncated
objects, concurrent compilers and injected faults, each landing on the
tiled path with the same bits.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import pickle
import queue
import re
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import faults
from repro.apps.suite import ALL_BENCHMARKS, get_benchmark
from repro.backend import fuse, native
from repro.backend import plan as plan_module
from repro.backend.base import InterpreterBackend, NumpyBackend
from repro.backend.fuse import fusable_regions, lower_tape
from repro.backend.numpy_backend import TapeEntry
from repro.backend.plan import ExecutionPlan, _same_or_nan, iterate_generic
from repro.backend.pool import BufferPool
from repro.backend.ufunc_trace import trace_function
from repro.core import builders as L
from repro.core.arithmetic import Var
from repro.core.types import Float
from repro.core.userfuns import make_userfun

try:
    native.compiler()
    HAVE_CC = True
except native.Unavailable:
    HAVE_CC = False

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on this host")

#: Two shapes per rank, the second with odd extents.
SHAPES = {2: [(12, 16), (7, 9)], 3: [(4, 6, 8), (3, 5, 7)]}
EXPLICIT_TILES = {2: (4, 3), 3: (2, 3, 4)}
SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                    2.2e-308, 1e308, -1e308])


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


def fallbacks(reason: str) -> int:
    return plan_module._FUSION_FALLBACKS_TOTAL.values.get(reason, 0)


def cache_results() -> dict:
    return dict(native._CACHE_TOTAL.values)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty object cache of this test's own; nothing loaded."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    native.reset()
    yield tmp_path / "xdg" / "repro" / "native"
    native.reset()


@pytest.fixture(autouse=True)
def disarmed():
    yield
    faults.disarm()


# ---------------------------------------------------------------------------
# (i) every suite app, default plan, against the interpreter
# ---------------------------------------------------------------------------

def assert_default_plan_matches_interpreter(key, shape, steps=5):
    bench = get_benchmark(key)
    program, carry = bench.build_program(), bench.carry_spec()
    inputs = bench.make_inputs(shape, 11)
    plan = NumpyBackend(cache=None).plan(program, inputs)
    out = plan.iterate(inputs, steps, carry=carry)
    reference = iterate_generic(InterpreterBackend(), program, inputs, steps,
                                carry=carry)
    assert np.array_equal(bits(out), bits(reference)), key
    return plan.stats()


class TestSuiteAppsOnTheDefaultPlan:
    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    @pytest.mark.parametrize("odd", [0, 1])
    def test_default_plan_is_byte_equal_to_the_interpreter(self, key, odd):
        shape = SHAPES[ALL_BENCHMARKS[key].ndims][odd]
        stats = assert_default_plan_matches_interpreter(key, shape)
        assert stats["fused_regions"] > 0 and stats["fusion_fallbacks"] == 0
        assert stats["native_regions"] == \
            (stats["fused_regions"] if HAVE_CC else 0), stats

    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_a_host_without_a_compiler_replays_ufunc_tiles(self, key,
                                                           monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent")
        before = fallbacks("native_compiler")
        shape = SHAPES[ALL_BENCHMARKS[key].ndims][1]
        stats = assert_default_plan_matches_interpreter(key, shape, steps=3)
        assert stats["native_regions"] == 0 < stats["fused_regions"]
        assert stats["fused_tiles"] >= stats["fused_regions"]
        assert stats["fusion_fallbacks"] == 0
        assert fallbacks("native_compiler") - before == stats["fused_regions"]

    @needs_cc
    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_tapes_and_grid_sizes_share_one_source(self, key):
        bench = get_benchmark(key)
        texts = set()
        for shape in SHAPES[bench.ndims]:
            inputs = bench.make_inputs(shape, 0)
            plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs)
            plan.iterate(inputs, 6, carry=bench.carry_spec())
            sources = plan.native_sources()
            assert len(sources) == plan.stats()["native_regions"] >= 3
            texts.update(sources)
        assert len(texts) == 1
        (text,) = texts
        assert "void region(" in text and "restrict" in text
        if key == "hotspot2d":  # two bases and one store
            assert set(re.findall(r"p\[\d+\]", text)) == {"p[0]", "p[1]", "p[2]"}

    @needs_cc
    def test_explicit_tiles_and_unfused_stay_off_the_native_path(self):
        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((12, 16), 0)
        backend = NumpyBackend(cache=None)
        tiled = backend.plan(bench.build_program(), inputs, tile_shape=(4, 3))
        unfused = backend.plan(bench.build_program(), inputs, tile_shape=False)
        for plan in (tiled, unfused):
            plan.run(inputs)
            assert plan.stats()["native_regions"] == 0
            assert plan.native_sources() == []
        assert tiled.stats()["fused_tiles"] > tiled.stats()["fused_regions"]

    @needs_cc
    def test_native_traffic_counts_each_buffer_once(self):
        # Five shifted views of one padded grid are one grid: Hotspot2D reads
        # the padded temperature and the power grid and stores the next
        # padded temperature, ~3 grids, where the ufunc tiles move ~36.
        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((256, 256), 0)
        backend = NumpyBackend(cache=None)
        plan = backend.plan(bench.build_program(), inputs)
        plan.iterate(inputs, 4, carry=bench.carry_spec())
        grid = inputs[0].nbytes
        moved = plan.stats()["replay_bytes_per_step"]
        assert 3 * grid <= moved <= 1.5 * 3 * grid, moved / grid
        tiled = backend.plan(bench.build_program(), inputs, tile_shape=(32, None))
        tiled.iterate(inputs, 4, carry=bench.carry_spec())
        assert tiled.stats()["replay_bytes_per_step"] > 10 * moved


# ---------------------------------------------------------------------------
# (ii) the special-value matrix
# ---------------------------------------------------------------------------

def seeded_with_special_values(grids, seed):
    rng = np.random.default_rng(seed)
    seeded = []
    for grid in grids:
        grid = np.array(grid, dtype=np.float64)
        mask = rng.random(grid.shape) < rng.uniform(0.2, 0.3)
        grid[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
        seeded.append(grid)
    return seeded


@needs_cc
class TestSpecialValueMatrix:
    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_native_tiles_and_generic_agree_off_nan(self, key):
        bench = ALL_BENCHMARKS[key]
        program, carry = bench.build_program(), bench.carry_spec()
        shape = SHAPES[bench.ndims][1]
        rejected = fallbacks("native_verification")
        with np.errstate(all="ignore"):
            for seed in range(20):
                inputs = seeded_with_special_values(
                    bench.make_inputs(shape, seed), seed)
                backend = NumpyBackend(cache=None)
                reference = iterate_generic(backend, program, inputs, 3,
                                            carry=carry)
                compiled = backend.plan(program, inputs)
                tiled = backend.plan(program, inputs,
                                     tile_shape=EXPLICIT_TILES[bench.ndims])
                real = ~np.isnan(reference)
                for plan in (compiled, tiled):
                    out = plan.iterate(inputs, 3, carry=carry)
                    assert _same_or_nan(out, reference), (key, seed)
                    assert np.array_equal(bits(out)[real],
                                          bits(reference)[real]), (key, seed)
                stats = compiled.stats()
                assert stats["native_regions"] == stats["fused_regions"] > 0
                assert tiled.stats()["native_regions"] == 0
        assert fallbacks("native_verification") == rejected

    def test_the_relation_is_bits_or_nan_on_both_sides(self):
        nan, other = np.float64("nan"), -np.float64("nan")
        assert bits(np.array([nan]))[0] != bits(np.array([other]))[0]
        a = np.array([1.0, nan, 0.0, np.inf])
        assert _same_or_nan(a, np.array([1.0, other, 0.0, np.inf]))
        assert not plan_module._bits_equal(a, np.array([1.0, other, 0.0, np.inf]))
        assert not _same_or_nan(a, np.array([1.0, nan, -0.0, np.inf]))
        assert not _same_or_nan(a, np.array([1.0, 2.0, 0.0, np.inf]))
        assert not _same_or_nan(a, np.array([nan, nan, 0.0, np.inf]))
        assert not _same_or_nan(a, a.astype(np.float32))
        assert _same_or_nan(np.array([True, False]), np.array([True, False]))


# ---------------------------------------------------------------------------
# (iii) one lambda per whitelisted operation, through trace_function
# ---------------------------------------------------------------------------

def fuse_lambda(fn, args, tile=None):
    """Trace ``fn(*args)``, fuse the one-schedule tape, replay it.

    Returns ``(result, info, expected)``: what the fused ops left in the
    schedule's output, the optimizer's report, and NumPy's own ``fn(*args)``.
    """
    pool = BufferPool()
    with np.errstate(all="ignore"):
        expected = np.array(fn(*args))
        schedule, _result = trace_function(fn, args, pool)
        assert schedule is not None
        entries = [TapeEntry(schedule.run, reads=schedule.leaves,
                             schedule=schedule)]
        optimized = lower_tape(entries, fusable_regions(entries, schedule.out),
                               tile, pool)
        assert optimized is not None, "the lambda needs at least two nodes"
        ops, _scratch, info = optimized
        schedule.out.fill(0)
        for op in ops:
            op()
    return schedule.out.copy(), info, expected


def assert_native_matches_numpy(fn, args):
    result, info, expected = fuse_lambda(fn, args)
    assert info.declines == [] and len(info.natives) == info.regions == 1
    assert result.dtype == expected.dtype and result.shape == expected.shape
    if result.dtype != np.float64:
        assert np.array_equal(result, expected)
        return info.natives[0].source
    assert _same_or_nan(result, expected)
    real = ~np.isnan(expected)
    assert np.array_equal(bits(result)[real], bits(expected)[real])
    return info.natives[0].source


def operand_grids(shape=(6, 10), seed=0):
    """Two grids with every special value, pairwise, somewhere."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) * 3
    b = rng.normal(size=shape) * 3
    flat_a, flat_b = a.reshape(-1), b.reshape(-1)
    count = min(flat_a.size, SPECIAL.size ** 2) // 2
    flat_a[:count] = np.repeat(SPECIAL, SPECIAL.size)[:count]
    flat_b[:count] = np.tile(SPECIAL, SPECIAL.size)[:count]
    return a, b


COMPARISONS = [np.less, np.less_equal, np.greater, np.greater_equal,
               np.equal, np.not_equal]


@needs_cc
class TestWhitelistedOperations:
    @pytest.mark.parametrize("ufunc", [np.add, np.subtract, np.multiply,
                                       np.true_divide],
                             ids=lambda ufunc: ufunc.__name__)
    def test_binary_arithmetic(self, ufunc):
        a, b = operand_grids()
        assert_native_matches_numpy(lambda x, y: ufunc(ufunc(x, y), y), [a, b])
        assert_native_matches_numpy(lambda x, y: ufunc(1.5, ufunc(x, y)), [a, b])

    @pytest.mark.parametrize("ufunc", [np.negative, np.absolute, np.sqrt],
                             ids=lambda ufunc: ufunc.__name__)
    def test_unary_arithmetic(self, ufunc):
        a, b = operand_grids()
        assert_native_matches_numpy(lambda x, y: ufunc(ufunc(x) - y), [a, b])

    def test_operators_spell_the_same_ufuncs(self):
        a, b = operand_grids()
        assert_native_matches_numpy(
            lambda x, y: abs(-x / y) * (x - y) + y, [a, b])

    @pytest.mark.parametrize("ufunc", COMPARISONS,
                             ids=lambda ufunc: ufunc.__name__)
    def test_comparison_feeds_where(self, ufunc):
        a, b = operand_grids()
        assert_native_matches_numpy(
            lambda x, y: np.where(ufunc(x, y), x, y), [a, b])
        assert_native_matches_numpy(
            lambda x, y: np.where(ufunc(x, 0.0), 1.0, y), [a, b])

    @pytest.mark.parametrize("ufunc", COMPARISONS,
                             ids=lambda ufunc: ufunc.__name__)
    def test_bool_result_is_stored_as_bool(self, ufunc):
        a, b = operand_grids()
        text = assert_native_matches_numpy(lambda x, y: ufunc(x + y, y), [a, b])
        assert "unsigned char *restrict o0_" in text

    def test_bools_take_part_in_arithmetic_as_zero_and_one(self):
        a, b = operand_grids()
        mask = np.asarray(a > 0)  # a closed-over bool leaf
        assert_native_matches_numpy(
            lambda x, y: (x < y) * x + mask * y, [a, b])
        assert_native_matches_numpy(
            lambda x, y: np.where(mask, x, y) - (mask == (x < y)), [a, b])

    def test_where_takes_a_bool_scalar(self):
        a, b = operand_grids()
        assert_native_matches_numpy(lambda x, y: np.where(True, x + y, y), [a, b])
        assert_native_matches_numpy(
            lambda x, y: np.where(np.False_, x + y, y), [a, b])

    def test_where_on_a_float_condition_is_never_a_region(self):
        # ``np.copyto(..., where=<float array>)`` refuses the cast, so the
        # tracer's own first run of the schedule raises: a capture arena
        # re-executes such a function per sweep and no region ever holds it.
        a, b = operand_grids()
        with pytest.raises(TypeError), np.errstate(all="ignore"):
            trace_function(lambda x, y: np.where(x, x + y, y), [a, b],
                           BufferPool())

    @pytest.mark.parametrize("lo,hi", [
        (-1.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (-1.0, np.nan),
        (np.nan, np.nan), (-np.inf, np.inf), (0.0, -0.0), (-0.0, 0.0),
        (0, True),
    ])
    def test_clip_scalar_bounds(self, lo, hi):
        a, b = operand_grids()
        assert_native_matches_numpy(
            lambda x, y: np.clip(x * y, lo, hi), [a, b])

    def test_clip_keeps_the_sign_of_a_zero_that_equals_a_bound(self):
        # NumPy's scalar-bounds loop is ``x < lo ? lo : x``, not
        # ``max(x, lo)``: clip(-0.0, 0.0, 1.0) stays -0.0.  (Its array-bounds
        # loop answers +0.0, which is why those decline.)
        zeros = np.array([[-0.0, 0.0, -0.0, 0.0]])
        result, info, expected = fuse_lambda(
            lambda x: np.clip(x * 1.0, 0.0, 1.0), [zeros])
        assert len(info.natives) == 1
        assert np.array_equal(bits(result), bits(zeros))
        assert np.array_equal(bits(expected), bits(zeros))

    def test_python_int_and_bool_scalars(self):
        a, b = operand_grids()
        assert_native_matches_numpy(
            lambda x, y: (0 + x) * True - (y / 3) * False + 2 ** 60, [a, b])
        assert_native_matches_numpy(
            lambda x, y: np.float32(0.1) * x + np.int64(7) - np.True_ * y,
            [a, b])

    def test_scalar_literals_keep_their_bits(self):
        a, b = operand_grids()
        for value in (0.1, -0.0, 5e-324, 1e308, float("inf"), float("-inf"),
                      float("nan")):
            assert_native_matches_numpy(
                lambda x, y, value=value: (x + value) * value, [a, b])

    def test_broadcast_row_leaf(self):
        a, b = operand_grids()
        row = b[:1]
        assert row.shape == (1, 10)
        text = assert_native_matches_numpy(
            lambda x, r: (r * 2.0) + x * r, [a, row])
        assert "s[" in text
        column = b[:, :1]
        text = assert_native_matches_numpy(
            lambda x, c: (c * 2.0) + x * c, [a, column])
        assert "const double a0 = *(const double *)" in text  # hoisted per row

    def test_strided_and_reversed_leaves(self):
        a, b = operand_grids((6, 20))
        text = assert_native_matches_numpy(
            lambda x, y: x * y - y, [a[:, ::2], b[::-1, 10:]])
        assert "j * b0r0_s" in text and "b1r1_[j]" in text
        assert_native_matches_numpy(
            lambda x, y: x * y - y, [a[:, ::-1], b[::-1, ::-1]])

    def test_rank_1_region(self):
        a, b = operand_grids((60,))
        text = assert_native_matches_numpy(
            lambda x, y: np.sqrt(x * x + y * y), [a, b])
        assert "for (int64_t j = lo; j < hi; ++j)" in text

    def test_rank_4_region(self):
        a, b = operand_grids((3, 4, 5, 6))
        assert_native_matches_numpy(
            lambda x, y: np.where(x < y, x - y, y / x), [a, b[:, :1]])

    def test_a_leaf_aligned_with_an_internal_buffer_reads_its_register(self):
        # Two schedules in one region: the second reads the first's output
        # buffer as a leaf, which must become the register, not a load.
        a, b = operand_grids()
        pool = BufferPool()
        with np.errstate(all="ignore"):
            first, mid = trace_function(lambda x, y: x * y + y, [a, b], pool)
            second, _ = trace_function(lambda m, y: m - y * 2.0, [mid, b], pool)
            expected = (a * b + b) - b * 2.0
            entries = [TapeEntry(s.run, reads=s.leaves, schedule=s)
                       for s in (first, second)]
            ops, _scratch, info = lower_tape(
                entries, fusable_regions(entries, second.out), None, pool)
            second.out.fill(0)
            mid.fill(0)  # the fused region must not depend on it
            for op in ops:
                op()
        assert len(info.natives) == 1
        assert info.natives[0].source.count("_[j];") == 2  # a and b, not ``mid``
        assert _same_or_nan(second.out, expected)
        real = ~np.isnan(expected)
        assert np.array_equal(bits(second.out)[real], bits(expected)[real])


# ---------------------------------------------------------------------------
# (iv) declines keep their ufunc tiles, counted by reason
# ---------------------------------------------------------------------------

def elementwise_program(name, numpy_fn):
    fn = make_userfun(name, ["x"], "return x;", lambda x: x, numpy_fn=numpy_fn)
    return L.fun([L.array_type(Float, Var("N"), Var("M"))],
                 lambda grid: L.map_nd(lambda x: L.FunCall(fn, x), grid, 2))


INT_LEAF = np.arange(54, dtype=np.int64).reshape(6, 9)
FLOAT32_LEAF = np.linspace(0, 1, 54, dtype=np.float32).reshape(6, 9)

DECLINES = {
    "power": ("native_op", lambda x: np.power(x, 2) + x),
    "exp": ("native_op", lambda x: np.exp(x) * x),
    "int64_leaf": ("native_dtype", lambda x: x * 2.0 + INT_LEAF),
    "float32_leaf": ("native_dtype", lambda x: x * 2.0 + FLOAT32_LEAF),
    "float32_node": ("native_dtype", lambda x: (x > 0) * np.float32(2) + x),
    "clip_array_bounds": ("native_op", lambda x: np.clip(x * 2.0, -x, x)),
}


@needs_cc
class TestDeclines:
    @pytest.mark.parametrize("case", sorted(DECLINES))
    def test_a_declined_region_is_ufunc_tiled_and_counted_once(self, case):
        reason, fn = DECLINES[case]
        grid = np.random.default_rng(3).normal(size=(6, 9))
        program = elementwise_program(f"decline_{case}", fn)
        before = {label: fallbacks(label) for label in
                  ("native_op", "native_dtype", "native_layout")}
        plan = NumpyBackend(cache=None).plan(program, [grid])
        out = plan.run([grid])
        assert np.array_equal(bits(out), bits(fn(grid)))
        assert np.array_equal(bits(plan.run([grid])), bits(out))
        stats = plan.stats()
        assert stats["fused_regions"] == 1 and stats["native_regions"] == 0
        assert stats["fusion_fallbacks"] == 0 and stats["fused_tiles"] >= 1
        after = {label: fallbacks(label) for label in before}
        before[reason] += 1
        assert after == before

    def test_reading_an_internal_buffer_before_its_write_declines(self):
        # A region whose leaf views a buffer no node has written yet would
        # read last sweep's contents; a register cannot stand for that.
        a, b = operand_grids()
        pool = BufferPool()
        with np.errstate(all="ignore"):
            first, mid = trace_function(lambda x, y: x * y + y, [a, b], pool)
            second, _ = trace_function(lambda m, y: m - y * 2.0, [mid, b],
                                       pool)
        entries = [TapeEntry(s.run, reads=s.leaves, schedule=s)
                   for s in (second, first)]  # reader before writer
        _ops, _scratch, info = lower_tape(
            entries, fusable_regions(entries, first.out), None, pool)
        assert info.declines == ["native_layout"] and info.natives == []


# ---------------------------------------------------------------------------
# The demotion path: fault points, capture-time rejection
# ---------------------------------------------------------------------------

def hotspot_plan(shape=(12, 16)):
    bench = get_benchmark("hotspot2d")
    inputs = bench.make_inputs(shape, 5)
    program, carry = bench.build_program(), bench.carry_spec()
    backend = NumpyBackend(cache=None)
    reference = iterate_generic(backend, program, inputs, 4, carry=carry)
    plan = backend.plan(program, inputs)
    out = plan.iterate(inputs, 4, carry=carry)
    assert np.array_equal(bits(out), bits(reference))
    return plan


@needs_cc
class TestDemotion:
    @pytest.mark.parametrize("point,spec,reason", [
        ("native.compile_error", "native.compile_error:at=1",
         "native_compile"),
        ("native.load_error", "native.load_error:at=1:times=2",
         "native_load"),
    ])
    def test_fault_demotes_one_region_and_the_next_plan_retries(
            self, fresh_cache, point, spec, reason):
        before = fallbacks(reason)
        faults.arm(spec)
        stats = hotspot_plan().stats()
        assert faults.fired(point) >= 1
        # The first region fell back to ufunc tiles; the schedule ran out,
        # so the plan's other tapes compiled.
        assert stats["fused_regions"] == 3 and stats["native_regions"] == 2
        assert stats["fusion_fallbacks"] == 0
        assert fallbacks(reason) - before == 1
        assert not list(fresh_cache.glob("*.tmp"))
        retried = hotspot_plan().stats()
        assert retried["native_regions"] == retried["fused_regions"] == 3
        assert fallbacks(reason) - before == 1

    def test_one_failed_load_is_rebuilt_not_demoted(self, fresh_cache):
        before = fallbacks("native_load")
        faults.arm("native.load_error:at=1")
        stats = hotspot_plan().stats()
        assert faults.fired("native.load_error") == 1
        assert stats["native_regions"] == stats["fused_regions"] == 3
        assert fallbacks("native_load") == before
        # one object for the region's text, one for its temporal block's
        assert len(list(fresh_cache.glob("*.so"))) == 2

    def test_a_native_tape_rejected_at_capture_is_rebuilt_on_tiles(
            self, monkeypatch):
        genuine = plan_module._same_or_nan
        calls = []

        def reject_first(a, b):
            calls.append(1)
            return genuine(a, b) and len(calls) > 1

        monkeypatch.setattr(plan_module, "_same_or_nan", reject_first)
        before = fallbacks("native_verification")
        stats = hotspot_plan().stats()
        assert fallbacks("native_verification") - before == 1
        assert stats["fused_regions"] == 3 and stats["native_regions"] == 2
        assert stats["fusion_fallbacks"] == 0

    def test_a_temporal_mismatch_keeps_the_plan_per_step(self):
        # The capture-time check compares one block with the per-step
        # replays from the same state; a corrupted block result leaves the
        # plan per-step for good, counted once, with the same bits.
        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((12, 16), 5)
        program, carry = bench.build_program(), bench.carry_spec()
        backend = NumpyBackend(cache=None)
        blocked = backend.plan(program, inputs)
        blocked.iterate(inputs, 1, carry=carry)
        assert blocked.stats()["temporal_steps"] > 1
        before = fallbacks("temporal_verification")
        faults.arm("native.temporal_mismatch")
        plan = NumpyBackend(cache=None).plan(program, inputs)
        for steps in (3, 40):
            assert np.array_equal(
                bits(plan.iterate(inputs, steps, carry=carry)),
                bits(iterate_generic(backend, program, inputs, steps,
                                     carry=carry)))
        assert faults.fired("native.temporal_mismatch") == 1
        stats = plan.stats()
        assert stats["temporal_steps"] == 1 and stats["fusion_fallbacks"] == 1
        assert stats["buffers"] == blocked.stats()["buffers"] - 1  # no ring
        assert fallbacks("temporal_verification") - before == 1
        assert all(tape.block is None for tape in plan._tapes.values())

    def test_the_check_counts_no_replays_and_passes_capture_errors_on(
            self, monkeypatch):
        # The check's per-step tapes are not caller steps: one iterated
        # step is one replay.  A capture error among them is the caller's,
        # as it is in a per-step loop — not a temporal decline — and the
        # ring goes back to the pool.
        from repro.backend.numpy_backend import PlanCaptureError
        from repro.backend.plan import ExecutionPlan

        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((12, 16), 5)
        program, carry = bench.build_program(), bench.carry_spec()
        plan = NumpyBackend(cache=None).plan(program, inputs)
        plan.iterate(inputs, 1, carry=carry)
        stats = plan.stats()
        assert stats["temporal_steps"] > 1 and stats["replays"] == 1

        genuine, calls = ExecutionPlan._capture, []

        def fail_second(self, state, slot):
            calls.append(slot)
            if len(calls) == 2:
                raise PlanCaptureError("the second binding")
            return genuine(self, state, slot)

        monkeypatch.setattr(ExecutionPlan, "_capture", fail_second)
        counted = {reason: fallbacks(reason) for reason in
                   ("temporal_verification", "temporal_layout")}
        plan = NumpyBackend(cache=None).plan(program, inputs)
        with pytest.raises(PlanCaptureError, match="second binding"):
            plan.iterate(inputs, 1, carry=carry)
        assert {reason: fallbacks(reason) for reason in counted} == counted
        stats = plan.stats()
        assert stats["temporal_steps"] == 1 and stats["fusion_fallbacks"] == 0
        assert plan._pool.stats()["live_buffers"] == stats["buffers"]

    def test_replay_fault_point_and_histogram_still_fire(self):
        from repro.backend import fuse
        from repro.backend.numpy_backend import ExecutionError

        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((12, 16), 5)
        plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs)
        expected = plan.run(inputs)
        assert plan.stats()["native_regions"] == 1
        observed = fuse._REGION_REPLAY_SECONDS.snapshot()["count"]
        plan.run(inputs)
        assert fuse._REGION_REPLAY_SECONDS.snapshot()["count"] == observed + 1
        faults.arm("replay.chunk_error:at=1")
        with pytest.raises(ExecutionError, match="replay.chunk_error"):
            plan.run(inputs)
        assert np.array_equal(plan.run(inputs), expected)


# ---------------------------------------------------------------------------
# The temporal block rule
# ---------------------------------------------------------------------------

def clamp_chain(n, width=1):
    """The pad chain of a clamp pad of ``width`` on both axes of an n×n grid."""
    runs = tuple((d, 0, 1) for d in range(width)) + tuple(
        (width + n + d, n - 1, 1) for d in range(width))
    return tuple((axis, width, width, runs, None) for axis in (0, 1))


@needs_cc
class TestTemporalRule:
    def hotspot_region(self, n):
        """Hotspot2D's region, re-pointed at (untouched) n×n arrays."""
        tape = next(iter(hotspot_plan()._tapes.values()))
        region = tape.fusion.natives[0].region
        return region._replace(
            shape=(n, n), bases=[np.empty((n + 2, n + 2)), np.empty((n, n))],
            stores=[(np.empty((n, n)), region.stores[0][1])])

    @pytest.mark.parametrize("n,steps", [(256, 16), (512, 16), (1024, 8),
                                         (2048, 4)])
    def test_the_largest_ring_that_fits_the_tile_budget(self, n, steps):
        # (T - 1) levels of 2r + 2 = 4 padded rows of (n + 2) doubles
        from repro.backend.fuse import TILE_TARGET_BYTES

        wave = native.wavefront(self.hotspot_region(n), 0, clamp_chain(n),
                                TILE_TARGET_BYTES)
        assert wave.steps == steps and wave.base == 0
        assert wave.ring == (steps - 1, 4, n + 2)
        assert np.prod(wave.ring) * 8 <= TILE_TARGET_BYTES
        # a two-step ring over budget is no wavefront (a barrier block may
        # still run), not a decline
        assert native.wavefront(self.hotspot_region(n), 0, clamp_chain(n),
                                4 * (n + 2) * 8 - 1) is None

    def test_the_base_must_be_the_chains_padded_grid(self):
        # base 1 is the power grid: the region's shape, not the padded one
        with pytest.raises(native.Unavailable, match="temporal_layout"):
            native.wavefront(self.hotspot_region(12), 1, clamp_chain(12),
                             1 << 18)

    def test_only_clamp_and_constant_pads_block(self):
        region = self.hotspot_region(12)
        wrap = ((0, 1, 1, ((0, 11, 1), (13, 0, 1)), None),) + clamp_chain(12)[1:]
        mirror = clamp_chain(12)[:1] + ((1, 2, 2, ((0, 1, 1), (1, 0, 1),
                                                   (14, 11, 1), (15, 10, 1)),
                                         None),)
        constant = tuple((axis, 1, 1, (), 0.5) for axis in (0, 1))
        for chain in (wrap, mirror):
            with pytest.raises(native.Unavailable, match="temporal_boundary"):
                native.wavefront(region, 0, chain, 1 << 18)
        assert native.wavefront(region, 0, constant, 1 << 18).geometry[1] == 0

    @pytest.mark.parametrize("steps", [2, 8, 16, 17, 18, 35])
    def test_every_run_of_two_or_more_steps_is_a_block(self, monkeypatch,
                                                       steps):
        # ⌊steps / T⌋ blocks of T, then one block of the rest when that is
        # two or more, else one per-step replay — so an 8-step trajectory
        # segment is one block at any T >= 8.
        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((12, 16), 5)
        program, carry = bench.build_program(), bench.carry_spec()
        backend = NumpyBackend(cache=None)
        plan = backend.plan(program, inputs)
        plan.iterate(inputs, 1, carry=carry)
        T = plan.stats()["temporal_steps"]
        assert T == native.MAX_BLOCK_STEPS
        blocks, genuine = [], native.NativeBlock.__call__

        def counted(self, count):
            blocks.append(count)
            genuine(self, count)

        monkeypatch.setattr(native.NativeBlock, "__call__", counted)
        replays = plan.stats()["replays"]
        out = plan.iterate(inputs, steps, carry=carry)
        assert blocks == [T] * (steps // T) + (
            [steps % T] if steps % T >= 2 else [])
        assert plan.stats()["replays"] == replays + steps
        assert np.array_equal(bits(out), bits(iterate_generic(
            backend, program, inputs, steps, carry=carry)))

    def test_a_block_runs_at_most_its_ring(self):
        tape = next(iter(hotspot_plan()._tapes.values()))
        block = tape.block
        assert block is not None
        for steps in (0, block.steps + 1):
            with pytest.raises(ValueError):
                block(steps)


# ---------------------------------------------------------------------------
# Row bands: one block over several threads
# ---------------------------------------------------------------------------

#: ``(boundary, left, right)`` of the pad on every axis: the leading
#: axis's backward and forward reach are ``left`` and ``right``.
BAND_PADS = [("clamp", 1, 1), ("clamp", 2, 0), ("const", 1, 1),
             ("const", 0, 2), ("mirror", 1, 1)]

#: The carries a barrier block serves: one ``"out"`` whose wavefront ring
#: is over budget (``fuse.TILE_TARGET_BYTES`` patched to 0), and two
#: rotations, with and without a static third input.
BARRIER_CARRIES = [("out",), (1, "out"), (1, "out", None)]


def _padded(grid, rank, boundary, left, right):
    return L.pad_constant_nd(left, right, 0.5, grid, rank) \
        if boundary == "const" else L.pad_nd(left, right, boundary, grid, rank)


def _box(rank, left, right):
    """The window points and weights of a box stencil (weights sum to ½)."""
    size = left + right + 1
    points = list(itertools.product(range(size), repeat=rank))
    weights = [(k + 1) / (len(points) * (len(points) + 1))
               for k in range(len(points))]
    return size, points, weights


def _element(window, point):
    for index in point:
        window = L.at(index, window)
    return window


@functools.lru_cache(maxsize=None)
def band_program(rank, boundary, left, right):
    """A box stencil over ``pad(left, right)`` on every axis, carried."""
    size, points, weights = _box(rank, left, right)

    def update(*values):
        acc = 0.0
        for weight, value in zip(weights, values):
            acc = acc + weight * value
        return acc

    box = make_userfun(f"band_{rank}_{boundary}_{left}_{right}",
                       [f"x{k}" for k in range(len(points))], "return 0;",
                       update)

    def body(grid):
        return L.map_nd(
            lambda window: L.FunCall(box, *[_element(window, point)
                                            for point in points]),
            L.slide_nd(size, 1, _padded(grid, rank, boundary, left, right),
                       rank), rank)

    return L.fun([L.array_type(Float, *[Var(name) for name in "ABC"[:rank]])],
                 body)


@functools.lru_cache(maxsize=None)
def wave_program(rank, boundary, left, right, inputs):
    """A second-order-in-time box stencil: ``2·box(curr) − prev``, scaled
    by a static third grid when ``inputs`` is 3 (``carry=(1, "out"[,
    None])``)."""
    size, points, weights = _box(rank, left, right)

    def update(prev, *values):
        acc = 0.0
        for weight, value in zip(weights, values):
            acc = acc + weight * value
        if inputs == 3:
            return values[-1] * (2.0 * acc) - prev
        return 2.0 * acc - prev

    names = ["prev"] + [f"x{k}" for k in range(len(points))] + (
        ["c"] if inputs == 3 else [])
    wave = make_userfun(f"wave_{rank}_{boundary}_{left}_{right}_{inputs}",
                        names, "return 0;", update)

    def body(prev, curr, *static):
        windows = L.slide_nd(size, 1, _padded(curr, rank, boundary, left,
                                              right), rank)

        def f(zipped):
            window = L.get(1, zipped)
            return L.FunCall(wave, L.get(0, zipped),
                             *[_element(window, point) for point in points],
                             *([L.get(2, zipped)] if static else []))

        return L.map_nd(f, L.zip_nd([prev, windows, *static], rank), rank)

    grid = L.array_type(Float, *[Var(name) for name in "ABC"[:rank]])
    return L.fun([grid] * inputs, body)


def barrier_case(rank, pad, carry, n0, seed=0):
    """``(program, inputs)`` of one :data:`BARRIER_CARRIES` entry."""
    shape = (n0,) + ((6,) if rank == 2 else (3, 4))
    rng = np.random.default_rng(seed)
    if len(carry) == 1:
        return band_program(rank, *pad), [rng.random(shape)]
    inputs = [rng.random(shape) for _ in carry]
    if len(carry) == 3:
        inputs[2] = 0.5 + 0.5 * inputs[2]
    return wave_program(rank, *pad, len(carry)), inputs


class FencedPool(BufferPool):
    """A pool whose every buffer sits between guard rows of a sentinel NaN
    payload, each its own allocation (a band that writes one row past its
    ``hi`` writes what the next band writes, so only a fence sees a write
    past a grid)."""

    SENTINEL = np.uint64(0x7FF8DEADBEEF0001)
    ROWS = 2

    def __init__(self) -> None:
        super().__init__()
        self.fences = []

    def acquire(self, shape, dtype=np.float64) -> np.ndarray:
        shape, dtype = tuple(int(extent) for extent in shape), np.dtype(dtype)
        row = int(np.prod(shape[1:], dtype=np.int64)) * dtype.itemsize
        guard = -(-self.ROWS * row // 8) * 8
        inner = -(-int(np.prod(shape, dtype=np.int64)) * dtype.itemsize // 8) * 8
        whole = bytearray(2 * guard + inner)
        words = np.frombuffer(whole, np.uint64)
        words[:guard // 8] = self.SENTINEL
        words[(guard + inner) // 8:] = self.SENTINEL
        self.fences.append((words, guard // 8, (guard + inner) // 8))
        self.live_buffers += 1
        # its base is the bytearray, so the buffer is its own allocation
        return np.ndarray(shape, dtype, buffer=whole, offset=guard)

    def intact(self) -> bool:
        return all((words[:low] == self.SENTINEL).all()
                   and (words[high:] == self.SENTINEL).all()
                   for words, low, high in self.fences)


def fence_blocks(patch, pool) -> list:
    """Read ``pool``'s fences after every block of either kind; the list
    returned collects ``(steps, fences intact)`` per block.  (A failed
    assertion inside the capture check would read as a declined block.)"""
    ran = []
    for kind in (native.NativeBlock, native.BarrierBlock):
        def checked(self, steps, genuine=kind.__call__):
            genuine(self, steps)
            ran.append((steps, pool.intact()))

        patch.setattr(kind, "__call__", checked)
    return ran


def banded_hotspot():
    """A Hotspot2D plan at 12×16 whose blocks run in two bands."""
    bench = get_benchmark("hotspot2d")
    inputs = bench.make_inputs((12, 16), 5)
    program, carry = bench.build_program(), bench.carry_spec()
    plan = NumpyBackend(cache=None).plan(program, inputs, parallel_workers=2)
    return plan, program, inputs, carry


def barrier_acoustic(workers=2, shape=(6, 7, 9), seed=5):
    """An Acoustic plan whose barrier blocks run in ``workers`` bands,
    decided: ``(plan, program, inputs, carry)``."""
    bench = get_benchmark("acoustic")
    inputs = bench.make_inputs(shape, seed)
    program, carry = bench.build_program(), bench.carry_spec()
    plan = NumpyBackend(cache=None).plan(program, inputs,
                                         parallel_workers=workers)
    plan.iterate(inputs, 1, carry=carry)
    return plan, program, inputs, carry


def abort_blocks(*plans):
    """Raise the abort flag of every barrier block of ``plans``: bands
    spinning at a barrier return, so a hung test fails instead of holding
    the process-wide barrier lock for the tests after it."""
    for plan in plans:
        for tape in plan._tapes.values():
            if isinstance(tape.block, native.BarrierBlock):
                tape.block._sync[native._ABORT] = 1


def within(seconds, work, *plans):
    """Run ``work`` on a daemon thread; its error, re-raised, or a failure
    when it has not returned after ``seconds`` (a hung barrier, whose
    ``plans`` are then aborted)."""
    outcome = {}

    def run():
        try:
            outcome["value"] = work()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome["error"] = error

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        abort_blocks(*plans)
        worker.join(10)
        pytest.fail(f"still running after {seconds} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@needs_cc
class TestBands:
    @settings(max_examples=30, deadline=None)
    @given(rank=st.sampled_from([2, 3]), n0=st.integers(1, 40),
           bands=st.integers(1, 4), pad=st.sampled_from(BAND_PADS),
           data=st.data())
    def test_banded_blocks_are_the_per_sweep_loop(self, rank, n0, bands,
                                                  pad, data):
        # Bands of one row, bands narrower than (T - 1) * r, more bands
        # asked for than rows, and lopsided reaches all agree bit for bit,
        # and no band writes outside the store or its ring.
        program = band_program(rank, *pad)
        shape = (n0,) + ((6,) if rank == 2 else (3, 4))
        x = [np.random.default_rng(n0).random(shape)]
        pool = FencedPool()
        plan = ExecutionPlan(program, x, pool=pool, parallel_workers=bands)
        with pytest.MonkeyPatch.context() as patch:
            ran = fence_blocks(patch, pool)
            plan.iterate(x, 1, carry=("out",))
            T = plan.stats()["temporal_steps"]
            assert T == native.MAX_BLOCK_STEPS
            assert len(plan._block_rings) == min(bands, n0) \
                == plan.stats()["temporal_bands"]
            steps = data.draw(st.integers(1, 2 * T + 3), label="steps")
            assert np.array_equal(
                bits(plan.iterate(x, steps, carry=("out",))),
                bits(iterate_generic(NumpyBackend(cache=None), program, x,
                                     steps, carry=("out",))))
        assert all(intact for _steps, intact in ran), "a write past a grid"
        assert ran[0][0] == T  # the check's
        assert len(ran) == 1 + steps // T + (steps % T >= 2)

    @settings(max_examples=40, deadline=None)
    @given(rank=st.sampled_from([2, 3]), n0=st.integers(1, 24),
           bands=st.integers(1, 4),
           pad=st.sampled_from([pad for pad in BAND_PADS
                                if pad[0] != "mirror"]),
           carry=st.sampled_from(BARRIER_CARRIES), data=st.data())
    def test_barrier_blocks_are_the_per_sweep_loop(self, rank, n0, bands,
                                                   pad, carry, data):
        # Every carry the wavefront declines runs as barrier blocks: per
        # step the pointer and stride tables of the tape per-step replay
        # would use, bands meeting after each step, no ring.
        program, x = barrier_case(rank, pad, carry, n0)
        pool = FencedPool()
        plan = ExecutionPlan(program, x, pool=pool, parallel_workers=bands)
        with pytest.MonkeyPatch.context() as patch:
            if len(carry) == 1:
                patch.setattr(fuse, "TILE_TARGET_BYTES", 0)
            ran = fence_blocks(patch, pool)
            plan.iterate(x, 1, carry=carry)
            assert all(intact for _steps, intact in ran), "a write past a grid"
            stats = plan.stats()
            assert stats["temporal_steps"] == native.MAX_BLOCK_STEPS
            assert stats["temporal_bands"] == min(bands, n0)
            assert plan._accepted[1] is None and plan._block_rings == []
            steps = data.draw(st.integers(1, 2 * native.MAX_BLOCK_STEPS + 3),
                              label="steps")
            out, state = plan.iterate_state(x, steps, carry=carry)
        ref_out, ref_state = plan_module.iterate_state_generic(
            NumpyBackend(cache=None), program, x, steps, carry=carry)
        assert np.array_equal(bits(out), bits(ref_out))
        assert all(np.array_equal(bits(a), bits(b))
                   for a, b in zip(state, ref_state))
        assert all(intact for _steps, intact in ran), "a write past a grid"
        assert ran[0][0] == native.MAX_BLOCK_STEPS

    def test_a_barrier_block_leaves_what_its_replays_leave(self):
        # The binding after a block is the one T replays reach, so every
        # later lookup finds the tape per-step replay would run.
        plan, program, inputs, carry = barrier_acoustic(workers=None)
        assert plan.stats()["tapes"] == 5  # the prologue and a 3-cycle
        for steps in (2, 3, 4, 16, 19):
            out, state = plan._iterate(inputs, steps, carry)
            expected_state = list(plan._in_bufs)
            for _ in range(steps):
                tape = plan._tapes[plan_module._key(
                    expected_state, plan._pick_slot(expected_state))]
                expected_state = plan_module._rebind(expected_state,
                                                     tape.out, carry)
            assert out is tape.out
            assert [id(a) for a in state] == [id(b) for b in expected_state]

    def test_a_band_that_raises_at_the_check_keeps_the_plan_per_step(
            self, monkeypatch):
        genuine, called = native.NativeBlock._band, []

        def last_band_fails(self, steps, band, out=None):
            called.append(band)
            if band == len(self.bands) - 1:
                raise RuntimeError("the last band")
            genuine(self, steps, band)

        monkeypatch.setattr(native.NativeBlock, "_band", last_band_fails)
        before = fallbacks("temporal_verification")
        plan, program, inputs, carry = banded_hotspot()
        backend = NumpyBackend(cache=None)
        for steps in (3, 40):
            assert np.array_equal(
                bits(plan.iterate(inputs, steps, carry=carry)),
                bits(iterate_generic(backend, program, inputs, steps,
                                     carry=carry)))
        assert sorted(called) == [0, 1]  # the check ran both bands, once
        assert fallbacks("temporal_verification") - before == 1
        stats = plan.stats()
        assert stats["temporal_steps"] == 1 and stats["fusion_fallbacks"] == 1
        # both rings went back: the pool holds what the plan holds, and no
        # ring (the only 3-D buffers of a 2-D plan) is among them
        assert plan._pool.stats()["live_buffers"] == stats["buffers"]
        assert all(buffer.ndim == 2 for buffer in plan._buffers)
        assert plan._block_rings == []

    def test_a_raising_band_propagates_after_the_latch_joins(
            self, monkeypatch):
        plan, program, inputs, carry = banded_hotspot()
        plan.iterate(inputs, 1, carry=carry)
        assert plan.stats()["temporal_steps"] > 1
        assert len(plan._block_rings) == 2
        genuine, finished = native.NativeBlock._band, []

        def inline_fails_first(self, steps, band, out=None):
            if band == 0:  # the caller's band, at once
                raise RuntimeError("band 0")
            time.sleep(0.2)
            genuine(self, steps, band)
            finished.append(band)

        monkeypatch.setattr(native.NativeBlock, "_band", inline_fails_first)
        with pytest.raises(RuntimeError, match="band 0"):
            plan.iterate(inputs, 5, carry=carry)
        assert finished == [1]
        monkeypatch.undo()
        assert np.array_equal(
            bits(plan.iterate(inputs, 21, carry=carry)),
            bits(iterate_generic(NumpyBackend(cache=None), program, inputs,
                                 21, carry=carry)))

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_a_band_that_raises_aborts_the_barrier(self, monkeypatch,
                                                   failing):
        # The failing band never arrives: the others, spinning at the
        # barrier, see the abort flag and return, and the block raises the
        # band's error once every band has.
        plan, program, inputs, carry = barrier_acoustic(workers=3)
        assert plan.stats()["temporal_bands"] == 3
        genuine, entered = native.BarrierBlock._band, []

        def one_fails(self, steps, band):
            if band == failing:
                time.sleep(0.05)  # the others reach the first barrier
                raise RuntimeError(f"band {band}")
            entered.append(band)
            genuine(self, steps, band)

        monkeypatch.setattr(native.BarrierBlock, "_band", one_fails)
        with pytest.raises(RuntimeError, match=f"band {failing}"):
            within(30, lambda: plan.iterate(inputs, 16, carry=carry), plan)
        assert sorted(entered) == sorted({0, 1, 2} - {failing})
        monkeypatch.undo()
        assert np.array_equal(
            bits(plan.iterate(inputs, 21, carry=carry)),
            bits(iterate_generic(NumpyBackend(cache=None), program, inputs,
                                 21, carry=carry)))

    def test_the_chunk_fault_aborts_a_barrier_block(self):
        from repro.backend.numpy_backend import ExecutionError

        plan, program, inputs, carry = barrier_acoustic(workers=2)
        expected = iterate_generic(NumpyBackend(cache=None), program, inputs,
                                   16, carry=carry)
        for at in (1, 2):  # the caller's band or the pool's, as they race
            faults.arm(f"replay.chunk_error:at={at}")
            with pytest.raises(ExecutionError, match="replay.chunk_error"):
                within(30, lambda: plan.iterate(inputs, 16, carry=carry),
                       plan)
            assert faults.fired("replay.chunk_error") == 1
            faults.disarm()
            assert np.array_equal(bits(plan.iterate(inputs, 16, carry=carry)),
                                  bits(expected))

    @pytest.mark.parametrize("bands", [(2, 3), (3, 3)])
    def test_two_threads_share_the_pool_one_barrier_at_a_time(
            self, monkeypatch, bands):
        # On a pool of two threads, as on a two-core box, two 3-band groups
        # whose hand-offs interleave would each hold one spinning band and
        # wait for the thread the other holds; one banded barrier block at
        # a time cannot.  Each hand-off here waits 5 ms, so they would.
        class SlowHandOffs:
            def __init__(self):
                self._queue = queue.SimpleQueue()

            def put(self, item):
                time.sleep(0.005)
                self._queue.put(item)

            def get(self):
                return self._queue.get()

        pool = fuse.ReplayWorkerPool(max_threads=2)
        pool._queue = SlowHandOffs()
        monkeypatch.setattr(fuse, "_REPLAY_POOL", pool)
        cases = [barrier_acoustic(workers=count, seed=seed)
                 for seed, count in enumerate(bands)]
        assert [case[0].stats()["temporal_bands"] for case in cases] == \
            list(bands)
        expected = [iterate_generic(NumpyBackend(cache=None), program,
                                    inputs, 37, carry=carry)
                    for _plan, program, inputs, carry in cases]
        results = [[] for _ in cases]

        def trajectories(index):
            plan, _program, inputs, carry = cases[index]
            for _ in range(6):
                results[index].append(plan.iterate(inputs, 37, carry=carry))

        threads = [threading.Thread(target=trajectories, args=(index,),
                                    daemon=True) for index in (0, 1)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in threads):
            abort_blocks(*[case[0] for case in cases])
            pytest.fail("two barrier-blocked plans deadlocked")
        for produced, reference in zip(results, expected):
            assert len(produced) == 6
            assert all(np.array_equal(bits(out), bits(reference))
                       for out in produced)

    def test_a_temporal_mismatch_demotes_a_barrier_block(self):
        before = fallbacks("temporal_verification")
        faults.arm("native.temporal_mismatch")
        plan, program, inputs, carry = barrier_acoustic(workers=2)
        for steps in (3, 40):
            assert np.array_equal(
                bits(plan.iterate(inputs, steps, carry=carry)),
                bits(iterate_generic(NumpyBackend(cache=None), program,
                                     inputs, steps, carry=carry)))
        assert faults.fired("native.temporal_mismatch") == 1
        stats = plan.stats()
        assert stats["temporal_steps"] == stats["temporal_bands"] == 1
        assert stats["fusion_fallbacks"] == 1
        assert fallbacks("temporal_verification") - before == 1
        assert all(tape.block is None for tape in plan._tapes.values())

    def test_the_band_count_never_outgrows_the_pool(self, monkeypatch):
        # On 32 cores with every block over the floor, the bands stop at
        # the pool's threads plus the caller's: a band without a thread
        # would leave the others spinning at the first barrier.
        monkeypatch.setattr(fuse, "CORES", 32)
        monkeypatch.setattr(fuse, "SHARD_PROCESSES", 0)
        monkeypatch.setattr(native, "BARRIER_BAND_CELLS", 1)
        plan, program, inputs, carry = within(
            60, lambda: barrier_acoustic(workers=None, shape=(24, 5, 6)))
        bands = plan.stats()["temporal_bands"]
        assert 2 <= bands <= fuse.MAX_REPLAY_WORKERS + 1
        assert np.array_equal(
            bits(within(60, lambda: plan.iterate(inputs, 19, carry=carry),
                        plan)),
            bits(iterate_generic(NumpyBackend(cache=None), program, inputs,
                                 19, carry=carry)))

    def test_a_block_with_more_bands_than_the_pool_runs_declines(
            self, monkeypatch):
        monkeypatch.setattr(fuse, "_REPLAY_POOL",
                            fuse.ReplayWorkerPool(max_threads=2))
        before = fallbacks("temporal_layout")
        plan, program, inputs, carry = within(
            60, lambda: barrier_acoustic(workers=4))
        assert plan.stats()["temporal_steps"] == 1
        assert fallbacks("temporal_layout") - before == 1
        assert np.array_equal(
            bits(plan.iterate(inputs, 19, carry=carry)),
            bits(iterate_generic(NumpyBackend(cache=None), program, inputs,
                                 19, carry=carry)))

    @pytest.mark.parametrize("shards", [0, 1])
    def test_a_default_acoustic_plan_bands_over_two_cores(self, monkeypatch,
                                                          shards):
        # 32×96×96 × 16 steps gives each of two bands 2.4M cell updates a
        # block, over the floor; a plan a sixteenth that size stays serial,
        # and so does every plan of a process whose shard takes a core.
        monkeypatch.setattr(fuse, "CORES", 2)
        monkeypatch.setattr(fuse, "SHARD_PROCESSES", shards)
        bench = get_benchmark("acoustic")
        for shape, bands in (((32, 96, 96), 2 - shards), ((2, 96, 96), 1)):
            inputs = bench.make_inputs(shape, 3)
            plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs)
            plan.iterate(inputs, 1, carry=bench.carry_spec())
            stats = plan.stats()
            assert (stats["temporal_steps"], stats["temporal_bands"],
                    stats["parallel_workers"]) == (16, bands, 1)


# ---------------------------------------------------------------------------
# The object cache
# ---------------------------------------------------------------------------

SOURCE_TEMPLATE = """\
#include <stdint.h>
void region(char *const *p, const int64_t *s, const int64_t *n,
            int64_t lo, int64_t hi)
{
    for (int64_t j = lo; j < hi; ++j)
        ((double *)p[0])[j] = %s;
}
"""


#: A text defining both functions: ``steps`` writes T over ``[lo, hi)``.
TWO_FUNCTIONS = SOURCE_TEMPLATE + """
void steps(char *const *p, const int64_t *s, const int64_t *n, int64_t T,
           char *w, const int64_t *g, int64_t lo, int64_t hi)
{
    for (int64_t j = lo; j < hi; ++j)
        ((double *)p[0])[j] = (double)T;
}
"""


def run_kernel(function, count=4):
    import ctypes

    out = np.zeros(count)
    pointers = (ctypes.c_void_p * 1)(out.__array_interface__["data"][0])
    function(pointers, (ctypes.c_int64 * 1)(8), (ctypes.c_int64 * 1)(count),
             0, count)
    return out


def compile_in_child(arguments):
    cache_home, source = arguments
    os.environ["XDG_CACHE_HOME"] = cache_home
    from repro.backend import native as child_native

    value = run_kernel(child_native.kernel(source))[0]
    return value, dict(child_native._CACHE_TOTAL.values)


def native_plan_in_child(arguments):
    cache_home, pickled_backend, key, shape = arguments
    os.environ["XDG_CACHE_HOME"] = cache_home
    from repro.backend import native as child_native

    backend = pickle.loads(pickled_backend)
    bench = get_benchmark(key)
    inputs = bench.make_inputs(shape, 5)
    plan = backend.plan(bench.build_program(), inputs)
    out = plan.iterate(inputs, 4, carry=bench.carry_spec())
    return (out.tobytes(), plan.stats()["native_regions"],
            dict(child_native._CACHE_TOTAL.values))


@needs_cc
class TestObjectCache:
    def test_memory_then_disk_then_compiler(self, fresh_cache):
        source = SOURCE_TEMPLATE % "42.0"
        before = cache_results()

        def gained():
            return {label: count - before.get(label, 0)
                    for label, count in cache_results().items()
                    if count != before.get(label, 0)}

        assert run_kernel(native.kernel(source))[0] == 42.0
        assert gained() == {"compiled": 1}
        native.kernel(source)
        assert gained() == {"compiled": 1, "memory": 1}
        native.reset()
        assert run_kernel(native.kernel(source))[0] == 42.0
        assert gained() == {"compiled": 1, "memory": 1, "disk": 1}
        (stored,) = fresh_cache.iterdir()
        assert stored.suffix == ".so"
        assert (fresh_cache.stat().st_mode & 0o777) == 0o700

    def test_the_key_names_source_flags_compiler_and_cpu(self, fresh_cache,
                                                         monkeypatch):
        command = native.compiler()
        name = native._object_name("a", command)
        assert name == native._object_name("a", command)
        assert name != native._object_name("b", command)
        assert name != native._object_name("a", command + ["-g"])
        monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-g",))
        assert name != native._object_name("a", command)
        monkeypatch.undo()
        monkeypatch.setattr(native, "_cpu_flags", lambda: "flags : other")
        assert name != native._object_name("a", command)

    def test_a_cache_directory_that_is_a_file_is_passed_over(
            self, fresh_cache, tmp_path, monkeypatch):
        fresh_cache.parent.mkdir(parents=True)
        fresh_cache.write_text("not a directory")
        monkeypatch.setattr(native.tempfile, "gettempdir",
                            lambda: str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        chosen = native.cache_dir()
        assert chosen == str(tmp_path / "tmp" / f"repro-native-{os.getuid()}")
        assert run_kernel(native.kernel(SOURCE_TEMPLATE % "7.0"))[0] == 7.0
        assert len(os.listdir(chosen)) == 1

    def test_unwritable_or_foreign_directories_mean_memory_only(
            self, fresh_cache, tmp_path, monkeypatch):
        monkeypatch.setattr(native.tempfile, "gettempdir",
                            lambda: str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        genuine_access, genuine_stat = os.access, os.stat

        # unwritable: the permission probe says no to both candidates
        monkeypatch.setattr(native.os, "access", lambda path, mode: False)
        assert native.cache_dir() is None
        monkeypatch.setattr(native.os, "access", genuine_access)
        assert native.cache_dir() is not None

        # owned by another uid, then writable by others
        class Foreign:
            def __init__(self, info, **changed):
                self.st_mode = changed.get("mode", info.st_mode)
                self.st_uid = changed.get("uid", info.st_uid)

        for changed in ({"uid": os.getuid() + 1}, {"mode": 0o40777}):
            monkeypatch.setattr(
                native.os, "stat",
                lambda path, changed=changed, **kw:
                Foreign(genuine_stat(path, **kw), **changed))
            assert native.cache_dir() is None
            monkeypatch.setattr(native.os, "stat", genuine_stat)

        # memory only still compiles, and leaves nothing behind
        monkeypatch.setattr(native, "cache_dir", lambda: None)
        before = cache_results().get("compiled", 0)
        assert run_kernel(native.kernel(SOURCE_TEMPLATE % "9.0"))[0] == 9.0
        assert cache_results()["compiled"] == before + 1
        assert not list(tmp_path.rglob("*.so"))

    def test_a_truncated_object_is_unlinked_and_rebuilt_once(
            self, fresh_cache, tmp_path, monkeypatch):
        source = SOURCE_TEMPLATE % "3.0"
        native.kernel(source)
        (good,) = fresh_cache.iterdir()
        # The same object name under a directory nothing was loaded from,
        # cut short: dlopen must fail, not reuse a mapped library.
        second = tmp_path / "second" / "repro" / "native"
        second.mkdir(parents=True, mode=0o700)
        (second / good.name).write_bytes(good.read_bytes()[:512])
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "second"))
        native.reset()
        before = cache_results()
        assert run_kernel(native.kernel(source))[0] == 3.0
        after = cache_results()
        assert after["compiled"] == before["compiled"] + 1
        assert after.get("disk", 0) == before.get("disk", 0)
        (rebuilt,) = second.iterdir()
        assert rebuilt.name == good.name
        assert rebuilt.stat().st_size == good.stat().st_size

    def test_one_text_binds_each_of_its_functions_by_name(self, fresh_cache):
        # Asked for ``steps`` after ``region``, the table must not hand back
        # the function it loaded first, bound to ``region``'s arguments.
        import ctypes

        source = TWO_FUNCTIONS % "5.0"
        region = native.kernel(source)
        steps = native.kernel(source, "steps")
        assert steps is not region
        assert list(steps.argtypes) == native._SIGNATURES["steps"]
        assert native.kernel(source, "steps") is steps
        assert native.kernel(source) is region
        assert run_kernel(region)[0] == 5.0
        out = np.zeros(4)
        pointers = (ctypes.c_void_p * 1)(out.__array_interface__["data"][0])
        steps(pointers, (ctypes.c_int64 * 1)(8), (ctypes.c_int64 * 1)(4), 6,
              None, (ctypes.c_int64 * 1)(0), 1, 3)
        assert out.tolist() == [0.0, 6.0, 6.0, 0.0]

    def test_a_missing_function_is_refused_and_its_object_kept(
            self, fresh_cache):
        source = SOURCE_TEMPLATE % "8.0"
        native.kernel(source)
        (kept,) = fresh_cache.iterdir()
        before = cache_results()
        for fresh in (False, True):  # from this process's table, from disk
            if fresh:
                native.reset()
            with pytest.raises(native.Unavailable) as refused:
                native.kernel(source, "steps")
            assert refused.value.reason == "native_load"
            assert kept.exists()
        assert cache_results().get("compiled") == before.get("compiled")
        assert run_kernel(native.kernel(source))[0] == 8.0
        assert cache_results().get("compiled") == before.get("compiled")

    def test_two_processes_compiling_one_source(self, tmp_path):
        source = SOURCE_TEMPLATE % "11.0"
        home = str(tmp_path / "xdg")
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(2, mp_context=context) as pool:
            results = list(pool.map(compile_in_child, [(home, source)] * 2,
                                    timeout=120))
        assert [value for value, _counts in results] == [11.0, 11.0]
        left = os.listdir(tmp_path / "xdg" / "repro" / "native")
        assert len(left) == 1 and left[0].endswith(".so")

    def test_a_pickled_backend_rebuilds_its_regions_in_the_child(
            self, fresh_cache):
        key, shape = "hotspot2d", (12, 16)
        bench = get_benchmark(key)
        inputs = bench.make_inputs(shape, 5)
        backend = NumpyBackend()
        plan = backend.plan(bench.build_program(), inputs)
        expected = plan.iterate(inputs, 4, carry=bench.carry_spec())
        assert plan.stats()["native_regions"] == 3
        home = str(fresh_cache.parent.parent)
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            out, regions, counts = pool.submit(
                native_plan_in_child,
                (home, pickle.dumps(backend), key, shape)).result(timeout=120)
        assert out == expected.tobytes() and regions == 3
        # the child found the parent's objects on disk — the region's and
        # its temporal block's; it compiled nothing
        assert counts.get("disk", 0) == 2 and "compiled" not in counts


class TestImportIsInert:
    def test_importing_repro_finds_no_compiler_and_opens_no_cache(
            self, tmp_path):
        import subprocess
        import sys

        code = (
            "import subprocess, shutil, sys\n"
            "def boom(*a, **k): raise SystemExit('spawned a process')\n"
            "subprocess.Popen = boom; shutil.which = boom\n"
            "import repro, repro.backend, repro.backend.plan, repro.cli\n"
            "assert 'repro.backend.native' not in sys.modules\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "xdg"))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(plan_module.__file__), "..", ".."),
             env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert not (tmp_path / "xdg").exists()
