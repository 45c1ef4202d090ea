"""Native regions: the relation, the whitelist, the cache and the demotions.

A fused region on the default tile spec is compiled to one C loop nest
(:mod:`repro.backend.native`).  The acceptance properties: every suite app
on the default plan is byte-equal to the reference interpreter with every
region native; over grids seeded with NaN / inf / signed zeros / subnormals
/ huge values the native plan, the ufunc-tiled plan and the generic loop
agree bit for bit on every non-NaN cell and are NaN together elsewhere,
with no region rejected at capture; every whitelisted operation is exact,
everything else declines to ufunc tiles under a counted reason; and the
object cache survives hostile directories, truncated objects, concurrent
compilers and injected faults, each landing on the tiled path with the
same bits.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import faults
from repro.apps.suite import ALL_BENCHMARKS, get_benchmark
from repro.backend import native
from repro.backend import plan as plan_module
from repro.backend.base import InterpreterBackend, NumpyBackend
from repro.backend.fuse import optimize_tape
from repro.backend.numpy_backend import TapeEntry
from repro.backend.plan import _same_or_nan, iterate_generic
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
        optimized = optimize_tape(entries, schedule.out, tile, pool)
        assert optimized is not None, "the lambda needs at least two nodes"
        ops, _scratch, info = optimized
        schedule.out.fill(0)
        for op in ops:
            op()
    return schedule.out.copy(), info, expected


def assert_native_matches_numpy(fn, args):
    result, info, expected = fuse_lambda(fn, args)
    assert info.declines == [] and len(info.sources) == info.regions == 1
    assert result.dtype == expected.dtype and result.shape == expected.shape
    if result.dtype != np.float64:
        assert np.array_equal(result, expected)
        return info.sources[0]
    assert _same_or_nan(result, expected)
    real = ~np.isnan(expected)
    assert np.array_equal(bits(result)[real], bits(expected)[real])
    return info.sources[0]


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
        assert len(info.sources) == 1
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
            ops, _scratch, info = optimize_tape(entries, second.out, None, pool)
            second.out.fill(0)
            mid.fill(0)  # the fused region must not depend on it
            for op in ops:
                op()
        assert len(info.sources) == 1
        assert info.sources[0].count("_[j];") == 2  # a and b, not ``mid``
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
        _ops, _scratch, info = optimize_tape(entries, first.out, None, pool)
        assert info.declines == ["native_layout"] and info.sources == []


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
        assert len(list(fresh_cache.glob("*.so"))) == 1

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
        # the child found the parent's object on disk; it compiled nothing
        assert counts.get("disk", 0) == 1 and "compiled" not in counts


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
