"""Execution plans: bit-identity vs the generic path, zero-allocation loops.

The acceptance property of the plan layer: for **every** suite application,
every input dtype and every timestep count, the buffer-pooled plan path
(`run`, `iterate`, `run_batched`) produces *bit-identical* results to the
existing generic `run` / `run_batched` path — and the steady iterate loop
performs no array allocations (tape replays write only into pooled
buffers).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.apps.suite import ALL_BENCHMARKS, ITERATIVE_BENCHMARKS, get_benchmark
from repro.backend import native
from repro.backend.base import NumpyBackend
from repro.backend.plan import (
    _FUSION_FALLBACKS_TOTAL,
    ExecutionPlan,
    PlanCache,
    iterate_generic,
    normalize_carry,
)
from repro.backend.numpy_backend import ExecutionError
from repro.rewriting.strategies import NAIVE, lower_program, tiled_strategy

SMALL_SHAPES = {2: (13, 11), 3: (5, 7, 9)}

try:
    native.compiler()
    HAVE_CC = True
except native.Unavailable:
    HAVE_CC = False

#: Suite apps whose iterate stays per-step even with a compiler: gaussian's
#: tape is not one region reading its carried grid's home
#: (``temporal_layout``).  Acoustic's two-grid carry runs barrier blocks.
PER_STEP_APPS = {"gaussian"}


def small_inputs(bench, seed=7, dtype=None):
    inputs = bench.make_inputs(SMALL_SHAPES[bench.ndims], seed)
    if dtype is not None:
        inputs = [np.asarray(grid, dtype=dtype) for grid in inputs]
    return inputs


class TestPlanVsGenericBitIdentity:
    """The satellite property sweep: app × dtype × timestep count."""

    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_plan_run_matches_run(self, key, dtype):
        bench = ALL_BENCHMARKS[key]
        inputs = small_inputs(bench, dtype=dtype)
        program = bench.build_program()
        backend = NumpyBackend(cache=None)
        generic = backend.run(program, inputs)
        planned = backend.plan(program, inputs).run(inputs)
        assert generic.shape == planned.shape
        assert np.array_equal(generic, planned)

    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 15, 16, 17, 35, 64])
    def test_iterate_matches_per_sweep_loop(self, key, steps):
        # At SMALL_SHAPES the temporal block rule gives T = 16, so with a
        # compiler the counts are 1, 2, T - 1, T, T + 1, 2T + 3 and 64 steps
        # of blocks (every app whose tape is one region over a clamp or
        # constant home: wavefronts, and Acoustic's barrier blocks) and
        # per-step replays (the rest).
        bench = ALL_BENCHMARKS[key]
        inputs = small_inputs(bench)
        program = bench.build_program()
        carry = bench.carry_spec()
        backend = NumpyBackend(cache=None)
        reference = iterate_generic(backend, program, inputs, steps, carry=carry)
        plan = backend.plan(program, inputs)
        produced = plan.iterate(inputs, steps, carry=carry)
        assert np.array_equal(reference, produced)
        blocks = HAVE_CC and key not in PER_STEP_APPS
        assert plan.stats()["temporal_steps"] == (
            native.MAX_BLOCK_STEPS if blocks else 1)

    @pytest.mark.parametrize("key", ["acoustic", "heat", "hotspot3d",
                                     "jacobi3d7pt"])
    def test_planes_over_budget_run_barrier_blocks(self, key):
        # A 182×182 padded plane (4141 lines) puts even a two-step
        # wavefront ring, four such rows, over the 1 MiB ring budget (and
        # Acoustic's carry rotates two grids): these run barrier blocks,
        # step for step the per-sweep loop.
        from repro.backend.plan import iterate_state_generic

        bench = ALL_BENCHMARKS[key]
        inputs = bench.make_inputs((3, 180, 180), 7)
        program, carry = bench.build_program(), bench.carry_spec()
        backend = NumpyBackend(cache=None)
        plan = backend.plan(program, inputs)
        state, references = inputs, []
        for _ in range(2 * native.MAX_BLOCK_STEPS + 3):
            out, state = iterate_state_generic(backend, program, state, 1,
                                               carry=carry)
            references.append(out)
        for steps in (1, 2, 15, 16, 17, 35):
            assert np.array_equal(plan.iterate(inputs, steps, carry=carry),
                                  references[steps - 1]), steps
        stats = plan.stats()
        assert (stats["temporal_steps"], stats["temporal_bands"]) == (
            (native.MAX_BLOCK_STEPS, 1) if HAVE_CC else (1, 1))
        assert plan._block_rings == []
        assert stats["temporal_kind"] == ("barrier" if HAVE_CC else None)

    @pytest.mark.parametrize("key", ["stencil2d", "hotspot2d", "acoustic",
                                     "gaussian", "srad1"])
    def test_run_batched_matches_generic_batched(self, key):
        bench = ALL_BENCHMARKS[key]
        backend = NumpyBackend(cache=None)
        program = bench.build_program()
        parts = [small_inputs(bench, seed=s) for s in range(5)]
        stacked = [np.stack([p[i] for p in parts])
                   for i in range(len(parts[0]))]
        generic = backend.run_batched(program, stacked)
        plan = backend.plan(program, stacked, batched=True)
        assert np.array_equal(generic, plan.run_batched(stacked))
        assert np.array_equal(generic, plan.run_batched_parts(parts))

    def test_plan_reused_across_different_input_values(self):
        bench = get_benchmark("hotspot2d")
        program = bench.build_program()
        backend = NumpyBackend(cache=None)
        plan = backend.plan(program, small_inputs(bench))
        for seed in (0, 3, 11):
            inputs = small_inputs(bench, seed=seed)
            assert np.array_equal(backend.run(program, inputs),
                                  plan.run(inputs))
        assert plan.stats()["captures"] == 1  # one capture, then replays
        assert plan.stats()["replays"] >= 2

    def test_lowered_variants_run_through_plans(self):
        bench = get_benchmark("stencil2d")
        program = bench.build_program()
        backend = NumpyBackend(cache=None)
        inputs = bench.make_inputs((16, 16), 5)
        for strategy in (NAIVE, tiled_strategy(6, use_local_memory=True)):
            lowered = lower_program(program, strategy)
            generic = backend.run(lowered.program, inputs)
            planned = backend.plan(lowered.program, inputs).run(inputs)
            assert np.array_equal(generic, planned)


class TestZeroAllocationSteadyLoop:
    @pytest.mark.parametrize("key", ITERATIVE_BENCHMARKS)
    def test_steady_iterate_does_not_allocate(self, key):
        bench = get_benchmark(key)
        inputs = small_inputs(bench)
        program = bench.build_program()
        plan = NumpyBackend(cache=None).plan(program, inputs)
        carry = bench.carry_spec()
        # Warm up until every binding in the ping-pong cycle has a tape.
        plan.iterate(inputs, 12, carry=carry)
        tapes_before = plan.stats()["tapes"]
        pool_before = (plan._pool.allocations, plan._pool.reuses)

        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            plan.iterate(inputs, 64, carry=carry, copy=False)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

        assert plan.stats()["tapes"] == tapes_before  # no new captures
        # no pool acquisition at all, fresh or reused
        assert (plan._pool.allocations, plan._pool.reuses) == pool_before
        # Net traced allocation across 64 steady steps stays at Python-object
        # noise (snapshot bookkeeping), far below one grid per step.
        delta = after.compare_to(before, "filename")
        grown = sum(max(0, entry.size_diff) for entry in delta)
        assert grown < 64 * 1024, f"steady loop grew {grown} bytes"

    def test_warm_temporal_blocks_grow_nothing(self):
        # The ladder's ``backend.pool.steady_allocations`` check: the
        # 8-step warm iterate captures the blocks (ring and check
        # included), so 64 warm steps acquire no pool buffer and leave no
        # traced block behind beyond the snapshots' own and the
        # interpreter's free lists (about ten; the per-step loop leaves one
        # per step).
        plan, delta = self.warm_blocks(None)
        blocks = sum(entry.count_diff for entry in delta)
        if HAVE_CC:
            assert blocks < 16, f"a warm loop left {blocks} traced blocks"

    def test_warm_banded_blocks_grow_nothing(self):
        # Two row bands, one on the replay pool: the check acquired both
        # rings, and the pool's hand-offs (a latch and a queue item per
        # block, recycled through the interpreter's free lists) stay at
        # Python-object noise, as the parallel tiled loop's do.
        plan, delta = self.warm_blocks(2)
        assert len(plan._block_rings) == (2 if HAVE_CC else 0)
        grown = sum(max(0, entry.size_diff) for entry in delta)
        assert grown < 64 * 1024, f"a warm banded loop grew {grown} bytes"

    @staticmethod
    def warm_blocks(workers):
        """A 256² Hotspot2D plan whose 64-step warm loop acquired nothing
        from the pool, and that loop's traced allocation delta by file."""
        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((256, 256), 0)
        carry = bench.carry_spec()
        plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs,
                                             parallel_workers=workers)
        plan.iterate(inputs, 8, carry=carry)
        stats = plan.stats()
        pool_before = (plan._pool.allocations, plan._pool.reuses)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            plan.iterate(inputs, 64, carry=carry, copy=False)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert (plan._pool.allocations, plan._pool.reuses) == pool_before
        assert plan.stats()["buffers"] == stats["buffers"]
        assert plan.stats()["replays"] == stats["replays"] + 64
        assert (plan.stats()["temporal_steps"] > 1) == HAVE_CC
        return plan, after.compare_to(before, "filename")

    def test_copying_selections_fall_back_to_opaque_replay(self):
        # A user function that fancy-indexes its argument produces a *copy*,
        # not a view — the tracer must refuse it (forcing per-sweep
        # re-execution) or later sweeps would replay stale first-sweep data.
        from repro.core import builders as L
        from repro.core.arithmetic import Var
        from repro.core.types import Float
        from repro.core.userfuns import make_userfun

        order = np.array([3, 2, 1, 0])
        shuffle_fn = make_userfun(
            "shuffle_rows", ["x"], "return x;",  # C body unused here
            lambda x: x,
            numpy_fn=lambda x: x[order] * 2.0,
        )
        program = L.fun(
            [L.array_type(Float, Var("N"), Var("M"))],
            lambda a: L.FunCall(shuffle_fn, a),
        )
        backend = NumpyBackend(cache=None)
        plan = backend.plan(program, [np.zeros((4, 3))])
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            inputs = [rng.random((4, 3))]
            assert np.array_equal(backend.run(program, inputs),
                                  plan.run(inputs)), seed
        assert plan.stats()["opaque_userfun_calls"] >= 1

    def test_data_dependent_scalar_results_refuse_capture(self):
        # An untraceable user function reducing its array argument to a
        # Python scalar has no buffer for the tape to refresh: the plan
        # path must refuse (PlanCaptureError) and the backend fall back to
        # the generic path — never silently freeze first-sweep values.
        from repro.backend.numpy_backend import PlanCaptureError
        from repro.core import builders as L
        from repro.core.arithmetic import Var
        from repro.core.types import Float
        from repro.core.userfuns import make_userfun

        def fun_of(numpy_fn, name):
            fn = make_userfun(name, ["x"], "return x;",  # C body unused here
                              lambda x: x, numpy_fn=numpy_fn)
            return L.fun(
                [L.array_type(Float, Var("N"), Var("M"))],
                lambda a: L.FunCall(fn, a),
            )

        backend = NumpyBackend(cache=None)
        scalar_program = fun_of(lambda x: float(np.max(x)), "grid_peak")
        plan = ExecutionPlan(scalar_program, [np.ones((4, 3))])
        with pytest.raises(PlanCaptureError):
            plan.run([np.ones((4, 3))])
        # The backend's iterate falls back to the per-sweep loop for the
        # refused program and stays correct; an untraceable-but-array
        # program is served by the plan's opaque per-sweep re-execution.
        array_program = fun_of(lambda x: x * float(np.max(x)), "peak_scale")
        array_plan = backend.plan(array_program, [np.ones((4, 3))])
        for seed in (1, 2, 3):
            inputs = [np.random.default_rng(seed).random((4, 3))]
            fallback = backend.iterate(scalar_program, inputs, 1)
            assert np.array_equal(backend.run(scalar_program, inputs),
                                  fallback), seed
            assert np.array_equal(backend.run(array_program, inputs),
                                  array_plan.run(inputs)), seed

    def test_all_suite_userfuns_trace_to_out_schedules(self):
        # Every suite app's arithmetic must take the traced (allocation-free)
        # path, not the opaque re-execution fallback.
        backend = NumpyBackend(cache=None)
        for key, bench in sorted(ALL_BENCHMARKS.items()):
            plan = backend.plan(bench.build_program(), small_inputs(bench))
            plan.run(small_inputs(bench))
            stats = plan.stats()
            assert stats["opaque_userfun_calls"] == 0, key
            assert stats["traced_userfun_calls"] >= 1, key


class TestIterateMechanics:
    def test_ping_pong_tape_count_converges(self):
        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs)
        plan.iterate(inputs, 40, carry=bench.carry_spec())
        # 1 prologue binding + a 2-phase ping-pong cycle.
        assert plan.stats()["tapes"] == 3

    def test_rotation_carry_tape_count_converges(self):
        bench = get_benchmark("acoustic")
        inputs = small_inputs(bench)
        plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs)
        plan.iterate(inputs, 40, carry=bench.carry_spec())
        # 2 prologue bindings + a 3-phase rotation cycle.
        assert plan.stats()["tapes"] == 5

    def test_carry_validation(self):
        with pytest.raises(ExecutionError):
            normalize_carry((None, None), 2)       # output never fed back
        with pytest.raises(ExecutionError):
            normalize_carry(("out",), 2)           # wrong arity
        with pytest.raises(ExecutionError):
            normalize_carry(("out", 5), 2)         # index out of range
        assert normalize_carry(None, 3) == ("out", None, None)

    def test_shape_mismatch_rejected(self):
        bench = get_benchmark("stencil2d")
        plan = ExecutionPlan(bench.build_program(), small_inputs(bench))
        with pytest.raises(ExecutionError):
            plan.run([np.zeros((4, 4))])

    def test_iterate_rejected_on_batched_plans(self):
        bench = get_benchmark("stencil2d")
        stacked = [np.stack([small_inputs(bench, seed=s)[0] for s in range(3)])]
        plan = ExecutionPlan(bench.build_program(), stacked, batched=True)
        with pytest.raises(ExecutionError):
            plan.iterate(stacked, 2)

    def test_run_copy_false_returns_live_readonly_view(self):
        bench = get_benchmark("stencil2d")
        inputs = small_inputs(bench)
        plan = ExecutionPlan(bench.build_program(), inputs)
        view = plan.run(inputs, copy=False)
        assert not view.flags.writeable
        first = view.copy()
        plan.run(small_inputs(bench, seed=3), copy=False)
        assert not np.array_equal(first, view)  # buffer was reused


class TestPlanCache:
    def test_plans_cached_per_program_and_shapes(self):
        cache = PlanCache(max_entries=8)
        bench = get_benchmark("stencil2d")
        program = bench.build_program()
        a = cache.get_or_compile(program, small_inputs(bench))
        b = cache.get_or_compile(program, small_inputs(bench, seed=9))
        assert a is b  # same shapes, same plan
        c = cache.get_or_compile(program, [np.zeros((16, 16))])
        assert c is not a
        stats = cache.stats()
        assert stats == {"entries": 2, "max_entries": 8,
                         "hits": 1, "misses": 2, "evictions": 0}

    def test_dtype_does_not_shape_specialise_plans(self):
        cache = PlanCache()
        bench = get_benchmark("stencil2d")
        program = bench.build_program()
        f64 = cache.get_or_compile(program, small_inputs(bench))
        f32 = cache.get_or_compile(
            program, small_inputs(bench, dtype=np.float32)
        )
        assert f64 is f32

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        bench = get_benchmark("stencil2d")
        program = bench.build_program()
        for extent in (8, 9, 10):
            cache.get_or_compile(program, [np.zeros((extent, extent))])
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1

    def test_backend_shares_kernel_between_generic_and_plan_paths(self):
        from repro.backend.cache import CompilationCache

        cache = CompilationCache()
        backend = NumpyBackend(cache=cache)
        bench = get_benchmark("stencil2d")
        program = bench.build_program()
        inputs = small_inputs(bench)
        backend.run(program, inputs)
        assert cache.stats()["misses"] == 1
        backend.plan(program, inputs).run(inputs)
        stacked = [np.stack([inputs[0], inputs[0]])]
        backend.plan(program, stacked, batched=True).run_batched(stacked)
        # The plan and batched-plan paths reuse the one compiled kernel.
        assert cache.stats()["misses"] == 1


class TestExecutionPlanRelease:
    def test_release_returns_buffers_to_pool(self):
        from repro.backend.pool import BufferPool

        pool = BufferPool()
        bench = get_benchmark("stencil2d")
        inputs = small_inputs(bench)
        plan = ExecutionPlan(bench.build_program(), inputs, pool=pool)
        plan.run(inputs)
        live = pool.stats()["live_buffers"]
        assert live > 0
        plan.release()
        stats = pool.stats()
        assert stats["live_buffers"] == 0
        # What the plan held, plus what its capture already handed back.
        assert stats["free_buffers"] >= live


# ---------------------------------------------------------------------------
# Pad as a view: resident padded homes
# ---------------------------------------------------------------------------

MATRIX_SHAPES = {1: (9,), 2: (6, 7), 3: (4, 5, 6)}
RAGGED_TILES = {1: (4,), 2: (4, 3), 3: (3, 2, 4)}
CARRIES = {"out0": ("out", None), "rotation": (1, "out", None),
           "static_padded": ("out", None), "shrinking": None}


def matrix_case(rank, boundary, carry_kind):
    """``(program, carry, make_inputs)`` of one stencil of the matrix.

    Every program weights the full ``3**rank`` window element by element,
    corners included, so a halo refreshed in the wrong order shows.  The
    carry kinds: ``out0`` (padded carried grid + plain static grid),
    ``rotation`` (the Acoustic two-level rotation), ``static_padded`` (a
    static padded grid beside the carried one), ``shrinking`` (padded on
    the left only, so the output is smaller than the input it would feed).
    """
    import itertools

    from repro.core import builders as L
    from repro.core.arithmetic import Var
    from repro.core.types import Float
    from repro.core.userfuns import make_userfun

    right = 0 if carry_kind == "shrinking" else 1

    def windows(grid):
        if boundary == "const":
            padded = L.pad_constant_nd(1, right, 0.5, grid, rank)
        else:
            padded = L.pad_nd(1, right, boundary, grid, rank)
        return L.slide_nd(3, 1, padded, rank)

    def elements(nbh):
        picked = []
        for index in itertools.product(range(3), repeat=rank):
            value = nbh
            for i in index:
                value = L.at(i, value)
            picked.append(value)
        return picked

    count = 3 ** rank
    weights = [(i + 1) / (count * (count + 1)) for i in range(count)]
    padded_grids = 2 if carry_kind == "static_padded" else 1
    plain_grids = {"out0": 1, "rotation": 2}.get(carry_kind, 0)

    def update(*values):
        acc = 0.0
        for weight, value in zip(weights * padded_grids, values[plain_grids:]):
            acc = acc + weight * value
        for k, value in enumerate(values[:plain_grids]):
            acc = acc - (0.1 + 0.2 * k) * value
        return acc

    fn = make_userfun(
        f"matrix_{rank}_{boundary}_{carry_kind}",
        [f"x{i}" for i in range(plain_grids + count * padded_grids)],
        "return 0;", update,
    )

    def body(*grids):
        if carry_kind == "shrinking":
            return L.map_nd(lambda nbh: L.FunCall(fn, *elements(nbh)),
                            windows(grids[0]), rank)
        if carry_kind == "static_padded":
            zipped = L.zip_nd([windows(grids[0]), windows(grids[1])], rank)
            return L.map_nd(
                lambda t: L.FunCall(fn, *elements(L.get(0, t)),
                                    *elements(L.get(1, t))), zipped, rank)
        if carry_kind == "out0":
            zipped = L.zip_nd([windows(grids[0]), grids[1]], rank)
            return L.map_nd(
                lambda t: L.FunCall(fn, L.get(1, t), *elements(L.get(0, t))),
                zipped, rank)
        zipped = L.zip_nd([grids[0], windows(grids[1]), grids[2]], rank)
        return L.map_nd(
            lambda t: L.FunCall(fn, L.get(0, t), L.get(2, t),
                                *elements(L.get(1, t))), zipped, rank)

    arity = plain_grids + padded_grids
    sizes = [Var(name) for name in "ABC"[:rank]]
    program = L.fun([L.array_type(Float, *sizes)] * arity, body)

    def make_inputs(seed):
        rng = np.random.default_rng(seed)
        return [rng.random(MATRIX_SHAPES[rank]) for _ in range(arity)]

    return program, CARRIES[carry_kind], make_inputs


def poison_halos(plan):
    """NaN into every byte of the plan's homes outside their interiors."""
    for home in plan._homes.values():
        kept = home.interior.copy()
        home.padded.fill(np.nan)
        np.copyto(home.interior, kept)


class TestResidentPadMatrix:
    """boundary × rank × carry × tile × workers, every way a plan is driven:
    the resident-pad path is bit-identical to the generic path and, at these
    shapes, to the interpreter."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("tile", ["auto", "ragged", False])
    @pytest.mark.parametrize("carry_kind", sorted(CARRIES))
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("boundary", ["clamp", "mirror", "wrap", "const"])
    def test_every_driver_matches_generic(self, boundary, rank, carry_kind,
                                          tile, workers):
        from repro.backend.base import InterpreterBackend
        from repro.backend.plan import iterate_state_generic

        program, carry, make_inputs = matrix_case(rank, boundary, carry_kind)
        x, y = make_inputs(1), make_inputs(2)
        backend = NumpyBackend(cache=None)
        plan = backend.plan(
            program, x, tile_shape=RAGGED_TILES[rank] if tile == "ragged" else tile,
            parallel_workers=workers)
        one = plan.run(x)
        assert np.array_equal(one, backend.run(program, x))
        if tile == "auto" and workers == 1:
            assert np.array_equal(one, InterpreterBackend().run(program, x))
        if carry is not None:
            whole = plan.iterate(x, 5, carry=carry)
            assert np.array_equal(
                whole, iterate_generic(backend, program, x, 5, carry=carry))
            # iterate(x, a + b) == iterate(iterate_state(x, a).state, b)
            out, state = plan.iterate_state(x, 2, carry=carry)
            ref_out, ref_state = iterate_state_generic(backend, program, x, 2,
                                                       carry=carry)
            assert np.array_equal(out, ref_out)
            assert all(np.array_equal(a, b) for a, b in zip(state, ref_state))
            assert np.array_equal(plan.iterate(state, 3, carry=carry), whole)
            # run after iterate on the same plan, then new inputs
            assert np.array_equal(plan.run(x), one)
            assert np.array_equal(
                plan.iterate(y, 4, carry=carry),
                iterate_generic(backend, program, y, 4, carry=carry))
            # a halo poisoned between two calls never reaches a result: the
            # bind and the tapes' refresh ops rewrite it (constant halos are
            # written once, so those are left alone)
            if boundary != "const":
                poison_halos(plan)
                assert np.array_equal(plan.iterate(x, 5, carry=carry), whole)
            captures = plan.stats()["captures"]
            plan.iterate(y, 50, carry=carry)
            assert plan.stats()["captures"] == captures
        assert np.array_equal(plan.run(y), backend.run(program, y))
        stats = plan.stats()
        assert stats["fusion_fallbacks"] == 0
        assert stats["materialized_pads"] == 0
        assert stats["resident_pads"] >= rank
        # every padded input has a home, and so has every ring buffer,
        # except that the shrinking output can feed no input: it stays plain
        padded_inputs = 2 if carry_kind == "static_padded" else 1
        ring_homes = 0 if carry_kind == "shrinking" else len(plan._ring)
        assert len(plan._homes) == padded_inputs + ring_homes

    @pytest.mark.parametrize("carry_kind", ["out0", "rotation", "static_padded"])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("boundary", ["clamp", "mirror", "wrap", "const"])
    def test_temporal_blocks_over_long_trajectories(self, boundary, rank,
                                                    carry_kind):
        # Which cases block: every carry over a clamp or constant home, with
        # a compiler (a rotation as a barrier block).  A width-1 mirror pad
        # is the clamp's index table (A[-1] == A[0]), so it blocks too; a
        # wider one declines (``test_a_wider_mirror_keeps_the_per_step_tape``).
        from repro.backend.plan import iterate_state_generic

        program, carry, make_inputs = matrix_case(rank, boundary, carry_kind)
        x = make_inputs(1)
        backend = NumpyBackend(cache=None)
        plan = backend.plan(program, x)
        counted = dict(_FUSION_FALLBACKS_TOTAL.values)
        plan.iterate(x, 1, carry=carry)
        T = plan.stats()["temporal_steps"]
        reason = ("temporal_layout" if not HAVE_CC else
                  "temporal_boundary" if boundary == "wrap" else None)
        assert (T > 1) == (reason is None), (T, reason)
        if reason is not None:
            assert _FUSION_FALLBACKS_TOTAL.values[reason] == \
                counted.get(reason, 0) + 1
        # iterate(x, 2T + 3) == iterate(iterate_state(x, T + 1).state, T + 2)
        out, state = plan.iterate_state(x, T + 1, carry=carry)
        ref_out, ref_state = iterate_state_generic(backend, program, x, T + 1,
                                                   carry=carry)
        assert np.array_equal(out, ref_out)
        assert all(np.array_equal(a, b) for a, b in zip(state, ref_state))
        whole = plan.iterate(x, 2 * T + 3, carry=carry)
        assert np.array_equal(whole, iterate_generic(
            backend, program, ref_state, T + 2, carry=carry))
        assert np.array_equal(plan.iterate(state, T + 2, carry=carry), whole)
        stats = plan.stats()
        assert stats["fusion_fallbacks"] == stats["materialized_pads"] == 0

    def test_a_wider_mirror_keeps_the_per_step_tape(self):
        from repro.core import builders as L
        from repro.core.arithmetic import Var
        from repro.core.types import Float
        from repro.core.userfuns import make_userfun

        blur = make_userfun("mirror5", [f"x{i}" for i in range(5)], "return 0;",
                            lambda *v: 0.1 * v[0] + 0.2 * v[1] + 0.4 * v[2]
                            + 0.2 * v[3] + 0.1 * v[4])
        program = L.fun([L.array_type(Float, Var("N"))], lambda grid: L.map(
            lambda w: L.FunCall(blur, *[L.at(i, w) for i in range(5)]),
            L.slide(5, 1, L.pad(2, 2, L.MIRROR, grid))))
        x = [np.random.default_rng(4).random(11)]
        backend = NumpyBackend(cache=None)
        plan = backend.plan(program, x)
        counted = _FUSION_FALLBACKS_TOTAL.values.get("temporal_boundary", 0)
        assert np.array_equal(plan.iterate(x, 9, carry=("out",)),
                              iterate_generic(backend, program, x, 9,
                                              carry=("out",)))
        stats = plan.stats()
        assert stats["temporal_steps"] == 1 and stats["resident_pads"] >= 1
        if HAVE_CC:
            assert _FUSION_FALLBACKS_TOTAL.values["temporal_boundary"] == \
                counted + 1


class TestResidentPadMechanics:
    def test_tape_counts_hold_and_captures_stop(self):
        for key, tapes in (("hotspot2d", 3), ("acoustic", 5)):
            bench = get_benchmark(key)
            inputs = small_inputs(bench)
            plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs)
            plan.iterate(inputs, 12, carry=bench.carry_spec())
            before = plan.stats()
            plan.iterate(inputs, 50, carry=bench.carry_spec())
            after = plan.stats()
            assert before["tapes"] == after["tapes"] == tapes, key
            assert after["captures"] == before["captures"] == tapes, key
            assert after["resident_pads"] == bench.ndims * tapes, key
            assert after["replay_bytes_per_step"] > 0, key

    def test_forced_halo_mismatch_is_caught_at_capture(self, monkeypatch):
        # A refresh that skips the last axis leaves that axis' halo stale.
        # The fused-vs-unfused check cannot see it (both sides read the same
        # stale ring); the comparison with a pad-copying execution does.
        from repro.backend import plan as plan_module
        from repro.backend.numpy_backend import PadHome

        def skip_last_axis(self):
            for destination, source in self.halo_pairs[:-2]:
                np.copyto(destination, source)

        monkeypatch.setattr(PadHome, "refresh", skip_last_axis)
        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        program, carry = bench.build_program(), bench.carry_spec()
        backend = NumpyBackend(cache=None)
        reference = iterate_generic(backend, program, inputs, 6, carry=carry)
        fallbacks = plan_module._FUSION_FALLBACKS_TOTAL.values
        counted = fallbacks.get("halo", 0)

        plan = backend.plan(program, inputs)
        assert np.array_equal(plan.iterate(inputs, 6, carry=carry), reference)
        stats = plan.stats()
        assert stats["fusion_fallbacks"] == 1
        assert stats["materialized_pads"] > 0   # every tape copies its pads
        assert fallbacks["halo"] == counted + 1

        # ... and it is that comparison which catches it: without it the
        # same plan returns a wrong grid.
        monkeypatch.setattr(plan_module.ExecutionPlan, "_halo_ok",
                            lambda self, tape, state: True)
        unchecked = NumpyBackend(cache=None).plan(program, inputs)
        assert not np.array_equal(
            unchecked.iterate(inputs, 6, carry=carry), reference)

    def test_ineligible_pads_stay_materialised(self):
        from repro.core import builders as L
        from repro.core.arithmetic import Var
        from repro.core.types import Float
        from repro.core.userfuns import make_userfun

        double = make_userfun("double_it", ["x"], "return 2*x;",
                              lambda x: 2.0 * x)
        total = make_userfun("add3", ["a", "b", "c"], "return a+b+c;",
                             lambda a, b, c: a + b + c)
        pair = make_userfun("pair_sum", ["a", "b"], "return a+b;",
                            lambda a, b: a + 0.5 * b)
        row = [L.array_type(Float, Var("N"))]

        def summed(padded):
            return L.map(lambda w: L.FunCall(total, L.at(0, w), L.at(1, w),
                                             L.at(2, w)),
                         L.slide(3, 1, padded))

        cases = {
            # a pad of a computed intermediate
            "intermediate": L.fun(row, lambda a: summed(
                L.pad(1, 1, L.CLAMP, L.map(lambda v: L.FunCall(double, v), a)))),
            # a mirror halo of ten is ten one-element runs: an np.take gather
            "gather": L.fun(row, lambda a: L.map(
                lambda w: L.FunCall(pair, L.at(0, w), L.at(20, w)),
                L.slide(21, 1, L.pad(10, 10, L.MIRROR, a)))),
            # two different chains on one root
            "two_chains": L.fun(row, lambda a: L.map(
                lambda t: L.FunCall(pair, L.get(0, t), L.get(1, t)),
                L.zip(summed(L.pad(1, 1, L.CLAMP, a)),
                      summed(L.pad(1, 1, L.WRAP, a))))),
        }
        backend = NumpyBackend(cache=None)
        for name, program in cases.items():
            plan = backend.plan(program, [np.zeros(24)])
            for seed in (1, 2):
                inputs = [np.random.default_rng(seed).random(24)]
                assert np.array_equal(plan.run(inputs),
                                      backend.run(program, inputs)), name
                assert np.array_equal(
                    plan.iterate(inputs, 4),
                    iterate_generic(backend, program, inputs, 4)), name
            stats = plan.stats()
            assert stats["resident_pads"] == 0, name
            assert stats["materialized_pads"] >= 1, name
            assert stats["fusion_fallbacks"] == 0, name
            assert not plan._homes, name

        # A copied pad is one opaque op between fused regions, whatever the
        # boundary and however the regions around it are replayed.
        add5 = make_userfun("add5", ["a", "b", "c", "d", "e"],
                            "return a+b+c+d+e;",
                            lambda a, b, c, d, e: a + b + c + d + e)
        x = [np.random.default_rng(3).random(257)]
        for boundary in (L.CLAMP, L.MIRROR, L.WRAP):
            two_stage = L.fun(row, lambda a: summed(L.pad(
                1, 1, boundary, summed(L.pad(1, 1, boundary, a)))))
            chained = L.fun(row, lambda a: L.map(
                lambda w: L.FunCall(add5, *[L.at(i, w) for i in range(5)]),
                L.slide(5, 1, L.pad(1, 1, boundary, L.pad(
                    1, 1, boundary,
                    L.map(lambda v: L.FunCall(double, v), a))))))
            for tile in (None, (7,)):
                for workers in (1, 2):
                    for program in (two_stage, chained):
                        case = (boundary, tile, workers, program is chained)
                        plan = backend.plan(program, x, tile_shape=tile,
                                            parallel_workers=workers)
                        assert np.array_equal(plan.run(x),
                                              backend.run(program, x)), case
                        stats = plan.stats()
                        assert stats["materialized_pads"] >= 1, case
                        if program is two_stage:
                            # the runs on both sides of the copy still fuse
                            assert stats["fused_regions"] == 2, case
                        assert np.array_equal(
                            plan.iterate(x, 5),
                            iterate_generic(backend, program, x, 5)), case
                        assert plan.stats()["fusion_fallbacks"] == 0, case

    def test_gauges_are_exported(self):
        from repro.telemetry.registry import get_registry

        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs)
        plan.run(inputs)
        rendered = get_registry().render()
        for name in ("repro_plan_resident_pads",
                     "repro_plan_replay_bytes_per_step"):
            value = [line for line in rendered.splitlines()
                     if line.startswith(name + " ")]
            assert value and float(value[0].split()[1]) > 0, name


class TestTracer:
    """The tracer computes nothing: shapes by broadcasting, dtypes from
    one-element stand-ins, one node per distinct operation."""

    @staticmethod
    def trace(fn, *args):
        from repro.backend.pool import BufferPool
        from repro.backend.ufunc_trace import trace_function

        return trace_function(fn, list(args), BufferPool())

    def test_common_subexpressions_are_one_node(self):
        a = np.arange(6.0).reshape(2, 3)
        schedule, result = self.trace(lambda x: (2.0 * x) + (2.0 * x) * x, a)
        assert [node.fn.__name__ for node in schedule.nodes] == \
            ["multiply", "multiply", "add"]
        assert np.array_equal(result, (2.0 * a) + (2.0 * a) * a)
        # equal-by-== scalars that differ in bits or type stay apart, and
        # operands are never commuted
        for fn in (lambda x: (x * 0.0) + (x * -0.0),
                   lambda x: (x * 2) + (x * 2.0),
                   lambda x: (x * 3.0) + (3.0 * x)):
            schedule, result = self.trace(fn, a)
            assert len(schedule.nodes) == 3
            assert np.array_equal(result, fn(a))
        # the same leaf view reached twice is one operand
        schedule, _ = self.trace(lambda x: x[0] * 2.0 + x[0] * 2.0, a)
        assert len(schedule.nodes) == 2

    def test_hotspot2d_update_is_fourteen_ufuncs(self):
        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs,
                                             tile_shape=False)
        plan.run(inputs)
        (tape,) = plan._tapes.values()
        (schedule,) = [op.__self__ for op in tape.ops
                       if hasattr(getattr(op, "__self__", None), "nodes")]
        assert len(schedule.nodes) == 14

    def test_shapes_and_dtypes_match_eager_evaluation(self):
        a32 = np.linspace(0.0, 1.0, 6, dtype=np.float32).reshape(2, 3)
        row = np.arange(3.0)
        cases = [
            (lambda x, y: x * 2.0 + y, (a32, row)),          # broadcast, f32+f64
            (lambda x, y: x * 2.0, (a32, row)),              # weak scalar: f32
            (lambda x, y: np.where(x < 0.5, x, y), (a32, row)),
            (lambda x, y: np.clip(x, 0.25, 0.75) / y[1:2], (a32, row)),
            (lambda x, y: np.logical_and(x > y, y >= 1.0), (a32, row)),
            (lambda x, y: x / (y - 1.0), (a32, row)),        # divides by zero
        ]
        for fn, args in cases:
            with np.errstate(all="ignore"):
                expected = fn(*args)
                schedule, result = self.trace(fn, *args)
            assert result.shape == expected.shape
            assert result.dtype == expected.dtype
            assert np.array_equal(result, expected, equal_nan=True)

    def test_refusals_and_non_schedule_returns_are_kept(self):
        a = np.arange(6.0).reshape(2, 3)
        refused = [
            lambda x: x * 2.0 if x else x,            # __bool__
            lambda x: sum(v for v in x),              # __iter__
            lambda x: x[np.array([1, 0])] * 2.0,      # copying __getitem__
            lambda x: np.divmod(x, 2.0)[0],           # multi-output ufunc
            lambda x: np.add(x, 1.0, dtype=np.float32),  # kwargs
            lambda x: np.add.reduce(x),               # non-__call__ method
            lambda x: (x * 2.0, x),                   # tuple result
            lambda x: (x * 2.0)[0],                   # indexing an intermediate
        ]
        for fn in refused:
            assert self.trace(fn, a) == (None, None)
        schedule, value = self.trace(lambda x: x[1], a)   # passthrough view
        assert schedule is None and np.shares_memory(value, a)
        schedule, value = self.trace(lambda x: np.ones(3), a)  # constant
        assert schedule is None and np.array_equal(value, np.ones(3))
        assert self.trace(lambda x: 4.5, a) == (None, 4.5)
