"""The tape optimizer: fusion legality, tiled bit-identity, pool hygiene.

The acceptance property: for **every** suite application, every input dtype
and a spread of tile shapes — including tiles larger than the grid and
degenerate 1-wide tiles — the fused + tiled replay is *bit-identical* to
the generic compiled path, fused regions actually form on the stencil
apps, and the buffer pool balances across capture failures and fusion
fallbacks.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.apps.suite import ALL_BENCHMARKS, ITERATIVE_BENCHMARKS, get_benchmark
from repro.backend.base import NumpyBackend
from repro.backend.fuse import (
    TILE_TARGET_BYTES,
    auto_tile,
    measure_best_tile,
    normalize_tile_spec,
    tile_extents,
)
from repro.backend.numpy_backend import ExecutionError
from repro.backend.plan import ExecutionPlan, PlanCache, iterate_generic
from repro.backend.pool import BufferPool

SMALL_SHAPES = {2: (13, 11), 3: (5, 7, 9)}

#: The satellite sweep's tile shapes: the auto heuristic, a boxy tile, a
#: degenerate 1-wide tile, and a tile larger than any test grid.
TILE_SHAPES = [None, (4, 3), (1, 1), (4096, 4096)]


def small_inputs(bench, seed=7, dtype=None):
    inputs = bench.make_inputs(SMALL_SHAPES[bench.ndims], seed)
    if dtype is not None:
        inputs = [np.asarray(grid, dtype=dtype) for grid in inputs]
    return inputs


class TestFusedBitIdentity:
    """The property sweep: app × dtype × tile shape, fused == generic."""

    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tile", TILE_SHAPES)
    def test_fused_run_matches_generic(self, key, dtype, tile):
        bench = ALL_BENCHMARKS[key]
        inputs = small_inputs(bench, dtype=dtype)
        program = bench.build_program()
        backend = NumpyBackend(cache=None)
        generic = backend.run(program, inputs)
        plan = backend.plan(program, inputs, tile_shape=tile)
        assert np.array_equal(generic, plan.run(inputs))   # capture sweep
        assert np.array_equal(generic, plan.run(inputs))   # tape replay
        assert plan.stats()["fusion_fallbacks"] == 0, key

    @pytest.mark.parametrize("key", ITERATIVE_BENCHMARKS)
    @pytest.mark.parametrize("tile", TILE_SHAPES)
    def test_fused_iterate_matches_per_sweep_loop(self, key, tile):
        bench = get_benchmark(key)
        inputs = small_inputs(bench)
        program = bench.build_program()
        carry = bench.carry_spec()
        backend = NumpyBackend(cache=None)
        reference = iterate_generic(backend, program, inputs, 7, carry=carry)
        plan = backend.plan(program, inputs, tile_shape=tile)
        assert np.array_equal(reference,
                              plan.iterate(inputs, 7, carry=carry))

    def test_fused_batched_matches_generic_batched(self):
        bench = get_benchmark("hotspot2d")
        backend = NumpyBackend(cache=None)
        program = bench.build_program()
        parts = [small_inputs(bench, seed=s) for s in range(4)]
        stacked = [np.stack([p[i] for p in parts])
                   for i in range(len(parts[0]))]
        generic = backend.run_batched(program, stacked)
        plan = backend.plan(program, stacked, batched=True, tile_shape=(3, 4))
        assert np.array_equal(generic, plan.run_batched(stacked))
        assert plan.stats()["fused_regions"] >= 1


class TestFusionFormation:
    def test_hotspot2d_forms_a_fused_region_with_halo_pads(self):
        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        backend = NumpyBackend(cache=None)
        plan = backend.plan(bench.build_program(), inputs)
        plan.run(inputs)
        stats = plan.stats()
        assert stats["fused_regions"] >= 1
        assert stats["fused_pads"] >= 1      # the halo-gather → ufunc edge
        assert stats["resident_pads"] >= 1   # ... served as a view
        assert stats["fused_tiles"] >= 1
        assert stats["fusion_fallbacks"] == 0

    def test_tile_false_disables_fusion(self):
        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        backend = NumpyBackend(cache=None)
        plan = backend.plan(bench.build_program(), inputs, tile_shape=False)
        plan.run(inputs)
        assert plan.stats()["fused_regions"] == 0

    def test_opaque_userfun_breaks_the_region_but_stays_correct(self):
        # A fancy-indexing user function replays opaquely; the tape must not
        # fuse through it, and results must still match the generic path.
        from repro.core import builders as L
        from repro.core.arithmetic import Var
        from repro.core.types import Float
        from repro.core.userfuns import make_userfun

        order = np.array([3, 2, 1, 0])
        shuffle_fn = make_userfun(
            "shuffle_rows_fuse", ["x"], "return x;",
            lambda x: x,
            numpy_fn=lambda x: x[order] * 2.0,
        )
        program = L.fun(
            [L.array_type(Float, Var("N"), Var("M"))],
            lambda a: L.FunCall(shuffle_fn, a),
        )
        backend = NumpyBackend(cache=None)
        plan = backend.plan(program, [np.zeros((4, 3))], tile_shape=(2, 2))
        for seed in (1, 2, 3):
            inputs = [np.random.default_rng(seed).random((4, 3))]
            assert np.array_equal(backend.run(program, inputs),
                                  plan.run(inputs))
        assert plan.stats()["fused_regions"] == 0

    def test_distinct_tiles_are_distinct_cached_plans(self):
        cache = PlanCache()
        bench = get_benchmark("stencil2d")
        program = bench.build_program()
        auto = cache.get_or_compile(program, small_inputs(bench))
        tiled = cache.get_or_compile(program, small_inputs(bench),
                                     tile_shape=(4, 4))
        unfused = cache.get_or_compile(program, small_inputs(bench),
                                       tile_shape=False)
        assert auto is not tiled and tiled is not unfused
        again = cache.get_or_compile(program, small_inputs(bench),
                                     tile_shape=(4, 4))
        assert again is tiled


class TestZeroAllocationFusedLoop:
    @pytest.mark.parametrize("key", ["hotspot2d", "acoustic"])
    def test_steady_fused_iterate_does_not_allocate(self, key):
        bench = get_benchmark(key)
        inputs = small_inputs(bench)
        plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs,
                                             tile_shape=(4, 4))
        carry = bench.carry_spec()
        plan.iterate(inputs, 12, carry=carry)  # warm every binding's tape
        assert plan.stats()["fused_regions"] >= 1
        pool_before = (plan._pool.allocations, plan._pool.reuses)

        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            plan.iterate(inputs, 64, carry=carry, copy=False)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

        assert (plan._pool.allocations, plan._pool.reuses) == pool_before
        delta = after.compare_to(before, "filename")
        grown = sum(max(0, entry.size_diff) for entry in delta)
        assert grown < 64 * 1024, f"steady fused loop grew {grown} bytes"


class TestPoolHygiene:
    def test_aborted_capture_releases_arena_buffers(self):
        # The mid-capture failure satellite: buffers acquired by the capture
        # arena before a PlanCaptureError must return to the pool, so the
        # pool balances (live == the plan's own inputs) after the abort.
        from repro.backend.numpy_backend import PlanCaptureError
        from repro.core import builders as L
        from repro.core.arithmetic import Var
        from repro.core.types import Float
        from repro.core.userfuns import make_userfun

        double_fn = make_userfun(
            "double_fuse", ["x"], "return x;",
            lambda x: x, numpy_fn=lambda x: x * 2.0,
        )
        peak_fn = make_userfun(
            "grid_peak_fuse", ["x"], "return x;",
            lambda x: x, numpy_fn=lambda x: float(np.max(x)),
        )
        # The traced double() acquires arena scratch *before* peak() aborts
        # the capture — exactly the buffers the old code leaked.
        program = L.fun(
            [L.array_type(Float, Var("N"), Var("M"))],
            lambda a: L.FunCall(peak_fn, L.FunCall(double_fn, a)),
        )
        pool = BufferPool()
        plan = ExecutionPlan(program, [np.ones((6, 5))], pool=pool)
        live_before = pool.stats()["live_buffers"]
        for _ in range(3):  # repeated aborts must not grow the pool
            with pytest.raises(PlanCaptureError):
                plan.run([np.ones((6, 5))])
        stats = pool.stats()
        assert stats["live_buffers"] == live_before, stats
        # Whatever the aborted captures acquired is free for reuse again.
        assert stats["free_buffers"] >= 1, stats
        assert stats["allocations"] <= live_before + stats["free_buffers"], \
            stats  # aborts reuse the released buffers instead of growing
        plan.release()
        assert pool.stats()["live_buffers"] == 0

    def test_fusion_fallback_releases_scratch(self):
        # Forcing the optimizer down its fallback path (impossible tile
        # spec -> FusionError surfaces as a fallback) must not leak pool
        # buffers relative to the unfused plan.
        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        pool = BufferPool()
        plan = ExecutionPlan(bench.build_program(), inputs, pool=pool)
        plan.run(inputs)
        live = pool.stats()["live_buffers"]
        plan.release()
        stats = pool.stats()
        assert stats["live_buffers"] == 0
        # Everything the plan held is free again, beside what its capture
        # already handed back (the buffers fusion made dead).
        assert stats["free_buffers"] >= live


class TestFusedResidency:
    """What fusion leaves pinned, and where a fused region stores."""

    def test_default_512_plan_pins_five_grids_at_most(self):
        # Tiles smaller than the grid (the tile the heuristic picks at this
        # size, named so a compiler on the host does not change the test's
        # subject): tile scratch replaced the schedules' full-grid buffers
        # and the pads are views, so what is left at grid size is the two
        # inputs and the ring (20 buffers before).
        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((512, 512), 3)
        pool = BufferPool()
        plan = ExecutionPlan(bench.build_program(), inputs, pool=pool,
                             tile_shape=(64, None))
        plan.iterate(inputs, 16, carry=bench.carry_spec())
        stats = plan.stats()
        assert stats["fused_tiles"] > stats["fused_regions"] == 3
        grid = inputs[0].nbytes
        assert sum(b.nbytes >= grid for b in plan._buffers) <= 5
        assert stats["resident_pads"] >= 2 and stats["fusion_fallbacks"] == 0
        # nothing the plan still holds was handed back, and vice versa
        assert pool.stats()["live_buffers"] == stats["buffers"]
        plan.release()
        assert pool.stats()["live_buffers"] == 0

    def test_default_512_native_plan_pins_five_grids_and_no_tile_scratch(self):
        # The native twin: registers replaced the schedules' full-grid
        # buffers and there are no tiles, so grid-sized buffers are all the
        # plan holds — the two inputs and the ring — beside the temporal
        # blocks' row ring, which fits the tile budget.
        from repro.backend import native

        try:
            native.compiler()
        except native.Unavailable:
            pytest.skip("no C compiler on this host")
        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((512, 512), 3)
        pool = BufferPool()
        plan = ExecutionPlan(bench.build_program(), inputs, pool=pool)
        plan.iterate(inputs, 16, carry=bench.carry_spec())
        stats = plan.stats()
        assert stats["native_regions"] == stats["fused_regions"] == 3
        assert stats["fused_tiles"] == 3
        grid = inputs[0].nbytes
        (ring,) = plan._block_rings  # 512² resolves to one worker: one band
        grids = [b for b in plan._buffers if b is not ring]
        assert all(b.nbytes >= grid for b in grids)
        assert len(grids) <= 5
        assert stats["temporal_steps"] > 1
        assert ring.nbytes <= TILE_TARGET_BYTES
        assert stats["resident_pads"] >= 2 and stats["fusion_fallbacks"] == 0
        assert pool.stats()["live_buffers"] == stats["buffers"]
        plan.release()
        assert pool.stats()["live_buffers"] == 0

    def test_region_stores_into_the_next_steps_padded_buffer(self):
        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs,
                                             tile_shape=(4, 3))
        plan.iterate(inputs, 4, carry=bench.carry_spec())
        for out in plan._ring:
            home = plan._homes[id(out)]
            assert out is home.interior and not out.flags.c_contiguous
            assert np.shares_memory(out, home.padded)
            # the ring around it is what the chained pad would produce
            assert np.array_equal(home.padded, np.pad(out, 1, mode="edge"))

    def test_rejected_fusion_keeps_the_unfused_tape_whole(self, monkeypatch):
        # A fused tape that fails verification is dropped: the unfused tape
        # must still own every full-grid buffer it computes into.
        from repro.backend import plan as plan_module

        genuine = plan_module._bits_equal
        calls = []

        def reject_first(a, b):
            calls.append(1)
            return genuine(a, b) and len(calls) > 1

        monkeypatch.setattr(plan_module, "_bits_equal", reject_first)
        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        program, carry = bench.build_program(), bench.carry_spec()
        pool = BufferPool()
        plan = ExecutionPlan(program, inputs, pool=pool, tile_shape=(4, 3))
        backend = NumpyBackend(cache=None)
        assert np.array_equal(
            plan.iterate(inputs, 6, carry=carry),
            iterate_generic(backend, program, inputs, 6, carry=carry))
        stats = plan.stats()
        assert stats["fusion_fallbacks"] == 1 and stats["fused_regions"] == 2
        assert pool.stats()["live_buffers"] == stats["buffers"]
        plan.release()
        assert pool.stats()["live_buffers"] == 0

    def test_resolve_splits_offsets_within_a_strided_box(self):
        from repro.backend.fuse import _resolve

        padded = np.zeros((6, 8, 10))
        interior = padded[1:5, 2:7, 1:9]
        # a window resolves to the allocation, shifted by its address
        base, offset = _resolve(interior[1:3, :, 2:5], (2, 5, 3))
        assert base is padded and offset == (2, 2, 3)
        # a fixed index past the region's axes; a leading axis it lacks
        base, offset = _resolve(padded[1:3, 4:6, 5], (2, 2))
        assert base is padded and offset == (1, 4, 5)
        base, offset = _resolve(padded[1:3, 4:6, :], (4, 2, 2, 10))
        assert base is padded and offset == (1, 4, 0)
        # anything else is its own base at offset zero
        for view in (interior[:, :, ::2],  # a step slice
                     interior[::-1],       # reversed
                     interior[:, :1],      # a broadcast row
                     interior[2]):         # a fixed index on a swept axis
            shape = (4, 5, view.shape[-1])
            base, offset = _resolve(view, shape)
            assert base is view and offset == (0,) * view.ndim


class TestTileSpecs:
    def test_normalize(self):
        assert normalize_tile_spec(None) is None
        assert normalize_tile_spec(False) is False
        assert normalize_tile_spec("off") is False
        assert normalize_tile_spec(32) == (32,)
        assert normalize_tile_spec((16, None)) == (16, None)
        with pytest.raises(ExecutionError):
            normalize_tile_spec((0, 4))
        with pytest.raises(ExecutionError):
            normalize_tile_spec(())

    def test_auto_tile_blocks_the_overflowing_axis(self):
        # 1024x1024 float64 rows are 8 KiB: a 256 KiB target keeps rows
        # whole and blocks the leading axis at 32.
        assert auto_tile((1024, 1024), 8, 1 << 18) == (32, 1024)
        assert auto_tile((4, 4), 8, 1 << 18) == (4, 4)  # fits: one tile

    def test_tile_extents_resolution(self):
        assert tile_extents((16, None), (64, 48)) == (16, 48)
        assert tile_extents((100, 100), (8, 8)) == (8, 8)   # clipped
        assert tile_extents((2,), (16, 16)) == (16, 2)      # trailing axes
        assert tile_extents(None, (4, 4)) == (4, 4)

    def test_measure_best_tile_returns_a_candidate(self):
        bench = get_benchmark("jacobi2d5pt")
        inputs = small_inputs(bench)
        backend = NumpyBackend(cache=None)
        candidates = [False, None, (4, None)]
        cost, spec, workers = measure_best_tile(
            backend, bench.build_program(), inputs,
            candidates=candidates, runs=1,
        )
        assert cost > 0.0
        assert spec in candidates
        assert workers >= 1

    def test_measure_best_tile_searches_worker_candidates(self):
        bench = get_benchmark("jacobi2d5pt")
        inputs = small_inputs(bench)
        backend = NumpyBackend(cache=None)
        cost, spec, workers = measure_best_tile(
            backend, bench.build_program(), inputs,
            candidates=[None], runs=1, worker_candidates=(1, 2),
        )
        assert cost > 0.0 and spec is None and workers in (1, 2)
