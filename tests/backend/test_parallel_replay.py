"""Parallel tiled replay: bit-identity, zero allocations, failure hygiene.

The acceptance property for the replay worker pool: for every suite
application, dtype, tile shape and worker count, dispatching a fused
region's independent tile chunks across N pool threads produces results
**bit-identical** to the serial replay (which is itself verified
bit-identical to the generic path at capture time), the steady parallel
loop allocates nothing from the buffer pool, and a failing worker leaves
no scratch leaked and the plan fully recoverable.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.apps.suite import ALL_BENCHMARKS, ITERATIVE_BENCHMARKS, get_benchmark
from repro.backend.base import NumpyBackend
from repro.backend.fuse import (
    MAX_REPLAY_WORKERS,
    FusedOp,
    ReplayWorkerPool,
    normalize_workers,
    replay_pool,
)
from repro.backend.numpy_backend import ExecutionError
from repro.backend.plan import PlanCache, iterate_generic

SMALL_SHAPES = {2: (13, 11), 3: (5, 7, 9)}


def small_inputs(bench, seed=7, dtype=None):
    inputs = bench.make_inputs(SMALL_SHAPES[bench.ndims], seed)
    if dtype is not None:
        inputs = [np.asarray(grid, dtype=dtype) for grid in inputs]
    return inputs


def fused_ops_of(plan):
    """Every FusedOp reachable from the plan's captured tapes."""
    found = []
    for tape in plan._tapes.values():
        for op in tape.ops:
            owner = getattr(op, "__self__", None)
            if isinstance(owner, FusedOp):
                found.append(owner)
    return found


class TestParallelBitIdentity:
    """The property sweep: app × dtype × tile × workers, parallel == serial."""

    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tile", [None, (4, 3)])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_run_matches_generic(self, key, dtype, tile, workers):
        bench = ALL_BENCHMARKS[key]
        inputs = small_inputs(bench, dtype=dtype)
        program = bench.build_program()
        backend = NumpyBackend(cache=None)
        generic = backend.run(program, inputs)
        plan = backend.plan(program, inputs, tile_shape=tile,
                            parallel_workers=workers)
        assert np.array_equal(generic, plan.run(inputs))   # capture sweep
        assert np.array_equal(generic, plan.run(inputs))   # parallel replay
        assert plan.stats()["fusion_fallbacks"] == 0, key
        assert plan.stats()["parallel_workers"] == workers

    @pytest.mark.parametrize("key", ITERATIVE_BENCHMARKS)
    def test_parallel_iterate_matches_per_sweep_loop(self, key):
        bench = get_benchmark(key)
        inputs = small_inputs(bench)
        program = bench.build_program()
        carry = bench.carry_spec()
        backend = NumpyBackend(cache=None)
        reference = iterate_generic(backend, program, inputs, 7, carry=carry)
        plan = backend.plan(program, inputs, tile_shape=(4, None),
                            parallel_workers=3)
        assert np.array_equal(reference,
                              plan.iterate(inputs, 7, carry=carry))

    def test_parallel_regions_actually_chunk_across_workers(self):
        # The tape must really hold multi-part fused ops — otherwise the
        # sweep above only proves the serial path twice.
        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        plan = NumpyBackend(cache=None).plan(
            bench.build_program(), inputs, tile_shape=(4, 4),
            parallel_workers=3,
        )
        plan.run(inputs)
        parallel = [op for op in fused_ops_of(plan) if op.workers > 1]
        assert parallel, "no fused op was split into parallel chunks"
        for op in parallel:
            assert op.workers <= 3


class TestParallelPlanCaching:
    def test_distinct_worker_counts_are_distinct_cached_plans(self):
        cache = PlanCache()
        bench = get_benchmark("stencil2d")
        program = bench.build_program()
        serial = cache.get_or_compile(program, small_inputs(bench),
                                      tile_shape=(4, 4))
        parallel = cache.get_or_compile(program, small_inputs(bench),
                                        tile_shape=(4, 4), parallel_workers=2)
        assert serial is not parallel
        again = cache.get_or_compile(program, small_inputs(bench),
                                     tile_shape=(4, 4), parallel_workers=2)
        assert again is parallel

    def test_normalize_workers(self):
        assert normalize_workers(None) == 1
        assert normalize_workers(False) == 1
        assert normalize_workers(0) == 1
        assert normalize_workers(3) == 3
        assert normalize_workers(10_000) == MAX_REPLAY_WORKERS
        with pytest.raises(ExecutionError):
            normalize_workers(-2)

    def test_none_resolves_through_the_size_rule(self, monkeypatch):
        # One worker per core once each has sixteen cache-sized tiles of the
        # largest input to itself; everything smaller stays serial.
        from repro.backend import fuse

        hotspot_1024 = [(1024, 1024), (1024, 1024)]
        stay_serial = [
            [(32, 96, 96)] * 3,           # Acoustic: 11 tiles
            [(512, 512), (512, 512)],     # 8 tiles
            [(16, 64, 64), (16, 64, 64)],  # a batched 64² wave
            [()],
        ]
        for cores, expected in ((1, 1), (2, 2), (8, 2)):
            monkeypatch.setattr(fuse, "CORES", cores)
            assert normalize_workers(None, hotspot_1024) == expected
            assert fuse.auto_workers([(4096, 4096)]) == \
                min(cores, MAX_REPLAY_WORKERS)
            for shapes in stay_serial:
                assert normalize_workers(None, shapes) == 1
            # explicit integers mean what they meant
            assert normalize_workers(1, hotspot_1024) == 1
            assert normalize_workers(0, hotspot_1024) == 1
            assert normalize_workers(3, [(8, 8)]) == 3
        # the resolved count is the cache key: None and its resolution share
        monkeypatch.setattr(fuse, "CORES", 2)
        cache = PlanCache()
        program = get_benchmark("hotspot2d").build_program()
        big = [(shape, "float64") for shape in hotspot_1024]
        assert cache.key_for(program, big) == \
            cache.key_for(program, big, parallel_workers=2)
        assert cache.key_for(program, big) != \
            cache.key_for(program, big, parallel_workers=1)
        small = [((13, 11), "float64")] * 2
        assert cache.key_for(program, small) == \
            cache.key_for(program, small, parallel_workers=1)

    def test_cores_come_from_the_affinity_set_then_the_machine(
            self, monkeypatch):
        # The count is resolved once per process (fuse.CORES); the rule
        # behind it reads the affinity set first, then the machine count.
        import os

        from repro.backend import fuse

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert fuse.usable_cores() == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert fuse.usable_cores() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert fuse.usable_cores() == 1


class TestParallelZeroAllocation:
    @pytest.mark.parametrize("key", ["hotspot2d", "acoustic"])
    def test_steady_parallel_iterate_does_not_allocate(self, key):
        # The pool contract under parallelism: each worker chunk owns its
        # pre-acquired scratch set, so the steady parallel loop draws no
        # fresh pool buffers; net traced allocations stay at the transient
        # latch/queue-item noise the threading layer unavoidably produces.
        bench = get_benchmark(key)
        inputs = small_inputs(bench)
        plan = NumpyBackend(cache=None).plan(bench.build_program(), inputs,
                                             tile_shape=(4, 4),
                                             parallel_workers=3)
        carry = bench.carry_spec()
        plan.iterate(inputs, 12, carry=carry)  # warm every binding's tape
        assert plan.stats()["fused_regions"] >= 1
        pool_before = plan._pool.allocations

        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            plan.iterate(inputs, 64, carry=carry, copy=False)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

        assert plan._pool.allocations == pool_before
        delta = after.compare_to(before, "filename")
        grown = sum(max(0, entry.size_diff) for entry in delta)
        assert grown < 64 * 1024, f"steady parallel loop grew {grown} bytes"


class _Boom(RuntimeError):
    pass


def _raising_ufunc(*args, out=None):
    raise _Boom("injected worker failure")


class TestWorkerFailureHygiene:
    def test_worker_failure_propagates_and_plan_recovers(self):
        bench = get_benchmark("hotspot2d")
        inputs = small_inputs(bench)
        backend = NumpyBackend(cache=None)
        generic = backend.run(bench.build_program(), inputs)
        plan = backend.plan(bench.build_program(), inputs, tile_shape=(4, 4),
                            parallel_workers=3)
        plan.run(inputs)
        victims = [op for op in fused_ops_of(plan) if op.workers > 1]
        assert victims
        victim = victims[0]
        live_before = plan._pool.stats()["live_buffers"]
        allocations_before = plan._pool.allocations

        # Inject a raising micro-op into a *worker* chunk (not the inline
        # part), so the failure surfaces on a pool thread and must cross
        # the latch back to the caller.
        injected = (_raising_ufunc, (), None)
        victim.parts[1].append(injected)
        try:
            for _ in range(3):  # repeated failures must not leak either
                with pytest.raises(_Boom):
                    plan.run(inputs)
        finally:
            victim.parts[1].remove(injected)

        # No scratch leaked: replay draws on pre-acquired buffers only, so
        # the pool's accounting is untouched by the aborted replays.
        assert plan._pool.stats()["live_buffers"] == live_before
        assert plan._pool.allocations == allocations_before
        # And the plan still serves bit-identical results afterwards.
        assert np.array_equal(generic, plan.run(inputs))

    def test_inline_failure_still_joins_the_workers(self):
        # run_parts must wait for the dispatched tail even when the inline
        # chunk raises first — returning early would leave pool threads
        # racing scratch the caller believes is quiescent.  Observable
        # contract: the tail's writes have all landed when the error
        # arrives.
        pool = ReplayWorkerPool(max_threads=4)
        landed = np.zeros(8)
        tail_parts = [
            [(np.add, (1.0, 0.0), landed[index:index + 1])]
            for index in range(8)
        ]
        inline = [(_raising_ufunc, (), None)]
        with pytest.raises(_Boom):
            pool.run_parts([inline] + tail_parts)
        assert np.array_equal(landed, np.ones(8))

    def test_pool_reports_first_worker_error_and_survives(self):
        pool = ReplayWorkerPool(max_threads=2)
        out = np.zeros(4)
        with pytest.raises(_Boom):
            pool.run_parts([
                [(np.add, (2.0, 0.0), out)],          # inline: fine
                [(_raising_ufunc, (), None)],         # worker: raises
            ])
        # The pool is a process-wide singleton in production: after an
        # error it must keep replaying subsequent runs normally.
        pool.run_parts([
            [(np.add, (3.0, 0.0), out[:2])],
            [(np.add, (3.0, 0.0), out[2:])],
        ])
        assert np.array_equal(out, np.full(4, 3.0))

    def test_process_pool_singleton(self):
        assert replay_pool() is replay_pool()
