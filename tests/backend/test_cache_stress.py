"""Concurrency stress tests for the compilation cache and the plan cache.

The execution service fans numeric sweeps out to executor threads, so the
caches see concurrent ``get_or_compile`` traffic (plus stats reads and the
LRU's pop-and-reinsert) from many threads at once.  These tests hammer both
caches from a thread pool with a deliberately tiny capacity — forcing
constant hits, misses and evictions to interleave — and assert the
invariants the locked implementation guarantees: no exceptions, a
consistent entry table, counters that add up, and correct results for every
key throughout.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.apps.suite import get_benchmark
from repro.backend.base import NumpyBackend
from repro.backend.cache import CompilationCache, input_signature
from repro.backend.plan import PlanCache

THREADS = 8
ROUNDS = 60


def _programs(count: int):
    # Distinct structural keys: the same program lowered at different input
    # signatures keys separate cache entries.
    bench = get_benchmark("stencil2d")
    program = bench.build_program()
    shapes = [(8 + extent, 8 + extent) for extent in range(count)]
    return program, shapes


class TestCompilationCacheUnderThreads:
    def test_concurrent_get_or_compile_with_eviction(self):
        cache = CompilationCache(max_entries=3)
        program, shapes = _programs(7)
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(worker_id: int) -> None:
            rng = np.random.default_rng(worker_id)
            barrier.wait()
            try:
                for round_number in range(ROUNDS):
                    shape = shapes[int(rng.integers(len(shapes)))]
                    inputs = [np.ones(shape)]
                    kernel = cache.get_or_compile(program, inputs)
                    result = kernel(inputs)
                    assert result.shape[:2] == shape
                    if round_number % 13 == 0:
                        stats = cache.stats()
                        assert 0 <= stats["entries"] <= cache.max_entries
                        assert len(cache) <= cache.max_entries
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        with ThreadPoolExecutor(THREADS) as pool:
            list(pool.map(worker, range(THREADS)))

        assert not errors, errors
        stats = cache.stats()
        assert stats["entries"] <= cache.max_entries
        assert stats["hits"] + stats["misses"] == THREADS * ROUNDS
        # Every surviving entry still resolves to a working kernel.
        for shape in shapes:
            inputs = [np.ones(shape)]
            kernel = cache.get_or_compile_keyed(
                program, input_signature(inputs)
            )
            assert kernel(inputs).shape[:2] == shape

    def test_concurrent_clear_does_not_corrupt(self):
        cache = CompilationCache(max_entries=4)
        program, shapes = _programs(4)
        errors = []

        def churn(worker_id: int) -> None:
            try:
                for round_number in range(ROUNDS):
                    if worker_id == 0 and round_number % 10 == 5:
                        cache.clear()
                        continue
                    shape = shapes[round_number % len(shapes)]
                    inputs = [np.ones(shape)]
                    kernel = cache.get_or_compile(program, inputs)
                    assert kernel(inputs).shape[:2] == shape
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        with ThreadPoolExecutor(THREADS) as pool:
            list(pool.map(churn, range(THREADS)))
        assert not errors, errors
        assert len(cache) <= cache.max_entries


class TestPlanCacheUnderThreads:
    def test_concurrent_plan_execution_and_eviction(self):
        backend = NumpyBackend(cache=CompilationCache(max_entries=8),
                               plans=PlanCache(max_entries=3))
        bench = get_benchmark("stencil2d")
        program = bench.build_program()
        shapes = [(8 + extent, 8 + extent) for extent in range(6)]
        expected = {
            shape: backend.run(program, [np.ones(shape)]) for shape in shapes
        }
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(worker_id: int) -> None:
            rng = np.random.default_rng(100 + worker_id)
            barrier.wait()
            try:
                for _ in range(ROUNDS):
                    shape = shapes[int(rng.integers(len(shapes)))]
                    grids = [np.ones(shape)]
                    produced = backend.plan(program, grids).run(grids)
                    assert np.array_equal(produced, expected[shape])
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        with ThreadPoolExecutor(THREADS) as pool:
            list(pool.map(worker, range(THREADS)))

        assert not errors, errors
        stats = backend.plans.stats()
        assert stats["entries"] <= 3
        assert stats["hits"] + stats["misses"] == THREADS * ROUNDS
