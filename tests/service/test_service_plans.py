"""The service's plan-based serving path: caching, bit-identity, stats."""

import numpy as np
import pytest

from repro import faults
from repro.apps.suite import ALL_BENCHMARKS, get_benchmark
from repro.backend.base import NumpyBackend
from repro.service import (ExecutionRequest, ServiceClient, StencilService,
                           registry)
from repro.service.executor import sweep_group
from repro.service.loadgen import build_requests


def make_client(**kwargs) -> ServiceClient:
    kwargs.setdefault("batch_window", 0.05)
    return ServiceClient(StencilService(**kwargs))


class TestServicePlanPath:
    def test_batched_plan_serving_is_bit_identical_to_generic(self):
        requests = build_requests("hotspot2d", 16, shape=(13, 11),
                                  identical=False, return_result=True)
        with make_client(crosscheck=True) as client:
            responses = client.execute_many(requests)
            stats = client.stats()
        assert all(response.ok for response in responses)
        # crosscheck re-executes every batched request through the generic
        # backend and requires bit-identity with the plan-path sweep.
        assert stats["service"]["crosschecks_passed"] >= 16
        plan_stats = stats["service"]["plans"]
        assert plan_stats is not None and plan_stats["entries"] >= 1

    def test_plan_reuse_across_batches(self):
        bench = get_benchmark("stencil2d")
        with make_client() as client:
            for seed in range(3):
                requests = [
                    ExecutionRequest.for_benchmark("stencil2d", shape=(13, 11),
                                                   seed=seed + copy)
                    for copy in range(8)
                ]
                responses = client.execute_many(requests)
                for request, response in zip(requests, responses):
                    expected = bench.run_lift(request.inputs)
                    assert np.array_equal(response.result, expected)
            stats = client.stats()
        plan_stats = stats["service"]["plans"]
        # One batched plan compiled, then reused for the later batches.
        assert plan_stats["misses"] <= 2  # batched (+ possibly single) plan
        assert plan_stats["hits"] >= 1
        # Exactly one kernel compilation across every batch.
        assert stats["compilation_cache"]["misses"] == 1

    def test_quarantined_batch_is_served_generically_and_bit_identical(
            self, monkeypatch):
        # The breaker's quarantine route is the one way the service serves
        # without plans.  Open the breaker with one failed capture, then a
        # batched wave for that digest must skip plan lookup entirely (no
        # further capture attempt) and still pass the crosscheck.
        monkeypatch.setattr(registry, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(registry, "BREAKER_COOLDOWN_S", 60.0)
        faults.arm("plan.capture_fail:p=1")
        try:
            with make_client(store=None, crosscheck=True) as client:
                first = client.execute(ExecutionRequest.for_benchmark(
                    "stencil2d", shape=(13, 11)))
                assert first.ok, first.error
                assert faults.hits("plan.capture_fail") == 1
                requests = build_requests("stencil2d", 8, shape=(13, 11),
                                          identical=False, return_result=True)
                responses = client.execute_many(requests)
                stats = client.stats()["service"]
            captures = faults.hits("plan.capture_fail")
        finally:
            faults.disarm()
        assert all(response.ok for response in responses)
        assert any(response.batched for response in responses)
        assert captures == 1
        assert stats["breakers"]["quarantined_requests"] == len(requests)
        assert stats["crosschecks_passed"] == len(requests)
        bench = get_benchmark("stencil2d")
        for request, response in zip(requests, responses):
            assert np.array_equal(response.result,
                                  bench.run_lift(request.inputs))

    def test_mixed_shapes_get_separate_plans(self):
        with make_client() as client:
            small = [ExecutionRequest.for_benchmark("stencil2d", shape=(13, 11),
                                                    seed=s) for s in range(4)]
            large = [ExecutionRequest.for_benchmark("stencil2d", shape=(16, 16),
                                                    seed=s) for s in range(4)]
            responses = client.execute_many(small + large)
            stats = client.stats()
        assert all(response.ok for response in responses)
        assert stats["service"]["plans"]["entries"] >= 2


class TestBatchSizeBucketing:
    def test_variable_batch_sizes_share_bucketed_plans(self):
        # Groups of size 3, 5, 6 all round up to one capacity-8 batched
        # plan (padding slots discarded), so variable load does not pin a
        # resident stacked buffer set per distinct batch size.
        bench = get_benchmark("stencil2d")
        with make_client(crosscheck=True) as client:
            for size in (3, 5, 6):
                requests = [
                    ExecutionRequest.for_benchmark("stencil2d", shape=(13, 11),
                                                   seed=100 * size + copy)
                    for copy in range(size)
                ]
                responses = client.execute_many(requests)
                for request, response in zip(requests, responses):
                    expected = bench.run_lift(request.inputs)
                    assert np.array_equal(response.result, expected)
            stats = client.stats()
        plan_stats = stats["service"]["plans"]
        batched_misses = plan_stats["misses"]
        assert batched_misses <= 2  # one capacity-8 plan (+ maybe a single)
        assert stats["compilation_cache"]["misses"] == 1


class TestSweepGroup:
    """The one group sweep every serving path calls, over the whole suite."""

    @pytest.fixture(scope="class")
    def backend(self):
        return NumpyBackend()

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_rows_equal_per_request_runs(self, key, size, use_plans, backend):
        bench = get_benchmark(key)
        program = bench.build_program()
        shape = (13, 11) if bench.ndims == 2 else (5, 7, 9)
        parts = [bench.make_inputs(shape, seed) for seed in range(size)]
        rows, timings = sweep_group(backend, program, parts, None, use_plans)
        assert len(rows) == size
        for inputs, row in zip(parts, rows):
            assert np.array_equal(row, backend.run(program, inputs))
        assert "plan_fallback" not in timings
        assert timings["plan_resolve_ms"] >= 0 and timings["replay_ms"] >= 0
        if use_plans and size == 3:
            # Three requests padded into the capacity-4 batched plan: a
            # group of four replays it instead of building its own.
            misses = backend.plans.stats()["misses"]
            sweep_group(backend, program, parts + parts[:1], None, True)
            assert backend.plans.stats()["misses"] == misses


class TestShardedEqualsLocal:
    def test_one_shard_and_no_shards_answer_a_mixed_wave_identically(self):
        # Mixed digests, dimensionalities and group sizes in one wave: the
        # shard child and the in-process path run the same sweep, so the
        # answers must agree byte for byte.
        wave = [
            ExecutionRequest.for_benchmark(key, shape=shape, seed=seed)
            for key, shape, count in (("stencil2d", (13, 11), 3),
                                      ("hotspot2d", (12, 10), 1),
                                      ("heat", (5, 7, 9), 2))
            for seed in range(count)
        ]
        answers = []
        for shards in (0, 1):
            with make_client(store=None, shards=shards) as client:
                responses = client.execute_many(wave)
                stats = client.stats()["service"]
            assert stats["shard_fallbacks"] == 0
            if shards:
                assert stats["shards"]["requests"] == len(wave)
            answers.append([(r.result.dtype, r.result.shape,
                             r.result.tobytes()) for r in responses])
        assert answers[0] == answers[1]
