"""The sharded batch executor: bit-identity, balance, failure, roll-ups.

Process-spawning tests are deliberately few and small (spawned shards
import the package fresh), and everything else — stats roll-up, report
checks — is exercised without forking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.suite import get_benchmark
from repro.service import (
    ExecutionRequest,
    ServiceClient,
    ShardError,
    StencilService,
    check_batching,
    check_sharding,
    supervisor,
)
from repro.service.metrics import shards_section


def _stream(benchmark="stencil2d", count=16, shape=(16, 16), identical=True):
    bench = get_benchmark(benchmark)
    requests = []
    for seed in range(count):
        inputs = bench.make_inputs(shape, 3 if identical else seed)
        requests.append(ExecutionRequest(benchmark=benchmark, inputs=inputs))
    return requests


class TestShardedService:
    def test_sharded_results_bit_identical_and_both_shards_serve(self):
        requests = _stream(count=16, identical=False)
        with ServiceClient(StencilService(store=None)) as client:
            reference = [
                np.asarray(response.result)
                for response in client.execute_many(requests)
            ]
        # max_batch 4 forces >= 4 groups out of 16 requests, so the
        # round-robin demonstrably reaches both shards in one stream.
        service = StencilService(store=None, shards=2, max_batch=4)
        with ServiceClient(service) as client:
            responses = client.execute_many(requests)
            stats = client.stats()["service"]
            for got, expected in zip(responses, reference):
                assert np.array_equal(np.asarray(got.result), expected)
            shards = stats["shards"]
            assert shards["count"] == 2 and shards["alive"] == 2
            assert shards["requests"] == len(requests)
            for row in shards["per_shard"]:
                assert row["requests"] >= 1, row
            assert stats["shard_fallbacks"] == 0

    def test_sharded_hot_digest_compiles_once_per_shard(self):
        requests = _stream(count=8, identical=True)
        service = StencilService(store=None, shards=2, max_batch=2)
        with ServiceClient(service) as client:
            client.execute_many(requests)
            client.execute_many(requests)  # warm replays, no new compiles
            shards = client.stats()["service"]["shards"]
            assert shards["compilations"] == 2  # one per shard, total
            for row in shards["per_shard"]:
                assert row.get("compilations") == 1, row

    def test_dead_shard_falls_back_locally_without_failing_requests(
            self, monkeypatch):
        # No respawns (a budget of 0): with the only shard dead, pick() returns None and
        # the service must serve the group on the local path, in-band and
        # bit-identical — requests never observe the crash.
        requests = _stream(count=2)
        with ServiceClient(StencilService(store=None)) as client:
            reference = [
                np.asarray(response.result)
                for response in client.execute_many(requests)
            ]
        monkeypatch.setattr(supervisor, "DEFAULT_MAX_RESPAWNS", 0)
        service = StencilService(store=None, shards=1, max_batch=4)
        with ServiceClient(service) as client:
            client.execute_many(requests)
            handle = service.executor.handles[0]
            handle.process.terminate()
            handle.process.join(timeout=5)
            responses = client.execute_many(requests, raise_on_error=False)
            assert all(response.ok for response in responses)
            for got, expected in zip(responses, reference):
                assert np.array_equal(np.asarray(got.result), expected)
            stats = client.stats()["service"]
            assert stats["shard_fallbacks"] >= 1
            assert stats["shard_restarts"] == 0

    def test_shard_processes_take_their_share_of_the_cores(self, monkeypatch):
        # The shards sweep on the serving process's cores, so its barrier
        # blocks band over what they leave (fuse.band_cores).
        from repro.backend import fuse
        from repro.service.shards import ShardedExecutor

        monkeypatch.setattr(fuse, "CORES", 4)
        monkeypatch.setattr(fuse, "SHARD_PROCESSES", 0)
        executor = ShardedExecutor(shards=1)
        try:
            assert fuse.SHARD_PROCESSES == 1 and fuse.band_cores() == 2
        finally:
            executor.close()
        executor.close()  # a second close counts nothing twice
        assert fuse.SHARD_PROCESSES == 0 and fuse.band_cores() == 4


class TestShardStatsRollup:
    def test_shards_section_sums_the_fleet(self):
        per_shard = [
            {"shard": 0, "alive": True, "requests": 10, "groups": 3,
             "errors": 0, "compilations": 1},
            {"shard": 1, "alive": False, "requests": 4, "groups": 1,
             "errors": 2, "compilations": 1},
        ]
        section = shards_section(per_shard)
        assert section["count"] == 2
        assert section["alive"] == 1
        assert section["requests"] == 14
        assert section["groups"] == 4
        assert section["errors"] == 2
        assert section["compilations"] == 2
        assert section["per_shard"] == per_shard

    def test_shards_section_empty_fleet(self):
        section = shards_section([])
        assert section["count"] == 0 and section["requests"] == 0


class TestLoadgenShardChecks:
    def test_check_sharding_flags_idle_shards(self):
        assert check_sharding({"shard_requests": [8, 8]}) == []
        problems = check_sharding({"shard_requests": [16, 0]})
        assert problems and "shard 1" in problems[0]
        assert check_sharding({"shard_requests": []})  # no data = problem

    def test_check_batching_expects_one_compilation_per_active_shard(self):
        base = {
            "requests": 8, "requests_served": 8, "batches_formed": 2,
            "identical": True,
        }
        assert check_batching({**base, "compilations": 1}) == []
        assert check_batching({
            **base, "compilations": 2, "shard_requests": [4, 4],
        }) == []
        problems = check_batching({
            **base, "compilations": 1, "shard_requests": [4, 4],
        })
        assert problems and "expected 2" in problems[0]


class TestShardErrorType:
    def test_shard_error_is_a_service_error(self):
        from repro.service.requests import ServiceError

        assert issubclass(ShardError, ServiceError)
        with pytest.raises(ServiceError):
            raise ShardError("boom")
