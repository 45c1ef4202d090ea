"""Self-healing: watchdog, redispatch, supervised respawn, fault injection.

These tests kill and wedge *real* shard processes.  They are kept small
(tiny grids, few requests) because every spawned shard imports the package
fresh; the heavier sustained-load story lives in the chaos loadgen and its
CI job.
"""

from __future__ import annotations

import logging
import os
import signal
import time
import types

import numpy as np
import pytest

from repro import faults
from repro.apps.suite import get_benchmark
from repro.service import (
    ExecutionRequest,
    ServiceClient,
    ShardUnavailable,
    StencilService,
    registry,
)
from repro.service.shards import ShardedExecutor
from repro.service.supervisor import ShardSupervisor


@pytest.fixture(autouse=True)
def _disarmed():
    faults.disarm()
    yield
    faults.disarm()


def _stream(benchmark="stencil2d", count=8, shape=(12, 12)):
    bench = get_benchmark(benchmark)
    return [
        ExecutionRequest(benchmark=benchmark,
                         inputs=bench.make_inputs(shape, seed))
        for seed in range(count)
    ]


def _wait_for(predicate, timeout_s=20.0, interval_s=0.1):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestWatchdog:
    def test_wedged_shard_trips_the_watchdog_and_respawns(self):
        # SIGSTOP leaves the process alive, so only the per-round-trip
        # watchdog can notice; SIGKILL (used by respawn) works on stopped
        # processes.
        executor = ShardedExecutor(shards=1, timeout_s=0.5)
        handle = executor.handles[0]
        try:
            os.kill(handle.process.pid, signal.SIGSTOP)
            with pytest.raises(ShardUnavailable, match="watchdog"):
                handle._roundtrip({"op": "stats"}, timeout_s=0.5)
            assert handle.failed and not handle.available
            assert executor.pick() is None  # whole fleet down
            handle.respawn()
            handle.failed = False
            assert handle.available
            assert handle.respawns == 1
            reply = handle._roundtrip({"op": "stats"}, timeout_s=5.0)
            assert reply.get("ok")
        finally:
            executor.close()

    def test_dead_shard_raises_shard_unavailable_not_in_band(self):
        executor = ShardedExecutor(shards=1, timeout_s=5.0)
        handle = executor.handles[0]
        try:
            handle.process.kill()
            handle.process.join(timeout=5)
            with pytest.raises(ShardUnavailable):
                handle._roundtrip({"op": "stats"}, timeout_s=5.0)
            assert handle.failed
        finally:
            executor.close()


class TestSupervisedRespawn:
    def test_killed_shard_mid_load_heals_with_bit_identical_replies(self):
        requests = _stream(count=8)
        with ServiceClient(StencilService(store=None)) as client:
            reference = [np.asarray(r.result)
                         for r in client.execute_many(requests)]

        service = StencilService(store=None, shards=2, max_batch=2,
                                 shard_timeout_s=5.0)
        with ServiceClient(service) as client:
            responses = client.execute_many(requests)
            for got, expected in zip(responses, reference):
                assert np.array_equal(np.asarray(got.result), expected)

            victim = service.executor.handles[0]
            victim.process.kill()

            def restarted():
                stats = client.stats()["service"]
                return int(stats.get("shard_restarts") or 0) >= 1
            assert _wait_for(restarted), client.stats()["service"]

            # The healed fleet serves the same stream, still bit-identical,
            # and round-robin reaches the respawned shard again.
            responses = client.execute_many(requests)
            for got, expected in zip(responses, reference):
                assert got.ok, got.error
                assert np.array_equal(np.asarray(got.result), expected)
            shards = client.stats()["service"]["shards"]
            assert shards["alive"] == 2, shards
            assert shards["respawns"] >= 1, shards
            for row in shards["per_shard"]:
                assert row["alive"], row
                assert row["requests"] >= 1, row

    def test_a_respawned_shard_gets_the_program_with_its_first_group(self):
        """Nothing is preloaded into a respawned process: the first group
        it is sent for a digest the dead process served carries the
        program, and is answered bit-identically."""
        first, second = _stream(count=2)
        with ServiceClient(StencilService(store=None)) as client:
            expected = client.execute(second).result

        service = StencilService(store=None, shards=1, max_batch=1,
                                 shard_timeout_s=5.0)
        with ServiceClient(service) as client:
            assert client.execute(first).ok
            victim = service.executor.handles[0]
            assert victim.groups == 1
            victim.process.kill()

            def restarted():
                stats = client.stats()["service"]
                return int(stats.get("shard_restarts") or 0) >= 1
            assert _wait_for(restarted), client.stats()["service"]

            sent = []
            roundtrip = victim._roundtrip

            def spy(message, timeout_s=None):
                sent.append(message)
                return roundtrip(message, timeout_s)

            victim._roundtrip = spy
            response = client.execute(second)
            assert response.ok, response.error
            assert response.result.tobytes() == expected.tobytes()
            (group,) = [m for m in sent if m["op"] == "execute"]
            assert group["digest"] == response.digest
            assert "program" in group
            assert client.stats()["service"]["supervisor"][
                "respawn_failures"] == 0

    def test_in_flight_group_is_redispatched_exactly_once_per_request(
            self, monkeypatch):
        # Arm the crash *in the shard children* (export=True → the spawned
        # process arms from the environment): each shard exits before its
        # first reply.  The reply never arrived, so redispatching is
        # idempotent — every request must be answered exactly once, ok.
        # No failure count reaches the breaker's threshold, so every group
        # takes the shard path.
        monkeypatch.setattr(registry, "BREAKER_THRESHOLD", 1_000)
        faults.arm("shard.crash_before_reply:at=1", export=True)
        requests = _stream(count=4)
        service = StencilService(store=None, shards=2, max_batch=2,
                                 shard_timeout_s=5.0, max_respawns=0)
        with ServiceClient(service) as client:
            faults.disarm()  # keep the *parent* process clean
            responses = client.execute_many(requests)
            assert len(responses) == len(requests)
            assert all(r.ok for r in responses), [r.error for r in responses]
            stats = client.stats()["service"]
            assert stats["shard_redispatches"] >= 1, stats
            # Crashed shards are not respawned (a budget of 0) and never
            # answered: the serves landed on surviving shards or the local
            # fallback, once each.
            assert stats["requests_served"] == len(requests)


    def test_a_zero_budget_logs_each_down_shard_once_and_not_as_an_error(
            self, caplog):
        class DeadHandle:
            def __init__(self, index):
                self.index, self.failed, self.respawns = index, True, 0
                self.process = types.SimpleNamespace(is_alive=lambda: False)

            def mark_failed(self, reason):
                self.failed = True

        fleet = types.SimpleNamespace(handles=[DeadHandle(0), DeadHandle(1)])
        supervisor = ShardSupervisor(fleet, max_respawns=0)
        with caplog.at_level(logging.INFO, logger="repro.service.supervisor"):
            supervisor._sweep()
            supervisor._sweep()
        levels = [record.levelno for record in caplog.records
                  if record.name == "repro.service.supervisor"]
        assert levels == [logging.INFO, logging.INFO]
        assert supervisor.stats()["gave_up"] == [0, 1]


class TestBreakerIntegration:
    def test_repeated_plan_capture_failures_quarantine_the_digest(
            self, monkeypatch):
        # Bare point: every plan capture in this process fails.  The service
        # must keep serving (generic fallback), and after `threshold`
        # consecutive plan fallbacks the breaker quarantines the digest so
        # later groups skip capture entirely.
        monkeypatch.setattr(registry, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(registry, "BREAKER_COOLDOWN_S", 60.0)
        faults.arm("plan.capture_fail")
        service = StencilService(store=None)
        requests = _stream(count=6)
        with ServiceClient(service) as client:
            responses = [client.execute(request) for request in requests]
            assert all(r.ok for r in responses), [r.error for r in responses]
            stats = client.stats()["service"]
            breakers = stats["breakers"]
            assert breakers["opens"] >= 1, breakers
            assert breakers["quarantined_requests"] >= 1, breakers
            (row,) = breakers["digests"].values()
            assert row["state"] == "open", breakers
            assert "plan capture" in row["last_reason"]

    def test_failures_below_the_threshold_never_quarantine(
            self, monkeypatch):
        monkeypatch.setattr(registry, "BREAKER_THRESHOLD", 5)
        faults.arm("plan.capture_fail")
        service = StencilService(store=None)
        with ServiceClient(service) as client:
            responses = [client.execute(r) for r in _stream(count=4)]
            assert all(r.ok for r in responses)
            breakers = client.stats()["service"]["breakers"]
            assert breakers["opens"] == 0
            assert breakers["quarantined_requests"] == 0
