"""The digest circuit breaker state machine (injected clock, no sleeping)."""

from __future__ import annotations

import pytest

from repro import faults
from repro.service import (
    DigestCircuitBreaker,
    ExecutionRequest,
    ServiceClient,
    StencilService,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _breaker(threshold=3, cooldown_s=5.0):
    clock = FakeClock()
    return DigestCircuitBreaker(threshold=threshold, cooldown_s=cooldown_s,
                                clock=clock), clock


class TestClosedToOpen:
    def test_allows_until_threshold_consecutive_failures(self):
        breaker, _ = _breaker(threshold=3)
        for _ in range(2):
            assert breaker.allow("d")
            breaker.record_failure("d", "plan capture")
        assert breaker.state("d") == "closed"
        breaker.record_failure("d", "plan capture")
        assert breaker.state("d") == "open"
        assert not breaker.allow("d")
        assert breaker.opens == 1

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = _breaker(threshold=2)
        breaker.record_failure("d")
        breaker.record_success("d")
        breaker.record_failure("d")
        assert breaker.state("d") == "closed"
        assert breaker.allow("d")

    def test_digests_are_independent(self):
        breaker, _ = _breaker(threshold=1)
        breaker.record_failure("bad")
        assert not breaker.allow("bad")
        assert breaker.allow("good")


class TestHalfOpenProbe:
    def test_cooldown_admits_exactly_one_probe(self):
        breaker, clock = _breaker(threshold=1, cooldown_s=5.0)
        breaker.record_failure("d")
        assert not breaker.allow("d")
        clock.advance(5.0)
        assert breaker.state("d") == "half_open"
        assert breaker.allow("d")        # the probe
        assert not breaker.allow("d")    # concurrent traffic stays out

    def test_probe_success_closes(self):
        breaker, clock = _breaker(threshold=1, cooldown_s=5.0)
        breaker.record_failure("d")
        clock.advance(5.0)
        assert breaker.allow("d")
        breaker.record_success("d")
        assert breaker.state("d") == "closed"
        assert breaker.allow("d")
        assert breaker.closes == 1
        assert breaker.stats()["digests"] == {}

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker, clock = _breaker(threshold=1, cooldown_s=5.0)
        breaker.record_failure("d")
        clock.advance(5.0)
        assert breaker.allow("d")
        breaker.record_failure("d", "probe failed")
        assert not breaker.allow("d")
        assert breaker.opens == 2
        clock.advance(4.9)
        assert not breaker.allow("d")
        clock.advance(0.1)
        assert breaker.allow("d")


class TestConfiguration:
    def test_threshold_zero_disables(self):
        breaker, _ = _breaker(threshold=0)
        for _ in range(10):
            breaker.record_failure("d")
        assert breaker.allow("d")
        assert breaker.state("d") == "closed"

    def test_stats_shape(self):
        breaker, _ = _breaker(threshold=1)
        digest = "a" * 64
        breaker.record_failure(digest, "shard dispatch")
        stats = breaker.stats()
        assert stats["opens"] == 1 and stats["closes"] == 0
        row = stats["digests"][digest[:16]]
        assert row["state"] == "open"
        assert row["last_reason"] == "shard dispatch"
        assert breaker.open_count() == 1


class TestFallbackEvidence:
    """Every execution path reports plan fallbacks to the breaker."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        faults.disarm()
        yield
        faults.disarm()

    @pytest.mark.parametrize("steps", [1, 4])
    def test_failed_captures_quarantine_single_and_iterative_requests(
            self, steps):
        # Every plan lookup fails: two requests fall back (and are counted),
        # the breaker opens, and the next two skip capture entirely — a
        # poisoned digest costs one table lookup, for trajectories too.
        faults.arm("plan.capture_fail:p=1")
        service = StencilService(store=None, breaker_threshold=2,
                                 breaker_cooldown_s=60.0)
        with ServiceClient(service) as client:
            for seed in range(4):
                response = client.execute(ExecutionRequest.for_benchmark(
                    "hotspot2d", shape=(12, 12), seed=seed, steps=steps))
                assert response.ok, response.error
            breakers = client.stats()["service"]["breakers"]
        assert breakers["opens"] == 1, breakers
        assert breakers["quarantined_requests"] == 2, breakers
        (row,) = breakers["digests"].values()
        assert row["state"] == "open"
        assert faults.hits("plan.capture_fail") == 2
