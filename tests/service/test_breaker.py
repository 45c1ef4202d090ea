"""The digest circuit breaker state machine (injected clock, no sleeping)."""

from __future__ import annotations

import pytest

from repro import faults
from repro.service import (
    DigestCircuitBreaker,
    ExecutionRequest,
    ServiceClient,
    StencilService,
    registry,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def breaker_for(monkeypatch):
    """A breaker on a fake clock, under these values of the module's two
    policy constants."""
    def build(threshold=3, cooldown_s=5.0):
        monkeypatch.setattr(registry, "BREAKER_THRESHOLD", threshold)
        monkeypatch.setattr(registry, "BREAKER_COOLDOWN_S", cooldown_s)
        clock = FakeClock()
        return DigestCircuitBreaker(clock=clock), clock
    return build


def _state(breaker, digest):
    """The digest's state as ``stats()`` lists it: ``closed`` has no row."""
    row = breaker.stats()["digests"].get(digest[:16])
    return "closed" if row is None else row["state"]


class TestClosedToOpen:
    def test_allows_until_threshold_consecutive_failures(self, breaker_for):
        breaker, _ = breaker_for(threshold=3)
        for _ in range(2):
            assert breaker.allow("d")
            breaker.record_failure("d", "plan capture")
        assert _state(breaker, "d") == "closed"
        breaker.record_failure("d", "plan capture")
        assert _state(breaker, "d") == "open"
        assert not breaker.allow("d")
        assert breaker.opens == 1

    def test_success_resets_the_consecutive_count(self, breaker_for):
        breaker, _ = breaker_for(threshold=2)
        breaker.record_failure("d")
        breaker.record_success("d")
        breaker.record_failure("d")
        assert _state(breaker, "d") == "closed"
        assert breaker.allow("d")

    def test_digests_are_independent(self, breaker_for):
        breaker, _ = breaker_for(threshold=1)
        breaker.record_failure("bad")
        assert not breaker.allow("bad")
        assert breaker.allow("good")


class TestHalfOpenProbe:
    def test_cooldown_admits_exactly_one_probe(self, breaker_for):
        breaker, clock = breaker_for(threshold=1, cooldown_s=5.0)
        breaker.record_failure("d")
        assert not breaker.allow("d")
        clock.advance(5.0)
        assert _state(breaker, "d") == "open"
        assert breaker.allow("d")        # the probe
        assert _state(breaker, "d") == "half_open"
        assert not breaker.allow("d")    # concurrent traffic stays out

    def test_probe_success_closes(self, breaker_for):
        breaker, clock = breaker_for(threshold=1, cooldown_s=5.0)
        breaker.record_failure("d")
        clock.advance(5.0)
        assert breaker.allow("d")
        breaker.record_success("d")
        assert _state(breaker, "d") == "closed"
        assert breaker.allow("d")
        assert breaker.closes == 1
        assert breaker.stats()["digests"] == {}

    def test_probe_failure_reopens_for_another_cooldown(self, breaker_for):
        breaker, clock = breaker_for(threshold=1, cooldown_s=5.0)
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
    def test_stats_report_the_module_constants(self):
        assert (registry.BREAKER_THRESHOLD, registry.BREAKER_COOLDOWN_S) == (
            3, 5.0)
        stats = DigestCircuitBreaker().stats()
        assert (stats["threshold"], stats["cooldown_s"]) == (3, 5.0)

    def test_stats_shape(self, breaker_for):
        breaker, _ = breaker_for(threshold=1)
        digest = "a" * 64
        breaker.record_failure(digest, "shard dispatch")
        stats = breaker.stats()
        assert stats["opens"] == 1 and stats["closes"] == 0
        row = stats["digests"][digest[:16]]
        assert row["state"] == "open"
        assert row["last_reason"] == "shard dispatch"


class TestFallbackEvidence:
    """Every execution path reports plan fallbacks to the breaker."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        faults.disarm()
        yield
        faults.disarm()

    @pytest.mark.parametrize("steps", [1, 4])
    def test_failed_captures_quarantine_single_and_iterative_requests(
            self, steps, monkeypatch):
        # Every plan lookup fails: two requests fall back (and are counted),
        # the breaker opens, and the next two skip capture entirely — a
        # poisoned digest costs one table lookup, for trajectories too.
        monkeypatch.setattr(registry, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(registry, "BREAKER_COOLDOWN_S", 60.0)
        faults.arm("plan.capture_fail:p=1")
        service = StencilService(store=None)
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
