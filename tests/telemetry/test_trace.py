"""The request-trace ring: bounding, slow retention, CLI rendering."""

from __future__ import annotations

import pytest

from repro.telemetry.trace import TraceRing, format_trace


def make_trace(total_ms: float, benchmark: str = "stencil2d") -> dict:
    return {
        "benchmark": benchmark,
        "digest": "abcdef0123456789",
        "batch_size": 4,
        "total_ms": total_ms,
        "stages": [("admit", 0.01), ("queue", 1.5), ("replay", total_ms - 2.0),
                   ("respond", 0.02)],
    }


class TestRingBounding:
    def test_capacity_evicts_oldest(self):
        ring = TraceRing(capacity=8, slow_ms=1e9)
        for i in range(20):
            ring.record(make_trace(float(i)))
        assert len(ring) == 8
        stats = ring.stats()
        assert stats["recorded"] == 20
        assert stats["retained"] == 8
        ids = [trace["id"] for trace in ring.snapshot()]
        assert ids == list(range(20, 12, -1))  # most recent first

    def test_snapshot_limit(self):
        ring = TraceRing(capacity=32, slow_ms=1e9)
        for i in range(10):
            ring.record(make_trace(float(i)))
        assert len(ring.snapshot(limit=3)) == 3
        assert len(ring.snapshot(limit=100)) == 10

    def test_snapshot_returns_copies(self):
        ring = TraceRing(capacity=4, slow_ms=1e9)
        ring.record(make_trace(1.0))
        snapshot = ring.snapshot()
        snapshot[0]["benchmark"] = "mutated"
        assert ring.snapshot()[0]["benchmark"] == "stencil2d"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceRing(capacity=0)


class TestSlowRing:
    def test_slow_traces_survive_fast_burst(self):
        ring = TraceRing(capacity=8, slow_ms=50.0, slow_capacity=4)
        slow = ring.record(make_trace(120.0))
        assert slow["slow"] is True
        for i in range(50):  # enough fast traffic to evict it from the main ring
            ring.record(make_trace(1.0))
        assert all(not t["slow"] for t in ring.snapshot())
        retained = ring.snapshot(slow_only=True)
        assert [t["id"] for t in retained] == [slow["id"]]

    def test_slow_ring_is_bounded_too(self):
        ring = TraceRing(capacity=64, slow_ms=10.0, slow_capacity=3)
        for i in range(9):
            ring.record(make_trace(100.0 + i))
        stats = ring.stats()
        assert stats["slow_recorded"] == 9
        assert stats["slow_retained"] == 3
        ids = [t["id"] for t in ring.snapshot(slow_only=True)]
        assert ids == [9, 8, 7]

    def test_threshold_is_inclusive(self):
        ring = TraceRing(capacity=8, slow_ms=50.0)
        assert ring.record(make_trace(50.0))["slow"] is True
        assert ring.record(make_trace(49.9))["slow"] is False

    def test_default_slow_capacity(self):
        assert TraceRing(capacity=256).slow_capacity == 64
        assert TraceRing(capacity=8).slow_capacity == 16  # floor


class TestFormatTrace:
    def test_stage_breakdown(self):
        ring = TraceRing(capacity=4, slow_ms=50.0)
        trace = ring.record(make_trace(120.0))
        trace["shard"] = 1
        text = format_trace(trace)
        assert text.startswith(f"#{trace['id']} stencil2d digest abcdef012345")
        assert "batch 4" in text
        assert "total 120.00 ms" in text
        assert "shard 1" in text
        assert "[slow]" in text
        for stage in ("admit", "queue", "replay", "respond"):
            assert stage in text

    def test_error_trace(self):
        trace = {"benchmark": None, "digest": None, "batch_size": 1,
                 "total_ms": 0.5, "stages": [], "error": "backend exploded",
                 "id": 9}
        text = format_trace(trace)
        assert "<raw>" in text
        assert "ERROR: backend exploded" in text
