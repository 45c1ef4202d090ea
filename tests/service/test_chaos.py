"""Chaos loadgen plumbing: spec parsing, the contract check, formatting.

The end-to-end run (real signals, real respawns) lives in
``tests/service/test_supervisor.py`` and the CI ``chaos-smoke`` job; these
are the cheap process-free pieces.
"""

from __future__ import annotations

import pytest

from repro.service import check_chaos, format_chaos_loadgen, parse_chaos


def _report(**overrides):
    report = {
        "benchmark": "stencil2d", "mode": "in-process", "shards": 2,
        "requests": 100, "served": 100, "failed": 0, "lost": 0,
        "shed": 0, "rejected": 0, "high_p99_ms": 4.2, "wall_s": 6.0,
        "chaos": [{"action": "kill-shard", "t": 2.0, "shard": 0,
                   "pid": 123, "requests_at_event": 40}],
        "shard_restarts": 1, "shard_redispatches": 1,
        "shard_requests": [55, 45], "recovered": True,
    }
    report.update(overrides)
    return report


class TestParseChaos:
    def test_events_sorted_by_time_with_defaults(self):
        events = parse_chaos("hang-shard:t=4,kill-shard:t=2:shard=1")
        assert [e["action"] for e in events] == ["kill-shard", "hang-shard"]
        assert events[0]["t"] == 2.0 and events[0]["shard"] == 1
        assert events[1]["shard"] is None  # victim picked at runtime

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            parse_chaos("corrupt-shard:t=1")

    def test_unknown_qualifier_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos qualifier"):
            parse_chaos("kill-shard:when=1")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_chaos("kill-shard:t=soon")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="empty chaos spec"):
            parse_chaos(" , ")


class TestCheckChaos:
    def test_clean_report_passes(self):
        assert check_chaos(_report()) == []

    def test_failed_or_lost_requests_fail_the_gate(self):
        assert any("failed" in p for p in check_chaos(_report(failed=2)))
        assert any("lost" in p for p in check_chaos(_report(lost=1)))

    def test_missing_restarts_fail_the_gate(self):
        problems = check_chaos(_report(shard_restarts=0))
        assert any("restart" in p for p in problems)

    def test_unrecovered_fleet_fails_the_gate(self):
        problems = check_chaos(_report(recovered=False))
        assert any("recover" in p for p in problems)

    def test_high_p99_is_reported_not_gated(self):
        assert check_chaos(_report(high_p99_ms=1e6)) == []


class TestFormatChaos:
    def test_format_includes_the_healing_line(self):
        text = format_chaos_loadgen(_report())
        assert "shard_restarts=1" in text
        assert "failed=0" in text
        assert "kill-shard shard 0" in text
