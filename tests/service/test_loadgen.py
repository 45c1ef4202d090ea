"""The load generator's scenarios, targets and scenario table.

Three things only CI used to cover: the scenarios against a *remote*
target (an in-thread authenticated ``run_server``, over TCP and HTTP), the
chaos body's victim choice and recovery verdict (against a fake target
whose per-shard stats rows are scripted — no shard is forked), and the
``repro loadgen`` driver walking :data:`SCENARIOS`.
"""

from __future__ import annotations

import functools
import inspect
import json
import signal
import threading

import pytest

from repro.cli import main
from repro.service import loadgen
from repro.service.requests import ExecutionRequest, ExecutionResponse
from repro.service.server import run_server

AUTH_KEY = "loadgen-test-key"


def run_cli(argv) -> int:
    return main([str(arg) for arg in argv])


class _Server:
    """An authenticated ``run_server`` (TCP + HTTP) on a thread, bounded by
    ``max_requests`` exactly like the CI smoke jobs bound ``repro serve``."""

    def __init__(self, max_requests: int) -> None:
        self.ports = {"tcp": loadgen._free_port(),
                      "http": loadgen._free_port()}
        ready = threading.Event()
        self.thread = threading.Thread(
            target=run_server, daemon=True,
            kwargs=dict(port=self.ports["tcp"], http_port=self.ports["http"],
                        auth_key=AUTH_KEY, max_requests=max_requests,
                        ready_event=ready, batch_window=0.005, store=None),
        )
        self.thread.start()
        assert ready.wait(10)

    def connect(self, transport: str):
        return ("127.0.0.1", self.ports[transport])

    def join(self) -> None:
        """The quota was met and every client connection closed."""
        self.thread.join(timeout=15)
        assert not self.thread.is_alive()


@pytest.fixture(scope="module")
def in_process_keys():
    plain = loadgen.run_loadgen(requests=6, shape=(8, 8))
    mixed = loadgen.run_mixed_loadgen(requests=8, shape=(8, 8),
                                      mix={"high": 1, "normal": 3})
    return {"plain": set(plain), "mixed": set(mixed)}


@pytest.mark.parametrize("transport", ["tcp", "http"])
class TestRemoteScenarios:
    def test_plain_honours_auth_key_and_transport(self, transport, tmp_path,
                                                  capsys, in_process_keys):
        """The regression: plain ``--connect`` sent no ``auth`` field and
        always spoke JSON-lines TCP, so an ``--auth-key`` server refused
        the whole stream and an HTTP port could not be driven at all."""
        server = _Server(max_requests=7)  # one warm-up + the six timed
        host, port = server.connect(transport)
        out = tmp_path / "plain.json"
        assert run_cli([
            "loadgen", "stencil2d", "--requests", 6, "--shape", 8, 8,
            "--connect", f"{host}:{port}", "--transport", transport,
            "--auth-key", AUTH_KEY, "--out", out,
        ]) == 0
        server.join()
        assert f"({transport})" in capsys.readouterr().out
        report = json.loads(out.read_text(encoding="utf-8"))
        assert set(report) == in_process_keys["plain"]
        assert report["mode"] == transport
        assert report["repeats"] == 1 and report["window_ms"] is None
        assert report["requests_served"] == 7
        assert report["batches_formed"] < report["requests_served"]
        assert report["compilations"] == 1

    def test_mixed_reports_the_same_keys(self, transport, in_process_keys):
        # Two baseline + eight loaded requests, one warm-up before each.
        server = _Server(max_requests=12)
        report = loadgen.run_mixed_loadgen(
            requests=8, shape=(8, 8), mix={"high": 1, "normal": 3},
            connect=server.connect(transport), transport=transport,
            auth_key=AUTH_KEY, concurrency=4,
        )
        server.join()
        assert set(report) == in_process_keys["mixed"]
        assert report["mode"] == transport
        assert set(report["per_priority"]) == {"high", "normal"}
        for row in report["per_priority"].values():
            assert row["served"] == row["requests"] and row["errors"] == 0


def _response(**fields) -> ExecutionResponse:
    return ExecutionResponse(
        result=None, benchmark="stencil2d", digest="d", batch_size=1,
        latency_s=0.001, **fields)


class _FakeFleet:
    """A :class:`loadgen.Target` over scripted per-shard stats rows.

    ``kill`` (handed to ``_drive_chaos`` in place of ``os.kill``) marks the
    victim's row dead; ``heal`` says what a victim's row reads afterwards.
    """

    mode = "fake"

    def __init__(self, shards: int = 2, heal=None, lose_one: bool = False):
        self.rows = [{"shard": index, "pid": 100 + index, "alive": True,
                      "requests": 5, "respawns": 0}
                     for index in range(shards)]
        self.heal = heal
        self.lose_one = lose_one
        self.signals = []

    def fire(self, requests):
        rows = [_response() for _ in requests]
        if self.lose_one and len(rows) > 1:
            self.lose_one = False
            rows[1] = None
        return rows

    def stats(self):
        return {"service": {
            "shard_restarts": sum(row["respawns"] for row in self.rows),
            "shards": {"per_shard": [dict(row) for row in self.rows]},
        }}

    def close(self):
        pass

    def kill(self, pid, signum):
        self.signals.append((pid, signum))
        row = next(row for row in self.rows if row["pid"] == pid)
        row.update(alive=False, requests=0)
        if self.heal is not None:
            row.update(self.heal)

    def drive(self, spec: str):
        first = ExecutionRequest.for_benchmark("stencil2d", shape=(8, 8),
                                               return_result=False)
        return loadgen._drive_chaos(
            self, first, loadgen.parse_chaos(spec), duration_s=0.05,
            wave_size=3, wave_gap_s=0.005, recovery_timeout_s=0.05,
            kill=self.kill)


HEALED = {"alive": True, "requests": 2, "respawns": 1}


class TestChaosBody:
    def test_round_robin_victims_and_their_signals(self):
        fleet = _FakeFleet(heal=HEALED)
        outcome = fleet.drive("kill-shard:t=0,hang-shard:t=0.01")
        assert [event["shard"] for event in outcome["chaos"]] == [0, 1]
        assert fleet.signals == [(100, signal.SIGKILL), (101, signal.SIGSTOP)]
        assert outcome["chaos"][0]["requests_at_event"] == 5
        assert outcome["recovered"] is True
        assert outcome["shard_restarts"] == 2
        assert outcome["failed"] == 0 and outcome["lost"] == 0
        assert outcome["served"] == outcome["requests"] > 0

    def test_dead_shards_are_skipped_by_the_rotation(self):
        fleet = _FakeFleet(shards=3)  # nothing heals
        outcome = fleet.drive("kill-shard:t=0,kill-shard:t=0.01")
        assert [event["shard"] for event in outcome["chaos"]] == [0, 2]

    def test_explicit_shard_targeting(self):
        fleet = _FakeFleet(shards=3, heal=HEALED)
        outcome = fleet.drive("kill-shard:t=0:shard=2,kill-shard:t=0.01:shard=2")
        assert [event["shard"] for event in outcome["chaos"]] == [2, 2]
        assert [pid for pid, _ in fleet.signals] == [102, 102]

    def test_a_lost_reply_is_counted_not_raised(self):
        fleet = _FakeFleet(heal=HEALED, lose_one=True)
        outcome = fleet.drive("kill-shard:t=0")
        assert outcome["lost"] == 1
        assert outcome["served"] == outcome["requests"] - 1
        assert any("lost" in problem for problem in loadgen.check_chaos(
            {**outcome, "benchmark": "stencil2d"}))

    @pytest.mark.parametrize("heal", [
        None,                                              # stays dead
        {"alive": True, "requests": 2, "respawns": 0},     # never respawned
        {"alive": True, "requests": 0, "respawns": 1},     # back, but idle
    ])
    def test_not_recovered_until_the_victim_serves_again(self, heal):
        outcome = _FakeFleet(heal=heal).drive("kill-shard:t=0")
        assert outcome["recovered"] is False
        assert any("recover" in problem
                   for problem in loadgen.check_chaos(outcome))

    def test_unsharded_target_is_refused_up_front(self):
        fleet = _FakeFleet(shards=0)
        with pytest.raises(RuntimeError, match="per-shard stats"):
            fleet.drive("kill-shard:t=0")
        assert fleet.signals == []


#: Per scenario: the flags that select it, an ``--assert-*`` flag its run
#: below fails, and a canned report standing in for the two scenarios that
#: fork processes (chaos, job drill) — ``None`` runs the real thing.
TABLE_CASES = {
    "plain": (["--requests", 4, "--shape", 8, 8, "--repeats", 1],
              "--assert-sharded", None),
    "mixed": (["--mix", "normal:1", "--requests", 4, "--shape", 8, 8],
              "--assert-no-high-shed", None),
    "chaos": (["--chaos", "kill-shard:t=1", "--duration-s", 2],
              "--assert-chaos",
              {"benchmark": "stencil2d", "mode": "in-process", "shards": 2,
               "requests": 9, "served": 7, "failed": 2, "lost": 0, "shed": 0,
               "rejected": 0, "high_p99_ms": 1.0, "wall_s": 2.0, "chaos": [],
               "shard_restarts": 0, "shard_redispatches": 0,
               "shard_requests": [4, 3], "recovered": True}),
    "job-drill": (["--job-drill", "--steps", 16],
                  "--assert-job-drill",
                  {"benchmark": "stencil2d", "steps": 16,
                   "checkpoint_every": 8, "final_status": "failed",
                   "problems": []}),
}


@pytest.mark.parametrize("scenario", loadgen.SCENARIOS,
                         ids=lambda scenario: scenario.name)
def test_cli_drives_every_row_of_the_scenario_table(scenario, monkeypatch,
                                                    tmp_path, capsys):
    flags, assert_flag, canned = TABLE_CASES[scenario.name]
    calls = []
    if canned is not None:
        @functools.wraps(scenario.run)  # keeps the signature the flags map to
        def run(**kwargs):
            calls.append(inspect.signature(scenario.run).bind(**kwargs))
            return dict(canned)

        monkeypatch.setattr(loadgen, "SCENARIOS", tuple(
            row._replace(run=run) if row is scenario else row
            for row in loadgen.SCENARIOS))
    out = tmp_path / f"{scenario.name}.json"
    argv = ["loadgen", "stencil2d", *flags, "--out", out]

    assert run_cli(argv) == 0  # no --assert-* flag: report only
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out and "FAIL:" not in captured.err
    assert json.loads(out.read_text(encoding="utf-8"))["benchmark"] == "stencil2d"

    assert run_cli(argv + [assert_flag]) == 1
    assert "FAIL: " in capsys.readouterr().err
    if canned is not None:
        assert len(calls) == 2
        assert calls[0].arguments["benchmark"] == "stencil2d"


def test_scenario_keywords_come_from_the_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args([
        "loadgen", "heat", "--chaos", "hang-shard:t=3", "--shape", "8", "8",
        "8", "--connect", ":7463", "--transport", "http", "--auth-key", "k",
        "--recovery-timeout-s", "30",
    ])
    scenario = loadgen.select_scenario(args)
    kwargs = loadgen.scenario_kwargs(scenario, args)
    assert scenario.name == "chaos"
    assert kwargs["benchmark"] == "heat" and kwargs["shape"] == (8, 8, 8)
    assert kwargs["connect"] == ("127.0.0.1", 7463)
    assert (kwargs["transport"], kwargs["auth_key"]) == ("http", "k")
    assert kwargs["shards"] == 2 and kwargs["recovery_timeout_s"] == 30.0
    assert kwargs["chaos"][0]["action"] == "hang-shard"
    assert "requests" not in kwargs  # run_chaos_loadgen has no such keyword


DRILL_PASSED = {
    "steps": 96, "completed_steps_at_kill": 20, "final_status": "completed",
    "resumes": 1, "bit_identical": True, "refetch_identical": True,
    "problems": [], "metrics": {"repro_job_checkpoints_total": 3.0,
                                "repro_job_resumes_total": 1.0,
                                "repro_jobs_resident_results": 0.0}}


@pytest.mark.parametrize("broken, problem", [
    ({"refetch_identical": False}, "second fetch"),
    ({"metrics": {**DRILL_PASSED["metrics"],
                  "repro_jobs_resident_results": 1.0}},
     "repro_jobs_resident_results = 1.0"),
    ({"metrics": {**DRILL_PASSED["metrics"],
                  "repro_jobs_resident_results": None}},
     "repro_jobs_resident_results = None"),
])
def test_the_job_drill_requires_the_served_result_to_leave_memory(
        broken, problem):
    assert loadgen.check_job_drill(DRILL_PASSED) == []
    (found,) = loadgen.check_job_drill({**DRILL_PASSED, **broken})
    assert problem in found
