"""Self-test of the benchmark harness (not part of the tier-1 test paths).

    python -m pytest bench -q

Runs every workload and one traced ladder walk at the ``--quick`` size
preset — the only caller allowed to use it — and checks that the harness
emits exactly what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

from bench import OUT_DIR, ROOT, child_env, procs, spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNTS = ("codegen.kernel_chars", "rewriting.variants", "backend.fuse.regions.2d",
          "backend.fuse.regions.3d", "backend.cache.misses")


def quick(workload: str, *extra: str):
    """One ``--quick`` run in a fresh process and a session of its own:
    (exit code, result, output, what is left of the session afterwards)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "bench", "--workload", workload, "--seconds", "0.6",
         "--quick", *extra],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    output, _ = process.communicate(timeout=170)
    left_behind = procs.session_members(process.pid)
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return process.returncode, result, output, left_behind


@pytest.fixture(scope="module")
def runs():
    """Every quick run the tests read, on two lanes (the box has two cores).

    The traced runs share a lane: each checks ``/dev/shm`` around its shard
    rung, and two of those at once would see each other's slabs.
    """
    traced = {"traced-a": ("sim2d-dram", "--trace", "1"),
              "traced-b": ("remote-traj-512", "--trace", "1")}
    untraced = {name: (name, "--trace", "0") for name in spec.WORKLOAD_NAMES}
    untraced["corrupt-sim3d-cache"] = ("sim3d-cache", "--corrupt-reference")
    untraced["corrupt-remote-traj-512"] = ("remote-traj-512", "--corrupt-reference")

    def lane(jobs):
        return {key: quick(*args) for key, args in jobs.items()}

    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second = pool.map(lane, (traced, untraced))
    return {**first, **second}


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_names_and_counts_within_limits(declared):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert declared["paths"] == ["bench"]


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(runs, workload):
    code, result, output, _ = runs[workload]
    assert code == 0 and result is not None, output
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(spec.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == spec.UNITS[name] and entry["value"] > 0, name


@pytest.mark.parametrize("key", ("traced-a", "traced-b"))
def test_traced_run_emits_exactly_the_per_layer_metrics(runs, key):
    code, result, output, _ = runs[key]
    assert code == 0 and result is not None and result["correct"], output
    assert set(result["metrics"]) == set(spec.PER_LAYER)
    assert "-- request lifecycle" in output and "unattributed" in output


def test_deterministic_counts_repeat_and_invariants_hold(runs):
    first, second = runs["traced-a"][1]["metrics"], runs["traced-b"][1]["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    for metrics in (first, second):
        assert metrics["backend.cache.misses"]["value"] == 1
        assert metrics["backend.pool.steady_allocations.2d"]["value"] == 0
        assert metrics["backend.pool.steady_allocations.3d"]["value"] == 0
        assert metrics["service.shards.compilations"]["value"] == 1


@pytest.mark.parametrize("workload", ("sim2d-dram", "remote-traj-512"))
def test_every_span_lies_inside_its_parent(runs, workload):
    assert runs["traced-a"][0] == 0 and runs["traced-b"][0] == 0
    with open(os.path.join(OUT_DIR, f"trace-{workload}.json"), encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    assert sorted(span["name"] for span in roots) == ["ladder", "run"]
    ops = [span for span in spans if span["name"].startswith("op.")]
    assert ops and len({span["trace"] for span in ops}) == len(ops)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


@pytest.mark.parametrize("workload", ("sim3d-cache", "remote-traj-512"))
def test_corrupted_reference_fails_the_run(runs, workload):
    code, result, output, _ = runs[f"corrupt-{workload}"]
    assert code != 0, output
    assert result is not None and not result["correct"] and result["failed"] >= 1


def test_no_run_leaves_a_process_behind(runs):
    """Not a child, not an orphan, not a zombie: passing, failing or traced."""
    assert {key: left for key, (_, _, _, left) in runs.items() if left} == {}


def test_without_the_program_the_benchmark_exits_non_zero():
    """In a directory holding only the benchmark there is nothing to measure."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=OUT_DIR) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-m", "bench", "--workload", "sim2d-dram", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
