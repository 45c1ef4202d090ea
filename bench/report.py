"""The suite, ``--compare`` and ``repeat``: many workload runs, one report.

Each workload runs in a fresh ``python -m bench --workload ...`` process so
caches, thread pools and RSS never leak from one workload into the next.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List, Sequence, Tuple

from . import OUT_DIR, procs, spec
from .machine import fingerprint


def run_suite(names: Sequence[str], seed: int, seconds: float, trace: bool,
              quick: bool) -> Dict[str, Any]:
    """Run each workload untraced (and traced, with ``trace``) in its own process.

    The ladder does not depend on the workload, so a traced suite walks it
    once, in a process of its own, and every traced run reports from that.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    suite: Dict[str, Any] = {"fingerprint": fingerprint(), "seed": seed,
                             "seconds": seconds, "workloads": {}, "traced": {}}
    size = ["--quick"] if quick else []
    ladder_path = os.path.join(OUT_DIR, "ladder.json")
    ladder_code = 0
    if trace:
        ladder_code = procs.run_python(["-m", "bench", "--walk-ladder", ladder_path] + size,
                                       timeout_s=900, capture=False).returncode
    for name in names:
        for traced in ((False, True) if trace else (False,)):
            path = os.path.join(OUT_DIR, f"result-{name}{'-traced' if traced else ''}.json")
            argv = ["-m", "bench", "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(int(traced)), "--json", path]
            done = procs.run_python(argv + size + (["--ladder", ladder_path] if traced else []),
                                    timeout_s=900, capture=False)
            try:
                with open(path, encoding="utf-8") as handle:
                    detail = json.load(handle)
            except (OSError, ValueError):
                detail = {"correct": False, "metrics": {},
                          "problems": [f"run exited {done.returncode} without a result"]}
            detail["exit_code"] = done.returncode
            suite["traced" if traced else "workloads"][name] = detail
    suite["correct"] = ladder_code == 0 and all(
        detail.get("correct") and detail["exit_code"] == 0
        for group in ("workloads", "traced") for detail in suite[group].values())
    return suite


def summary(suite: Dict[str, Any]) -> str:
    lines = ["", "end-to-end (untraced; value and sample count per workload)"]
    for name, detail in suite["workloads"].items():
        cells = "  ".join(
            f"{metric}={entry['value']:.6g} {entry['unit']} (n={detail['samples'][metric]})"
            for metric, entry in detail["metrics"].items())
        lines.append(f"  {name:<18} {'ok ' if detail.get('correct') else 'BAD'} {cells}")
    for name, detail in suite["traced"].items():
        share = detail["metrics"].get("bench.trace_overhead_share", {}).get("value")
        if share is not None:
            lines.append(f"  bench.trace_overhead_share.{name} = {share:.4f}")
    return "\n".join(lines)


def worsening(metric: str, base: float, value: float) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (value - base) / base
    return change if spec.BETTER[metric] == "lower" else -change


def compare(suite: Dict[str, Any], old: Dict[str, Any]) -> Tuple[str, int]:
    """Rows of new vs old per workload and metric; gate on the bounds.

    Returns exit code 3 — compared, not gated — when the two results come
    from machines with different fingerprints.
    """
    lines = ["", "compare (ratio = new / old, base is the old value)"]
    regressions: List[str] = []
    for name, detail in suite["workloads"].items():
        before = old.get("workloads", {}).get(name, {}).get("metrics", {})
        for metric, entry in detail["metrics"].items():
            if metric not in before:
                continue
            base, value = before[metric]["value"], entry["value"]
            worse = worsening(metric, base, value)
            flag = "REGRESSION" if worse > spec.BOUNDS[metric] else ""
            lines.append(f"  {name:<18} {metric:<16} {value:12.6g} / {base:12.6g} "
                         f"= {value / base if base else float('nan'):6.3f}x  "
                         f"worse by {worse:+7.2%} (bound {spec.BOUNDS[metric]:.0%}) {flag}")
            if flag:
                regressions.append(f"{name}.{metric}")
    if old.get("fingerprint") != suite["fingerprint"]:
        lines.append("  NOT GATED: the two results carry different machine fingerprints")
        lines.append(f"    old: {json.dumps(old.get('fingerprint'), sort_keys=True)}")
        lines.append(f"    new: {json.dumps(suite['fingerprint'], sort_keys=True)}")
        return "\n".join(lines), 3
    if regressions:
        lines.append(f"  regressions beyond bound: {', '.join(regressions)}")
    return "\n".join(lines), 1 if regressions else 0


#: Untraced suites per set of ``repeat``; a set's value is their median.
RUNS_PER_SET = 3


def repeat(names: Sequence[str], seed: int, seconds: float, sets: int, quick: bool) -> int:
    """Run ``sets`` sets of untraced suites; fail when two sets disagree.

    A set's value of a metric is its median over the set's runs (seeds
    ``seed`` .. ``seed + RUNS_PER_SET - 1``, the same in every set).  For
    every workload and end-to-end metric the largest relative gap between
    any two sets must stay within the metric's bound.
    """
    runs = RUNS_PER_SET
    suites = [[run_suite(names, seed + run, seconds, trace=False, quick=quick)
               for run in range(runs)] for _ in range(sets)]
    print(f"\nrepeat: {sets} sets of {runs} runs (medians), seeds {seed}..{seed + runs - 1}, "
          f"{seconds:g} s windows")
    failed = not all(suite["correct"] for group in suites for suite in group)
    for name in names:
        for metric in spec.BOUNDS:
            try:
                values = [statistics.median(suite["workloads"][name]["metrics"][metric]["value"]
                                            for suite in group) for group in suites]
            except KeyError:
                print(f"  {name:<18} {metric:<16} missing")
                failed = True
                continue
            gap = (max(values) - min(values)) / min(values) if min(values) else 0.0
            over = gap > spec.BOUNDS[metric]
            failed = failed or over
            shown = "  ".join(f"{value:.6g}" for value in values)
            print(f"  {name:<18} {metric:<16} {shown:<32} gap {gap:7.2%}  "
                  f"bound {spec.BOUNDS[metric]:.0%} {'EXCEEDED' if over else ''}")
    return 1 if failed else 0
