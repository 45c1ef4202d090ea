"""One workload, one process: set up, verify, measure, report.

This is the primitive everything else composes: the driver contract
(``--workload NAME --seed N --seconds S --trace 0|1``), the suite, and
``repeat`` all run it in a fresh process per workload.  The last line it
prints is the contract's JSON object.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import OUT_DIR, percentile, procs, spec
from .machine import fingerprint
from .trace import Tracer, attribution


#: Untraced and traced slices of a traced run's window, taking turns.
TRACE_SLICES = 6


def set_up(name: str, seed: int, sizes: spec.Sizes, tracer: Tracer) -> Tuple[Any, float]:
    """Create and set up a workload; returns it with its set-up seconds.

    The clock starts before ``bench.workloads`` — and so ``repro`` and
    NumPy — is first imported: a fresh process pays those imports too.
    """
    started = time.perf_counter()
    from . import workloads

    workload = workloads.create(name, sizes, tracer)
    try:
        workload.set_up(seed)
    except BaseException:
        workload.tear_down()
        raise
    return workload, time.perf_counter() - started


def setup_only(name: str, seed: int, sizes: spec.Sizes) -> int:
    """A cold set-up sample: set up, tear down, print the seconds."""
    workload, seconds = set_up(name, seed, sizes, Tracer(False))
    workload.tear_down()
    print(json.dumps({"setup_s": seconds}))
    return 0


def _child_setups(name: str, seed: int, sizes: spec.Sizes) -> List[float]:
    samples = []
    for _ in range(sizes.setup_samples - 1):
        argv = ["-m", "bench", "--workload", name, "--seed", str(seed), "--setup-only"]
        done = procs.run_python(argv + (["--quick"] if sizes is spec.QUICK else []))
        if done.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{done.stdout}\n{done.stderr}")
        samples.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def measure(workload: Any, seconds: float, recorder: Any, index: int = 0) -> int:
    """Run the closed loop for ``seconds`` into ``recorder``, numbering ops
    from ``index``; returns the next free number."""
    workload.recorder = recorder
    tracer = workload.tracer
    now = time.perf_counter()
    deadline = now + seconds
    while now < deadline:
        with tracer.span(workload.op_name, trace=index):
            workload.run_op(index)
        index += 1
        before, now = now, time.perf_counter()
        recorder.cycles.append(now - before)
    return index


def mcells_per_s(recorder: Any) -> float:
    """Verified cell updates of a typical loop turn over its median time.

    A turn is one op (one execute/iterate/job cycle for the remote workload)
    plus its verification: what a closed-loop caller sustains.  The median,
    not window total over window length: on the recording box single stalls
    (an fsync, a descheduled vCPU) moved the window mean by twice as much
    between runs as they moved the median.
    """
    if not recorder.cycles:
        return 0.0
    return recorder.cells / len(recorder.cycles) / statistics.median(recorder.cycles) / 1e6


def _op_rows(recorder: Any, primary: str) -> List[str]:
    """One row per op class; ``*`` marks the one behind ``latency_p50_ms``."""
    rows = []
    for op_class, latencies in recorder.latencies.items():
        attempted, failed = recorder.attempted[op_class], recorder.failed[op_class]
        label = op_class + ("*" if op_class == primary else "")
        row = (f"  op {label:<11} attempted {attempted:>6}  succeeded {attempted - failed:>6}  "
               f"failed {failed:>3}  p50 {statistics.median(latencies) * 1e3:9.3f} ms "
               f"(n={len(latencies)})")
        if len(latencies) >= spec.P95_MIN_SAMPLES:
            row += f"  p95 {percentile(latencies, 0.95) * 1e3:.3f} ms"
        if len(latencies) >= 1000:
            row += f"  p99 {percentile(latencies, 0.99) * 1e3:.3f} ms (not gated)"
        rows.append(row)
    return rows


class Metrics:
    """The numbers of one run: value, unit and sample count by metric name."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, Any]] = {}
        self.samples: Dict[str, int] = {}

    def put(self, metric: str, value: float, n: int) -> None:
        self.values[metric] = {"value": value, "unit": spec.UNITS[metric]}
        self.samples[metric] = n

    def rows(self, names: Sequence[str]) -> List[str]:
        return [f"  {metric:<44} {self.values[metric]['value']:>16.6g} "
                f"{self.values[metric]['unit']:<8} {f'(n={self.samples[metric]})':<11} "
                f"{spec.note(metric)}" for metric in sorted(names)]


def end_to_end(metrics: Metrics, name: str, seed: int, sizes: spec.Sizes, own_setup: float,
               recorder: Any, primary: str, rss_mb: float) -> None:
    """The untraced run's metrics; takes the remaining cold set-up samples."""
    # The fastest, not the median.  On this kind of virtual machine the first
    # touch of pages the host does not back yet stalls in the hypervisor: the
    # same Hotspot2D set-up reads 0.7-0.9 s or 1.5-3 s, and which of the five
    # samples stall changes from one quarter of an hour to the next, so their
    # median read 0.9 s in two rounds of ten runs and 1.6 s in the six runs
    # after them.  The stalls only ever add time: the minimum is the
    # program's own cost, and it read 0.65-0.96 s throughout.
    setups = [own_setup] + _child_setups(name, seed, sizes)
    print(f"  set-up samples: {'  '.join(f'{sample:.3f}' for sample in setups)} s")
    metrics.put("setup_s", min(setups), len(setups))
    metrics.put("mcells_per_s", mcells_per_s(recorder), len(recorder.cycles))

    def median_ms(op_class: str) -> Tuple[float, int]:
        """The primary op stands in for a class the workload does not run:
        every workload reports every end-to-end metric."""
        samples = recorder.latencies.get(op_class) or recorder.latencies.get(primary, [])
        return (statistics.median(samples) * 1e3 if samples else 0.0), len(samples)

    metrics.put("latency_p50_ms", *median_ms(primary))
    metrics.put("iterate_p50_ms", *median_ms("iterate"))
    metrics.put("job_p50_ms", *median_ms("job"))
    metrics.put("peak_rss_mb", rss_mb, 1)


def walk_ladder(sizes: spec.Sizes, tracer: Tracer) -> Any:
    from .ladder import Ladder

    ladder = Ladder(sizes)
    enabled, tracer.enabled = tracer.enabled, True
    with tracer.span("ladder"):
        ladder.walk(tracer)
    tracer.enabled = enabled
    return ladder


def ladder_only(quick: bool, path: str) -> int:
    """The suite's one ladder walk: print it and write it to ``path`` for
    the traced workload runs to report from."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer(False)
    ladder = walk_ladder(spec.QUICK if quick else spec.FULL, tracer)
    metrics = Metrics()
    for metric, (value, n) in ladder.results.items():
        metrics.put(metric, value, n)
    print(ladder.table())
    for row in metrics.rows(metrics.values):
        print(row)
    problems = ladder.problems + procs.leaked_children()
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    tracer.write(os.path.join(OUT_DIR, "trace-ladder.json"), {"workload": None})
    ladder.save(path)
    return 1 if problems else 0


def per_layer(metrics: Metrics, name: str, seed: int, sizes: spec.Sizes, tracer: Tracer,
              op_name: str, untraced: Any, recorder: Any, elapsed: float,
              primary: List[float], ladder_path: Optional[str]) -> List[str]:
    """The traced run's metrics: where op time went, the span file, and the
    ladder -- walked here, or read from ``ladder_path`` when the suite walked
    it once for all its workloads.  Returns the problems the ladder found."""
    from .ladder import Ladder

    where = attribution(tracer.spans, op_name)
    ops, op_seconds = len(primary), where["op_seconds"]
    untraced_mcells = mcells_per_s(untraced)
    metrics.put("bench.trace_overhead_share",
                1.0 - mcells_per_s(recorder) / untraced_mcells if untraced_mcells else 0.0, ops)
    metrics.put("bench.generator_lag_ms", (elapsed - recorder.busy_s) / max(1, ops) * 1e3, ops)
    metrics.put("bench.traced.op_p50_ms", statistics.median(primary) * 1e3 if primary else 0.0,
                ops)
    metrics.put("bench.traced.unattributed_share",
                where["unattributed"] / op_seconds if op_seconds else 0.0, ops)
    print(f"  traced op time {op_seconds:.3f} s over {ops} ops; self time by layer:")
    shares = sorted(where["layers"].items(), key=lambda item: -item[1])
    for layer, own in shares + [("unattributed", where["unattributed"])]:
        print(f"    {layer:<32} {own:9.3f} s  {own / op_seconds if op_seconds else 0.0:6.1%}")
    shown = list(metrics.values)
    if ladder_path:
        ladder = Ladder.load(sizes, ladder_path)
        print(f"  ladder: walked once for the suite, printed above and kept in "
              f"{os.path.relpath(ladder_path)}")
    else:
        ladder = walk_ladder(sizes, tracer)
        print(ladder.table())
        shown += list(ladder.results)
    for metric, (value, n) in ladder.results.items():
        metrics.put(metric, value, n)
    for row in metrics.rows(shown):
        print(row)
    trace_path = os.path.join(OUT_DIR, f"trace-{name}.json")
    tracer.write(trace_path, {"workload": name, "seed": seed, "op": op_name})
    print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(trace_path)}")
    return ladder.problems


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool,
        json_path: Optional[str], corrupt_reference: bool,
        ladder_path: Optional[str] = None) -> int:
    """Run one workload and print its result; non-zero on any failure."""
    sizes = spec.QUICK if quick else spec.FULL
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer(False)
    workload, own_setup = set_up(name, seed, sizes, tracer)
    from .workloads import Recorder  # after set_up, whose clock covers the import

    recorder, untraced = Recorder(), Recorder()
    problems: List[str] = []
    try:
        problems += workload.oracle_check()
        workload.prepare(seed)
        if corrupt_reference:
            workload.corrupt_reference()
        if trace:
            # Two thirds of the window, in slices that take turns untraced and
            # traced: the gap between the two throughputs is what the spans
            # cost, and the machine's slow drift hits both alike.
            tracer.enabled = True
            with tracer.span("run"):
                index = 0
                for turn in range(TRACE_SLICES):
                    tracer.enabled = bool(turn % 2)
                    index = measure(workload, seconds * 2 / 3 / TRACE_SLICES,
                                    recorder if tracer.enabled else untraced, index)
            tracer.enabled = False
        else:
            measure(workload, seconds, recorder)
        rss_mb = workload.peak_rss_mb()
    finally:
        workload.tear_down()

    elapsed = sum(recorder.cycles)
    attempted = sum(recorder.attempted.values())
    failed = sum(recorder.failed.values())
    primary = recorder.latencies.get(workload.primary, [])
    print(f"workload {name}  seed {seed}  window {elapsed:.2f} s  "
          f"{'traced' if trace else 'untraced'}{'  QUICK (numbers mean nothing)' if quick else ''}")
    for row in _op_rows(recorder, workload.primary):
        print(row)
    print(f"  failed_share {failed / max(1, attempted):.6f}  ({failed} of {attempted} ops)")
    if recorder.first_error:
        problems.append(f"{name}: first failed op: {recorder.first_error}")

    metrics = Metrics()
    if trace:
        problems += per_layer(metrics, name, seed, sizes, tracer, workload.op_name,
                              untraced, recorder, elapsed, primary, ladder_path)
    else:
        end_to_end(metrics, name, seed, sizes, own_setup, recorder, workload.primary, rss_mb)
        for row in metrics.rows(metrics.values):
            print(row)
        if workload.held_mb:
            print(f"  (peak_rss_mb includes {workload.held_mb:.1f} MB of inputs and "
                  f"references the harness holds)")
    problems += procs.leaked_children()
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    correct = not problems and failed == 0 and attempted > 0
    result = {"correct": correct, "attempted": max(1, attempted), "failed": failed,
              "metrics": metrics.values}
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump({**result, "workload": name, "seed": seed, "traced": trace,
                       "samples": metrics.samples, "problems": problems,
                       "ops": {op: {"attempted": recorder.attempted[op],
                                    "failed": recorder.failed[op]}
                               for op in recorder.attempted},
                       "fingerprint": fingerprint()}, handle, indent=1)
            handle.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1
