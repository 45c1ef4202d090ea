"""The ladder benchmark: every end-to-end and per-layer number for this repo.

``python -m bench`` (from the repository root) is the single definition of
this repository's performance.  ``BENCHMARK.json`` names the command, the
four workloads and every metric with its unit, direction and bound;
:mod:`bench.spec` reads it and adds what its schema cannot hold.

* :mod:`bench.workloads` — the four closed-loop workloads and their
  reference outputs;
* :mod:`bench.ladder` — the per-layer ladder, timed from outside through
  each module's public functions;
* :mod:`bench.trace` — harness-side spans and self times;
* :mod:`bench.machine` — the machine fingerprint and bandwidth ceiling;
* :mod:`bench.procs` — server subprocess hygiene and leak checks;
* :mod:`bench.report` — printing, ``--compare`` and ``repeat``.

Nothing under ``src/`` is edited or imported at module import time here:
a workload's set-up clock starts before its first ``import repro``.
"""

from __future__ import annotations

import os
import sys
from typing import List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Everything a run leaves behind (traces, server logs, job dirs, results).
OUT_DIR = os.path.join(BENCH_DIR, "out")


def ensure_importable() -> None:
    """Put ``src/`` on ``sys.path`` so ``import repro`` works uninstalled."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """The environment for subprocesses: this one plus ``src/`` importable."""
    env = dict(os.environ)
    paths = [SRC, ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def make_inputs(app: str, shape: Sequence[int], seed: int) -> List:
    """The input grids of one op: a pure function of ``(app, shape, seed)``.

    The program under test receives only these grids — never the seed.
    """
    from repro.apps.suite import get_benchmark  # deferred: see module docstring

    return get_benchmark(app).make_inputs(tuple(shape), int(seed))
