"""Experiment drivers regenerating the paper's tables and figures.

* :mod:`repro.experiments.table1` — the benchmark-characteristics table.
* :mod:`repro.experiments.figure7` — Lift vs. hand-written kernels (GElements/s).
* :mod:`repro.experiments.figure8` — Lift vs. PPCG speedups on small/large inputs.
* :mod:`repro.experiments.pipeline` — the shared explore → tune → simulate pipeline.
"""

from .pipeline import (
    BenchmarkOutcome,
    lift_best_result,
    ppcg_best_result,
    reference_result,
)
from .figure7 import Figure7Row, run_figure7
from .figure8 import Figure8Row, run_figure8
from .table1 import format_table1

__all__ = [
    "BenchmarkOutcome",
    "lift_best_result",
    "ppcg_best_result",
    "reference_result",
    "Figure7Row",
    "run_figure7",
    "Figure8Row",
    "run_figure8",
    "format_table1",
]
