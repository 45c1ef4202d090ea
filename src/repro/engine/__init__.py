"""The persistent exploration & auto-tuning engine — the one Lift search path.

One job graph for "pick a rewrite variant" and "pick a tuning
configuration".  The :class:`SearchEngine` scores configurations on the
simulator cost model inline (a score is ~10 µs of arithmetic), fans the
evaluations that compile and execute — functional validation, measured
scoring — out over a process pool, memoises every cost in a SQLite
:class:`ResultsStore` keyed by stable structural digest + configuration
(cross-run memoisation, resumable sessions), and prunes dominated variants
with the :class:`CostModelPruner` before any budget is spent on them.
``SearchEngine(store=None, workers=1)`` is the serial pipeline; there is no
other.

Entry points:

* :meth:`SearchEngine.run` — explore + tune one benchmark (what
  :func:`repro.experiments.pipeline.lift_best_result`, the figure drivers
  and the CLI verbs call);
* :meth:`SearchEngine.evaluate` — the synchronous batch call every cost
  goes through, answered in submission order;
* the CLI verbs ``repro explore`` and ``repro tune [--resume <session-id>]``.

:mod:`repro.engine.worker` defines the search space (variant set, parameter
spaces, how a configuration is scored and validated); imports point one
way, ``experiments → engine → tuning / rewriting / simulator``.
"""

from .engine import EngineError, EngineOutcome, SearchEngine, new_session_id
from .jobs import EvaluationJob, JobResult, VariantOutcome, make_jobs
from .pruner import CostModelPruner, PruneDecision
from .store import DEFAULT_STORE_PATH, ResultsStore, StoredResult
from .worker import (
    EXPLORATION_TILE_SIZES,
    VALIDATION_SHAPES,
    WORK_PER_THREAD_CHOICES,
    WORKGROUP_CHOICES,
    explore_variants_for,
    kernel_config_from,
    parameter_space_for,
    simulate,
)

__all__ = [
    "CostModelPruner",
    "DEFAULT_STORE_PATH",
    "EXPLORATION_TILE_SIZES",
    "EngineError",
    "EngineOutcome",
    "EvaluationJob",
    "JobResult",
    "PruneDecision",
    "ResultsStore",
    "SearchEngine",
    "StoredResult",
    "VALIDATION_SHAPES",
    "VariantOutcome",
    "WORKGROUP_CHOICES",
    "WORK_PER_THREAD_CHOICES",
    "explore_variants_for",
    "kernel_config_from",
    "make_jobs",
    "new_session_id",
    "parameter_space_for",
    "simulate",
]
