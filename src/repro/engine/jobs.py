"""Serializable job specs: the unit of work the search engine schedules.

The engine treats "pick a rewrite variant" and "pick a tuning configuration"
as one job graph; a leaf of that graph is an :class:`EvaluationJob` — one
(benchmark, shape, device, strategy, configuration) point.  Jobs are plain
frozen dataclasses over primitives so they pickle cheaply across process
boundaries; worker processes *reconstruct* the Lift program, lower it with
the strategy, and compile it locally (compiled kernels themselves are never
shipped — see :mod:`repro.backend.cache`).

Every job has a :meth:`~EvaluationJob.fingerprint`: a stable digest of the
structural expression hash plus the configuration, which keys the persistent
:class:`~repro.engine.store.ResultsStore` for cross-run memoisation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..rewriting.strategies import Strategy

#: Ordered (name, value) pairs — the canonical, hashable configuration form.
ConfigItems = Tuple[Tuple[str, object], ...]


def config_items(config: Dict[str, object]) -> ConfigItems:
    """Canonicalise a configuration dict into sorted, hashable items."""
    return tuple(sorted(config.items()))


@dataclass(frozen=True)
class EvaluationJob:
    """One candidate evaluation: a variant + configuration on one device.

    ``expr_digest`` is the stable structural digest of the *lowered*
    program (computed once per variant by the driver); together with the
    configuration it forms the results-store key, so two jobs that lower to
    the same expression and tune the same point share one stored result
    even across benchmarks, sessions and runs.
    """

    benchmark: str
    shape: Tuple[int, ...]
    device: str
    variant: Strategy
    config: ConfigItems
    expr_digest: str = ""
    validate: bool = False
    validate_backend: str = "numpy"  # "numpy" or "crosscheck" (interpreter oracle)
    measure_runs: int = 0            # > 0: score by executing the compiled kernel
    measure_size: int = 0            # target grid extent for measured scoring

    @property
    def config_dict(self) -> Dict[str, object]:
        return dict(self.config)

    def fingerprint(self) -> str:
        """Stable digest identifying this evaluation across runs."""
        payload = {
            "benchmark": self.benchmark,
            "shape": list(self.shape),
            "device": self.device,
            "variant": self.variant.to_spec(),
            "config": [[name, value] for name, value in self.config],
            "expr": self.expr_digest,
        }
        if self.measure_runs > 0:
            # Measured costs are a different quantity than simulated ones;
            # the two must never share a memo entry.
            payload["measure"] = [self.measure_runs, self.measure_size]
        if self.validate:
            # A validating job must not be answered by a cost produced
            # without validation — keying the validation requirements means
            # a stored hit on a validate job really was validated when its
            # cost was produced.  Non-validating jobs still share entries
            # across runs regardless of the validation settings.  The 0 is
            # the validation-grid extent earlier jobs carried; it stays so
            # stores written then keep answering ``--resume`` with zero
            # re-evaluations.
            payload["validated"] = [self.validate_backend, 0]
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        config = ", ".join(f"{name}={value}" for name, value in self.config)
        return f"{self.benchmark}[{self.variant.describe()}]({config}) on {self.device}"


@dataclass(frozen=True)
class JobResult:
    """The outcome of evaluating one job (or recalling it from the store)."""

    cost: float                      # simulated kernel runtime in seconds
    from_store: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class VariantOutcome:
    """Best point found for one variant plus its evaluation bookkeeping."""

    variant: Strategy
    best_config: Dict[str, object] = field(default_factory=dict)
    best_cost: float = float("inf")
    evaluations: int = 0

    def describe(self) -> str:
        return (
            f"{self.variant.describe()}: cost {self.best_cost:.6g} "
            f"after {self.evaluations} evaluations ({self.best_config})"
        )


def make_jobs(
    benchmark: str,
    shape: Sequence[int],
    device: str,
    variant: Strategy,
    configs: Sequence[Dict[str, object]],
    expr_digest: str = "",
    validate: bool = False,
    validate_backend: str = "numpy",
    measure_runs: int = 0,
    measure_size: int = 0,
) -> Tuple[EvaluationJob, ...]:
    """Build the evaluation jobs for one variant over many configurations."""
    shape = tuple(int(extent) for extent in shape)
    return tuple(
        EvaluationJob(
            benchmark=benchmark,
            shape=shape,
            device=device,
            variant=variant,
            config=config_items(config),
            expr_digest=expr_digest,
            validate=validate,
            validate_backend=validate_backend,
            measure_runs=measure_runs,
            measure_size=measure_size,
        )
        for config in configs
    )


__all__ = [
    "ConfigItems",
    "config_items",
    "EvaluationJob",
    "JobResult",
    "VariantOutcome",
    "make_jobs",
]
