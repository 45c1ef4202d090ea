"""Cost-model-guided pruning of dominated kernel variants.

Tuning every macro-rewrite variant costs ``budget`` evaluations per variant
(plus one compile per worker process).  Many variants are hopeless from the
start — e.g. a tile size whose halo overhead dwarfs its reuse on a device
with weak local memory — and the simulator's analytical model can tell
*before* any of that is paid.

The pruner probes each variant at a few configurations drawn from the head
of its own parameter space (deterministic: the same probe points every run,
in every process count) and discards variants whose best probe cost exceeds
``margin ×`` the best probe cost seen across all variants.  The margin
absorbs the model's optimism about how far tuning can close the gap; the
best-estimated variant is never pruned, so a search over a pruned set
always has at least one candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Sequence, Tuple

from ..apps.base import StencilBenchmark
from ..rewriting.strategies import LoweredProgram, Strategy
from ..runtime.simulator.device import DeviceModel
from .worker import parameter_space_for, simulate


@dataclass(frozen=True)
class PruneDecision:
    """The pruner's verdict on one variant."""

    variant: Strategy
    estimate: float          # best probe cost (simulated seconds); inf = no valid config
    kept: bool

    def describe(self) -> str:
        verdict = "kept" if self.kept else "pruned"
        return f"{self.variant.describe()}: estimate {self.estimate:.3g}s ({verdict})"


class CostModelPruner:
    """Prune variants the simulator already deems dominated.

    ``margin`` is the tolerated estimate ratio over the best variant
    (``margin=4`` keeps everything within 4× of the front-runner's probe
    cost); ``probes`` is how many configurations are probed per variant.
    """

    def __init__(self, margin: float = 4.0, probes: int = 3) -> None:
        if margin < 1.0:
            raise ValueError("prune margin must be >= 1 (1 keeps only the front-runner)")
        self.margin = margin
        self.probes = max(1, probes)

    def estimate(
        self,
        benchmark: StencilBenchmark,
        shape: Sequence[int],
        device: DeviceModel,
        lowered: LoweredProgram,
    ) -> float:
        """Best simulated cost over the variant's first few valid configs."""
        problem = benchmark.problem(shape)
        space = parameter_space_for(lowered, problem, device)
        return min(
            (simulate(lowered, problem, device, config).runtime_s
             for config in islice(space.configurations(), self.probes)),
            default=float("inf"),
        )

    def prune(
        self,
        benchmark: StencilBenchmark,
        shape: Sequence[int],
        device: DeviceModel,
        variants: Sequence[Tuple[Strategy, LoweredProgram]],
    ) -> Tuple[List[Tuple[Strategy, LoweredProgram]], List[PruneDecision]]:
        """Split variants into survivors and decisions (in input order)."""
        estimates = [
            self.estimate(benchmark, shape, device, lowered)
            for _spec, lowered in variants
        ]
        finite = [value for value in estimates if value != float("inf")]
        threshold = self.margin * min(finite) if finite else float("inf")
        decisions: List[PruneDecision] = []
        kept: List[Tuple[Strategy, LoweredProgram]] = []
        for (spec, lowered), estimate in zip(variants, estimates):
            keep = estimate <= threshold
            decisions.append(PruneDecision(variant=spec, estimate=estimate, kept=keep))
            if keep:
                kept.append((spec, lowered))
        return kept, decisions


__all__ = ["CostModelPruner", "PruneDecision"]
