"""The ATF-style auto-tuner front end.

:class:`AutoTuner` ties a constrained :class:`ParameterSpace` to an evaluator
(here: simulated kernel time on a virtual device, for a list of
configurations at a time) and runs one of the search strategies under an
evaluation budget.  Both the Lift variants and the
PPCG baseline are tuned through this same interface, mirroring the paper's
setup where both compilers get the same three-hour ATF/OpenTuner budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .parameters import Configuration, ParameterSpace
from .search import (
    Evaluate,
    Evaluation,
    exhaustive_search,
    hill_climb_search,
    random_search,
)


@dataclass
class TuningResult:
    """Best configuration found plus the search history."""

    best_configuration: Configuration
    best_cost: float
    evaluations: int
    history: List[Evaluation]

    def describe(self) -> str:
        return (
            f"best cost {self.best_cost:.6g} after {self.evaluations} evaluations: "
            f"{self.best_configuration}"
        )


class AutoTuner:
    """Search a constrained parameter space for the lowest-cost configuration.

    ``evaluate`` costs a list of configurations at once (see
    :mod:`repro.tuning.search`).  The search engine passes its job
    evaluator here, which is how an unchanged :class:`AutoTuner` runs on a
    process pool with a persistent results store underneath.  ``restarts``
    bounds the number of hill-climbing basin walks.

    The tuner only searches.  Functional validation of the variant being
    tuned and measured (wall-clock) scoring are the engine's job
    (:mod:`repro.engine.worker`).
    """

    STRATEGIES = ("exhaustive", "random", "hillclimb")

    def __init__(
        self,
        space: ParameterSpace,
        evaluate: Evaluate,
        budget: int = 200,
        strategy: str = "exhaustive",
        seed: int = 0,
        restarts: int = 4,
    ) -> None:
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown search strategy {strategy!r}")
        self.space = space
        self.evaluate = evaluate
        self.budget = budget
        self.strategy = strategy
        self.seed = seed
        self.restarts = restarts

    def tune(self) -> TuningResult:
        if self.strategy == "exhaustive":
            outcome = exhaustive_search(self.space, self.evaluate, self.budget)
        elif self.strategy == "random":
            outcome = random_search(self.space, self.evaluate, self.budget,
                                    self.seed)
        else:
            outcome = hill_climb_search(self.space, self.evaluate, self.budget,
                                        self.seed, restarts=self.restarts)
        return TuningResult(
            best_configuration=outcome.best.configuration,
            best_cost=outcome.best.cost,
            evaluations=outcome.evaluations,
            history=outcome.history,
        )


__all__ = ["AutoTuner", "TuningResult"]
