"""Search strategies over constrained parameter spaces.

Three strategies are provided, mirroring what OpenTuner mixes internally:

* :func:`exhaustive_search` — enumerate every valid configuration (used when
  the space is small, e.g. the PPCG tile/block space);
* :func:`random_search` — uniform random sampling under an evaluation budget;
* :func:`hill_climb_search` — random-restart steepest-descent moves along
  single-parameter neighbours, with fresh restarts drawn while budget
  remains so a walk that stalls on its first plateau does not end the
  search.

Every strategy returns the full evaluation history so benchmarks can report
how good the best-found point is relative to the explored space.

Evaluation
----------

Each strategy costs configurations through one ``evaluate`` callable that
maps a list of configurations to a list of costs, called with chunks of up
to :data:`DEFAULT_BATCH_SIZE` configurations.  The search engine
(:mod:`repro.engine`) passes its job evaluator here, which fans validating
and measured points out over worker processes and answers known points from
its results store; a plain caller maps a per-configuration function over the
list.  Costs are consumed in submission order, so a search produces the same
history and the same best point whatever runs underneath.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from .parameters import Configuration, ParameterSpace

Evaluate = Callable[[Sequence[Configuration]], Sequence[float]]

#: Configurations handed to ``evaluate`` per call.
DEFAULT_BATCH_SIZE = 64


@dataclass
class Evaluation:
    """One evaluated configuration and its cost (lower is better)."""

    configuration: Configuration
    cost: float


@dataclass
class SearchOutcome:
    """The result of one search run."""

    best: Evaluation
    history: List[Evaluation] = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        return len(self.history)


def _evaluate_many(configs: Sequence[Configuration], evaluate: Evaluate,
                   history: List[Evaluation]) -> List[Evaluation]:
    """Cost several configurations; returned and recorded in submission order."""
    costs = list(evaluate(list(configs)))
    if len(costs) != len(configs):
        raise ValueError(
            f"evaluator returned {len(costs)} costs for {len(configs)} configurations"
        )
    evaluations = [
        Evaluation(configuration=dict(config), cost=float(cost))
        for config, cost in zip(configs, costs)
    ]
    history.extend(evaluations)
    return evaluations


def _chunked(iterable: Iterable[Configuration]) -> Iterable[List[Configuration]]:
    iterator = iter(iterable)
    while True:
        chunk = list(itertools.islice(iterator, DEFAULT_BATCH_SIZE))
        if not chunk:
            return
        yield chunk


def exhaustive_search(
    space: ParameterSpace,
    evaluate: Evaluate,
    budget: Optional[int] = None,
) -> SearchOutcome:
    """Evaluate every valid configuration (optionally capped at ``budget``)."""
    history: List[Evaluation] = []
    best: Optional[Evaluation] = None
    configs = space.configurations()
    if budget is not None:
        configs = itertools.islice(configs, budget)
    for chunk in _chunked(configs):
        for evaluation in _evaluate_many(chunk, evaluate, history):
            if best is None or evaluation.cost < best.cost:
                best = evaluation
    if best is None:
        raise ValueError("parameter space contains no valid configuration")
    return SearchOutcome(best=best, history=history)


def random_search(
    space: ParameterSpace,
    evaluate: Evaluate,
    budget: int,
    seed: int = 0,
) -> SearchOutcome:
    """Uniform random sampling of valid configurations."""
    rng = random.Random(seed)
    history: List[Evaluation] = []
    best: Optional[Evaluation] = None
    sample = space.sample(rng, budget)
    for chunk in _chunked(sample):
        for evaluation in _evaluate_many(chunk, evaluate, history):
            if best is None or evaluation.cost < best.cost:
                best = evaluation
    if best is None:
        # Fall back to exhaustive enumeration of a possibly tiny space.
        return exhaustive_search(space, evaluate, budget)
    return SearchOutcome(best=best, history=history)


def hill_climb_search(
    space: ParameterSpace,
    evaluate: Evaluate,
    budget: int,
    seed: int = 0,
    restarts: int = 4,
) -> SearchOutcome:
    """Random-restart steepest-descent over single-parameter neighbours.

    ``restarts`` bounds the number of independent basin walks.  Start points
    are drawn lazily: after each walk converges (or stalls on a plateau), a
    *fresh* point not yet used as a start is sampled, so a search whose
    first walk dies early still spends its remaining budget exploring other
    basins instead of returning the first local optimum.  All neighbours of
    the current point are costed together per step, which lets the
    evaluator fan a whole neighbourhood out at once.
    """
    rng = random.Random(seed)
    history: List[Evaluation] = []
    best: Optional[Evaluation] = None
    seen_starts = set()

    def next_start() -> Optional[Configuration]:
        for candidate in space.sample(rng, max(1, restarts) * 4):
            key = tuple(sorted(candidate.items()))
            if key not in seen_starts:
                seen_starts.add(key)
                return candidate
        return None

    walks = 0
    while walks < max(1, restarts) and len(history) < budget:
        start = next_start()
        if start is None:
            break
        walks += 1
        current = _evaluate_many([start], evaluate, history)[0]
        if best is None or current.cost < best.cost:
            best = current
        improved = True
        while improved and len(history) < budget:
            improved = False
            neighbours = list(space.neighbours(current.configuration))
            neighbours = neighbours[: budget - len(history)]
            for chunk in _chunked(neighbours):
                for candidate in _evaluate_many(chunk, evaluate, history):
                    if candidate.cost < current.cost:
                        current = candidate
                        improved = True
                    if best is None or candidate.cost < best.cost:
                        best = candidate

    if best is None:
        return exhaustive_search(space, evaluate, budget)
    return SearchOutcome(best=best, history=history)


__all__ = [
    "Evaluate",
    "DEFAULT_BATCH_SIZE",
    "Evaluation",
    "SearchOutcome",
    "exhaustive_search",
    "random_search",
    "hill_climb_search",
]
