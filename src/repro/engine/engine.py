"""The search engine: the one driver of explore → tune.

:class:`SearchEngine` treats macro-rewrite exploration and parameter
tuning as one job graph, and :meth:`SearchEngine.run` is the only place a
Lift variant set is explored and tuned — the experiment pipeline, the
figure drivers and the ``explore`` / ``tune`` verbs all call it:

* a simulator score is ~10 µs of arithmetic and is always evaluated inline
  in the driver; jobs that compile and execute (validation, measured
  scoring) fan out over a ``concurrent.futures`` ``ProcessPoolExecutor``
  when ``workers > 1`` — ``SearchEngine(store=None, workers=1)`` *is* the
  serial pipeline;
* with a store, every cost is memoised in a SQLite
  :class:`~repro.engine.store.ResultsStore` keyed by the stable structural
  digest + configuration, so repeated and resumed sessions skip
  already-evaluated points;
* a :class:`~repro.engine.pruner.CostModelPruner` (optional) cuts dominated
  variants before any evaluation budget is spent on them;
* :meth:`SearchEngine.evaluate` is the one evaluation path: a synchronous
  batch call that answers in submission order.

Determinism: batches preserve submission order, searches consume costs in
that order, and ties are broken by first occurrence — so a fixed seed
produces the same best point at any worker count.
"""

from __future__ import annotations

import time
import uuid
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..apps.base import StencilBenchmark
from ..apps.suite import get_benchmark
from ..core.ir import structural_digest
from ..runtime.simulator.device import DEVICES, DeviceModel
from ..tuning.tuner import AutoTuner, TuningResult
from .jobs import EvaluationJob, JobResult, VariantOutcome, make_jobs
from .pruner import CostModelPruner, PruneDecision
from .store import ResultsStore
from .worker import (
    evaluate_job,
    explore_variants_for,
    measurement_shape,
    parameter_space_for,
)


class EngineError(RuntimeError):
    """A job failed inside the engine (the in-band error, re-raised)."""


def _device_key(device: Union[str, DeviceModel]) -> str:
    if isinstance(device, DeviceModel):
        for key, model in DEVICES.items():
            if model is device or model == device:
                return key
        raise ValueError(f"device model {device.name!r} is not registered in DEVICES")
    if device not in DEVICES:
        raise ValueError(f"unknown device {device!r}; known: {sorted(DEVICES)}")
    return device


@dataclass
class EngineOutcome:
    """The result of one engine search over a benchmark's variants."""

    benchmark: str
    device: str
    shape: Tuple[int, ...]
    session: str
    best: VariantOutcome
    per_variant: List[VariantOutcome] = field(default_factory=list)
    pruned: List[PruneDecision] = field(default_factory=list)
    evaluations: int = 0             # cost lookups, including store recalls
    fresh_evaluations: int = 0       # points actually evaluated this run
    store_hits: int = 0              # points recalled from the results store
    output_elements: int = 0         # elements of the grid best_cost refers to
    scorer: str = "simulator"
    wall_s: float = 0.0

    @property
    def gelements_per_second(self) -> float:
        """Throughput over the grid the winning cost was computed on.

        In simulator mode that is the benchmark's input shape; in measured
        mode it is the (smaller) measurement grid the workers actually
        timed, so the ratio stays honest.
        """
        return self.output_elements / self.best.best_cost / 1e9

    def describe(self) -> str:
        pruned = sum(1 for decision in self.pruned if not decision.kept)
        return (
            f"{self.benchmark} on {self.device}: best {self.best.describe()}; "
            f"{self.evaluations} evaluations ({self.store_hits} from store, "
            f"{self.fresh_evaluations} fresh), {pruned} variants pruned, "
            f"{self.wall_s:.2f}s wall"
        )


class SearchEngine:
    """Explore and tune variants; the one driver of the Lift search.

    Parameters
    ----------
    store:
        A :class:`ResultsStore` (or a path for one).  ``None`` disables
        persistence — every point is evaluated fresh, and no fingerprint
        or expression digest is ever computed.
    workers:
        Worker process count for jobs worth shipping — validating and
        measured ones.  Simulator scores always run inline in the driver,
        and ``1`` runs everything inline.
    pruner:
        An optional :class:`CostModelPruner` applied before tuning.
    validate:
        Functionally check every variant before it is tuned (once per
        variant per process, see :func:`repro.engine.worker._validate_variant`):
        the lowered variant against the high-level program, and its
        execution plan against the generic compiled path bit for bit.
        ``True`` (or ``"numpy"``) runs the first check through the compiled
        NumPy backend; ``"crosscheck"`` additionally verifies every
        execution against the reference interpreter oracle.
    scorer:
        ``"simulator"`` (default) scores configurations with the analytical
        device model — deterministic, so any worker count yields the same
        best point.  ``"measured"`` has the workers *execute* the compiled
        kernel (best of ``measure_runs`` timings on a grid of roughly
        ``measure_size`` per dimension) — the empirical mode, where
        fan-out parallelism pays off on real wall-clock.
    """

    SCORERS = ("simulator", "measured")

    def __init__(
        self,
        store: Union[ResultsStore, str, None] = None,
        workers: int = 1,
        pruner: Optional[CostModelPruner] = None,
        validate: Union[bool, str] = False,
        seed: int = 0,
        scorer: str = "simulator",
        measure_runs: int = 3,
        measure_size: int = 256,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if scorer not in self.SCORERS:
            raise ValueError(f"unknown scorer {scorer!r}; known: {self.SCORERS}")
        self._owns_store = isinstance(store, str)
        self.store = ResultsStore(store) if isinstance(store, str) else store
        self.workers = workers
        self.pruner = pruner
        self.validate = bool(validate)
        self.validate_backend = validate if isinstance(validate, str) else "numpy"
        self.seed = seed
        self.scorer = scorer
        self.measure_runs = measure_runs
        self.measure_size = measure_size
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def _measure_args(self) -> Dict[str, int]:
        if self.scorer != "measured":
            return {"measure_runs": 0, "measure_size": 0}
        return {"measure_runs": self.measure_runs, "measure_size": self.measure_size}

    # -- lifecycle -----------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._owns_store and self.store is not None:
            self.store.close()

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, jobs: Sequence[EvaluationJob],
                 session: Optional[str] = None) -> List[JobResult]:
        """Evaluate a batch of jobs; results come back in submission order.

        Store lookups happen up front: already-known points resolve without
        being evaluated and duplicates within the batch are evaluated once.
        The memo key is the job's persisted fingerprint when there is a
        store to read it (derived here, once per job) and the hashable job
        itself otherwise.  A job that neither validates nor measures is
        ~10 µs of arithmetic — less than its pickle — so it is scored
        inline at any worker count; only jobs that compile and execute are
        dispatched to the worker processes.  Fresh results are stored in
        one ``put_many``, then a failed job raises :class:`EngineError`.
        """
        jobs = list(jobs)
        if self.store is not None:
            keys = [job.fingerprint() for job in jobs]
            stored = self.store.get_many(keys)
        else:
            keys, stored = jobs, {}
        results: Dict[object, JobResult] = {}
        futures: Dict[object, Future] = {}
        fresh: Dict[object, EvaluationJob] = {}  # evaluated here, once per key
        for job, key in zip(jobs, keys):
            if key in results or key in futures:
                continue
            if key in stored:
                results[key] = JobResult(cost=stored[key].cost, from_store=True)
                continue
            fresh[key] = job
            if self.workers > 1 and (job.validate or job.measure_runs > 0):
                futures[key] = self._ensure_pool().submit(evaluate_job, job)
            else:
                results[key] = evaluate_job(job)
        for key, future in futures.items():
            results[key] = future.result()
        if self.store is not None:
            rows = [(job, results[key].cost, key)
                    for key, job in fresh.items() if results[key].ok]
            if rows:
                self.store.put_many(rows, session=session)
        ordered = [results[key] for key in keys]
        for job, result in zip(jobs, ordered):
            if not result.ok:
                raise EngineError(f"{job.describe()}: {result.error}")
        return ordered

    # -- searches --------------------------------------------------------------
    def run(
        self,
        benchmark: Union[str, StencilBenchmark],
        shape: Optional[Sequence[int]] = None,
        device: Union[str, DeviceModel] = "nvidia",
        budget: int = 200,
        strategy: str = "exhaustive",
        restarts: int = 4,
        session: Optional[str] = None,
    ) -> EngineOutcome:
        """Explore → prune → validate → tune → reduce, for one benchmark.

        Pruning and validation follow the engine's ``pruner`` and
        ``validate``.  The best point is selected by (cost, submission
        order), which makes the outcome independent of the worker count.
        """
        if isinstance(benchmark, str):
            benchmark = get_benchmark(benchmark)
        device_key = _device_key(device)
        shape = tuple(shape or benchmark.default_shape)
        session = session or new_session_id()
        if self.store is not None:
            self.store.save_session(
                session,
                {
                    "benchmark": benchmark.name,
                    "device": device_key,
                    "shape": list(shape),
                    "budget": budget,
                    "strategy": strategy,
                    "restarts": restarts,
                    "seed": self.seed,
                    "validate": self.validate,
                    "validate_backend": self.validate_backend,
                    "scorer": self.scorer,
                    "measure_runs": self.measure_runs,
                    "measure_size": self.measure_size,
                    # None = no pruning; a number = CostModelPruner margin.
                    # Resume must re-derive the same job set, so the pruner
                    # configuration is part of the session's identity.
                    "prune_margin": (
                        None if self.pruner is None else self.pruner.margin
                    ),
                },
            )
        started = time.monotonic()
        device_model = DEVICES[device_key]
        problem = benchmark.problem(shape)
        variants = [
            (result.strategy, result.lowered)
            for result in explore_variants_for(benchmark, shape)
        ]
        decisions: List[PruneDecision] = []
        if self.pruner is not None:
            variants, decisions = self.pruner.prune(
                benchmark, shape, device_model, variants
            )

        prepared = []  # (spec, space, expression digest, first configuration)
        for spec, lowered in variants:
            space = parameter_space_for(lowered, problem, device_model)
            first = next(space.configurations(), None)
            if first is None:
                # No valid configuration for this variant on this device
                # (e.g. the tile's output block exceeds the work-group
                # limit).  Checked explicitly so genuine ValueErrors from
                # the search machinery are not silently swallowed.
                continue
            # The expression digest exists to key the store.
            digest = structural_digest(lowered.program) if self.store is not None else ""
            prepared.append((spec, space, digest, first))
        if not prepared:
            raise EngineError(
                f"{benchmark.name}: no variant admits a valid configuration on {device_key}"
            )

        def jobs_for(spec, digest, configs, validating=False):
            return make_jobs(
                benchmark.name, shape, device_key, spec, configs,
                expr_digest=digest, validate=validating,
                validate_backend=self.validate_backend,
                **self._measure_args,
            )

        looked_up: List[JobResult] = []  # every result of this search, for the tally

        def costs(jobs: Sequence[EvaluationJob]) -> List[float]:
            results = self.evaluate(jobs, session=session)
            looked_up.extend(results)
            return [result.cost for result in results]

        if self.validate:
            # Validation (compile + functional check) is per-variant work;
            # leaving it on the per-configuration jobs would repeat it in
            # *every* worker process that touches the variant.  One
            # dedicated job per variant, submitted as a single up-front
            # batch, spreads the variants across the pool instead; the
            # configuration jobs below then run with validation off.  A
            # validation job answered from the results store is not
            # re-validated: it was validated when the stored cost was
            # produced.
            costs([
                job
                for spec, _space, digest, first in prepared
                for job in jobs_for(spec, digest, [first], validating=True)
            ])

        per_variant: List[VariantOutcome] = []
        for spec, space, digest, _first in prepared:
            # Called only inside this iteration's ``tune()``, so the loop
            # variables it closes over are the ones it means.
            def evaluate(configs) -> List[float]:
                return costs(jobs_for(spec, digest, configs))

            tuning: TuningResult = AutoTuner(
                space,
                evaluate,
                budget=budget,
                strategy=strategy,
                seed=self.seed,
                restarts=restarts,
            ).tune()
            per_variant.append(
                VariantOutcome(
                    variant=spec,
                    best_config=dict(tuning.best_configuration),
                    best_cost=tuning.best_cost,
                    evaluations=tuning.evaluations,
                )
            )

        best = min(per_variant, key=lambda outcome: outcome.best_cost)
        recalled = sum(1 for result in looked_up if result.from_store)
        outcome = EngineOutcome(
            benchmark=benchmark.name,
            device=device_key,
            shape=shape,
            session=session,
            best=best,
            per_variant=per_variant,
            pruned=decisions,
            evaluations=sum(outcome.evaluations for outcome in per_variant),
            fresh_evaluations=len(looked_up) - recalled,
            store_hits=recalled,
            output_elements=self._scored_elements(
                benchmark, problem, dict(variants)[best.variant]
            ),
            scorer=self.scorer,
            wall_s=time.monotonic() - started,
        )
        if self.store is not None:
            self.store.finish_session(session)
        return outcome

    def _scored_elements(self, benchmark: StencilBenchmark, problem,
                         best_lowered) -> int:
        """Element count of the grid the winning cost was computed on."""
        if self.scorer != "measured":
            return problem.output_elements
        shape = measurement_shape(benchmark.stencil_extent, benchmark.ndims,
                                  best_lowered, self.measure_size)
        elements = 1
        for extent in shape:
            elements *= extent
        return elements


def new_session_id() -> str:
    """A fresh, user-visible session identifier."""
    return uuid.uuid4().hex[:12]


__all__ = [
    "EngineError",
    "EngineOutcome",
    "SearchEngine",
    "new_session_id",
]
