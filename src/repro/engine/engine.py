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
* :meth:`SearchEngine.submit` is the async-friendly batch API: it returns a
  :class:`Batch` whose results can be harvested in submission order, as
  they complete, or awaited from asyncio code.

Determinism: batches preserve submission order, searches consume costs in
that order, and ties are broken by first occurrence — so a fixed seed
produces the same best point at any worker count.
"""

from __future__ import annotations

import time
import uuid
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..apps.base import StencilBenchmark
from ..apps.suite import get_benchmark
from ..core.ir import structural_digest
from ..runtime.simulator.device import DEVICES, DeviceModel
from ..tuning.tuner import AutoTuner, TuningResult
from .jobs import EvaluationJob, JobResult, VariantOutcome, VariantSpec, make_jobs
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


class Batch:
    """A submitted batch of jobs; results arrive per job, in any order.

    ``results()`` blocks until every job is done and returns costs in
    submission order; ``as_completed()`` yields ``(index, JobResult)``
    pairs as they finish; ``gather()`` is an awaitable for asyncio
    callers.  Fresh results are persisted to the engine's store exactly
    once, on first harvest.
    """

    def __init__(
        self,
        jobs: Sequence[EvaluationJob],
        keys: Sequence[object],
        resolved: Dict[int, JobResult],
        futures: Dict[int, "Future[JobResult]"],
        aliases: Dict[int, int],
        engine: "SearchEngine",
        session: Optional[str],
    ) -> None:
        self.jobs = list(jobs)
        self._keys = keys                # per job: its fingerprint when the engine has a store
        self._resolved = dict(resolved)
        self._futures = futures
        self._aliases = aliases          # duplicate-key index → canonical index
        self._engine = engine
        self._session = session
        self._persisted_indices: set = set()

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def pending(self) -> int:
        return sum(1 for future in self._futures.values() if not future.done())

    def _finish(self, index: int, result: JobResult) -> None:
        self._resolved[index] = result

    def _persist_fresh(self) -> None:
        """Store fresh results resolved so far (incremental, idempotent)."""
        store = self._engine.store
        if store is None:
            return
        fresh = [
            (index, result)
            for index, result in self._resolved.items()
            if index not in self._persisted_indices
            and not result.from_store and result.ok
            and index not in self._aliases
        ]
        if fresh:
            store.put_many(
                [(self.jobs[index], result.cost, self._keys[index])
                 for index, result in fresh],
                session=self._session,
            )
        self._persisted_indices.update(index for index, _ in fresh)

    def results(self, raise_on_error: bool = True) -> List[JobResult]:
        """Every job's result, in submission order (blocks until done)."""
        for index, future in self._futures.items():
            self._finish(index, future.result())
        for index, canonical in self._aliases.items():
            self._resolved[index] = self._resolved[canonical]
        self._persist_fresh()
        ordered = [self._resolved[index] for index in range(len(self.jobs))]
        if raise_on_error:
            for job, result in zip(self.jobs, ordered):
                if not result.ok:
                    raise EngineError(f"{job.describe()}: {result.error}")
        return ordered

    def as_completed(self) -> Iterator[Tuple[int, JobResult]]:
        """Yield ``(submission index, result)`` pairs as jobs finish.

        Breaking out early is safe: results completed so far are persisted
        when the generator is closed (the remaining in-flight futures keep
        running on the pool but are not stored).
        """
        try:
            for index in list(self._resolved):
                yield index, self._resolved[index]
            remaining = {future: index for index, future in self._futures.items()}
            while remaining:
                done, _ = wait(list(remaining), return_when=FIRST_COMPLETED)
                for future in done:
                    index = remaining.pop(future)
                    result = future.result()
                    self._finish(index, result)
                    yield index, result
            for index, canonical in self._aliases.items():
                self._resolved[index] = self._resolved[canonical]
                yield index, self._resolved[index]
        finally:
            self._persist_fresh()

    async def gather(self, raise_on_error: bool = True) -> List[JobResult]:
        """Awaitable form of :meth:`results` for asyncio callers."""
        import asyncio

        if self._futures:
            await asyncio.gather(
                *[asyncio.wrap_future(future) for future in self._futures.values()]
            )
        return self.results(raise_on_error=raise_on_error)


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
    def best_runtime_s(self) -> float:
        return self.best.best_cost

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


def _validation_mode(validate: Union[bool, str]) -> Tuple[bool, str]:
    """``validate`` as ``(enabled, backend)``: a string names the backend."""
    if isinstance(validate, str):
        return True, validate
    return bool(validate), "numpy"


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
        ``validate_size`` grows the validation grid (per-dimension extent)
        beyond the default tiny one, making validation a real workload
        worth parallelising.
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
        validate_size: int = 0,
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
        self.validate, self.validate_backend = _validation_mode(validate)
        self.validate_size = validate_size
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

    # -- the batch submission API ---------------------------------------------
    def submit(self, jobs: Sequence[EvaluationJob],
               session: Optional[str] = None) -> Batch:
        """Submit a batch of evaluation jobs; returns immediately.

        Store lookups happen up front: already-known points resolve without
        being evaluated and duplicates within the batch are evaluated once.
        The memo key is the job's persisted fingerprint when there is a
        store to read it (derived here, once per job) and the hashable job
        itself otherwise.  A job that neither validates nor measures is
        ~10 µs of arithmetic — less than its pickle — so it is scored
        inline at any worker count; only jobs that compile and execute are
        dispatched to the worker processes.
        """
        jobs = list(jobs)
        if self.store is not None:
            keys = [job.fingerprint() for job in jobs]
            stored = self.store.get_many(keys)
        else:
            keys, stored = jobs, {}
        resolved: Dict[int, JobResult] = {}
        futures: Dict[int, Future] = {}
        aliases: Dict[int, int] = {}
        canonical: Dict[object, int] = {}
        for index, (job, key) in enumerate(zip(jobs, keys)):
            if key in stored:
                resolved[index] = JobResult(cost=stored[key].cost, from_store=True)
            elif key in canonical:
                aliases[index] = canonical[key]
            else:
                canonical[key] = index
                if self.workers > 1 and (job.validate or job.measure_runs > 0):
                    futures[index] = self._ensure_pool().submit(evaluate_job, job)
                else:
                    resolved[index] = evaluate_job(job)
        return Batch(jobs, keys, resolved, futures, aliases, self, session)

    def evaluate(self, jobs: Sequence[EvaluationJob],
                 session: Optional[str] = None) -> List[JobResult]:
        """Submit and harvest a batch, in submission order."""
        return self.submit(jobs, session=session).results()

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
        prune: Optional[bool] = None,
        validate: Union[bool, str, None] = None,
    ) -> EngineOutcome:
        """Explore a benchmark's variants and tune each one — one job graph.

        Pruning defaults to on when the engine has a pruner, and
        ``validate`` to the engine's own setting (same values as the
        constructor's).  The best point is selected by (cost, submission
        order), which makes the outcome independent of the worker count.
        """
        if isinstance(benchmark, str):
            benchmark = get_benchmark(benchmark)
        device_key = _device_key(device)
        shape = tuple(shape or benchmark.default_shape)
        session = session or new_session_id()
        validation = (
            (self.validate, self.validate_backend) if validate is None
            else _validation_mode(validate)
        )
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
                    "validate": validation[0],
                    "validate_backend": validation[1],
                    "validate_size": self.validate_size,
                    "scorer": self.scorer,
                    "measure_runs": self.measure_runs,
                    "measure_size": self.measure_size,
                    # None = no pruning; a number = CostModelPruner margin.
                    # Resume must re-derive the same job set, so the pruner
                    # configuration is part of the session's identity.
                    "prune_margin": (
                        self.pruner.margin
                        if (self.pruner is not None and prune is not False)
                        else None
                    ),
                },
            )
        outcome = self._search(benchmark, shape, device_key, budget, session,
                               prune, validation, strategy, restarts)
        if self.store is not None:
            self.store.finish_session(session)
        return outcome

    def run_suite(
        self,
        benchmarks: Sequence[Union[str, StencilBenchmark]],
        device: Union[str, DeviceModel] = "nvidia",
        budget: int = 200,
        session: Optional[str] = None,
        shapes: Optional[Dict[str, Sequence[int]]] = None,
        prune: Optional[bool] = None,
    ) -> Dict[str, EngineOutcome]:
        """Search a whole app suite under one session, keyed by benchmark name.

        Each entry gets exactly the search :meth:`run` gives it with the
        exhaustive strategy (``budget`` configurations per variant — the
        experiment pipeline's configuration).
        """
        device_key = _device_key(device)
        session = session or new_session_id()
        outcomes: Dict[str, EngineOutcome] = {}
        for entry in benchmarks:
            benchmark = get_benchmark(entry) if isinstance(entry, str) else entry
            shape = tuple(
                (shapes or {}).get(benchmark.name) or benchmark.default_shape
            )
            outcomes[benchmark.name] = self._search(
                benchmark, shape, device_key, budget, session, prune,
                (self.validate, self.validate_backend),
            )
        if self.store is not None:
            self.store.finish_session(session)
        return outcomes

    def _search(
        self,
        benchmark: StencilBenchmark,
        shape: Tuple[int, ...],
        device_key: str,
        budget: int,
        session: str,
        prune: Optional[bool],
        validation: Tuple[bool, str],
        strategy: str = "exhaustive",
        restarts: int = 4,
    ) -> EngineOutcome:
        """Explore → prune → validate → tune → reduce, for one benchmark."""
        started = time.monotonic()
        device_model = DEVICES[device_key]
        problem = benchmark.problem(shape)
        validate, validate_backend = validation
        variants = [
            (VariantSpec.from_strategy(result.strategy), result.lowered)
            for result in explore_variants_for(benchmark, shape)
        ]
        decisions: List[PruneDecision] = []
        if self.pruner is not None and prune is not False:
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
                validate_backend=validate_backend,
                validate_size=self.validate_size,
                **self._measure_args,
            )

        looked_up: List[JobResult] = []  # every result of this search, for the tally

        def costs(jobs: Sequence[EvaluationJob]) -> List[float]:
            results = self.evaluate(jobs, session=session)
            looked_up.extend(results)
            return [result.cost for result in results]

        if validate:
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
            def batch(configs) -> List[float]:
                return costs(jobs_for(spec, digest, configs))

            tuning: TuningResult = AutoTuner(
                space,
                lambda config: batch([config])[0],
                budget=budget,
                strategy=strategy,
                seed=self.seed,
                restarts=restarts,
                batch_objective=batch,
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
        return EngineOutcome(
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
    "Batch",
    "EngineError",
    "EngineOutcome",
    "SearchEngine",
    "new_session_id",
]
