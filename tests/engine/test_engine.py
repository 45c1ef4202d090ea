"""SearchEngine: resumability, workers=1 vs workers=N determinism, batching."""

import dataclasses
import multiprocessing
import pickle

import numpy as np
import pytest

from repro.apps.suite import get_benchmark
from repro.backend.cache import CompilationCache
from repro.engine import (
    CostModelPruner,
    EngineError,
    ResultsStore,
    SearchEngine,
    make_jobs,
)
from repro.engine import worker
from repro.engine.worker import evaluate_job
from repro.experiments.pipeline import lift_best_result
from repro.rewriting.strategies import Strategy
from repro.runtime.simulator.device import DEVICES

SHAPE = (64, 64)
BUDGET = 40

#: What the pre-engine serial loop (``lift_best_result`` before the engine
#: became the only driver) answered for stencil2d 64x64, budget 40, nvidia —
#: recorded at the last commit that had it.
SERIAL_STRATEGY = "tiled tile=34 localMem unroll"
SERIAL_CONFIGURATION = {"wg_x": 32, "wg_y": 32, "work_per_thread": 1}
SERIAL_RUNTIME_S = 1.3105384615384616e-05
SERIAL_EVALUATIONS = 104

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the spy on the worker module reaches pool processes by fork only",
)


def run_engine(store, workers=1, strategy="exhaustive", seed=0,
               budget=BUDGET, crosses_pool=None, validate=False, **kwargs):
    with SearchEngine(store=store, workers=workers, seed=seed,
                      validate=validate) as engine:
        outcome = engine.run("stencil2d", shape=SHAPE, budget=budget,
                             strategy=strategy, **kwargs)
        if crosses_pool is not None:
            assert (engine._pool is not None) == crosses_pool
        return outcome


def tuned_variant_count(benchmark, shape, device):
    """Variants of the exploration set with at least one valid configuration."""
    problem = benchmark.problem(shape)
    return sum(
        1 for variant in worker.explore_variants_for(benchmark, shape)
        if next(worker.parameter_space_for(variant.lowered, problem, device)
                .configurations(), None) is not None
    )


@pytest.fixture
def validator_entries(monkeypatch, tmp_path):
    """Count entries into ``_validate_variant`` across this and pool processes."""
    log = tmp_path / "validator-entries.log"
    log.touch()
    real = worker._validate_variant

    def counted(job, lowered):
        with open(log, "a") as handle:
            handle.write(f"{job.variant.describe()}\n")
        return real(job, lowered)

    monkeypatch.setattr(worker, "_validate_variant", counted)
    return lambda: log.read_text().splitlines()


class TestSerialEquivalence:
    @staticmethod
    def assert_serial_answer(outcome):
        assert outcome.strategy == SERIAL_STRATEGY
        assert outcome.configuration == SERIAL_CONFIGURATION
        assert outcome.result.runtime_s == SERIAL_RUNTIME_S
        assert outcome.evaluations == SERIAL_EVALUATIONS

    @pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
    def test_engine_matches_legacy_serial_pipeline(self, shared):
        with SearchEngine() as engine:
            self.assert_serial_answer(lift_best_result(
                get_benchmark("stencil2d"), shape=SHAPE,
                device=DEVICES["nvidia"], tuner_budget=BUDGET,
                engine=engine if shared else None,
            ))
        outcome = run_engine(store=None, workers=1)
        assert outcome.best.variant.describe() == SERIAL_STRATEGY
        assert outcome.best.best_config == SERIAL_CONFIGURATION
        assert outcome.best.best_cost == SERIAL_RUNTIME_S
        assert outcome.evaluations == SERIAL_EVALUATIONS

    def test_lift_best_result_with_store_routes_through_engine(self):
        store = ResultsStore(":memory:")
        with SearchEngine(store=store, workers=2) as engine:
            self.assert_serial_answer(lift_best_result(
                get_benchmark("stencil2d"), shape=SHAPE,
                device=DEVICES["nvidia"], tuner_budget=BUDGET, engine=engine,
            ))
        assert store.count() == SERIAL_EVALUATIONS


class TestFunctionalValidationIsNeverDropped:
    @pytest.mark.parametrize("workers", [
        1, pytest.param(2, marks=needs_fork),
    ], ids=["inline", "workers2"])
    def test_crosscheck_engine_validates_every_tuned_variant(
            self, workers, validator_entries):
        benchmark, device = get_benchmark("stencil2d"), DEVICES["nvidia"]
        with SearchEngine(workers=workers, validate="crosscheck") as engine:
            validated = lift_best_result(
                benchmark, shape=SHAPE, device=device, tuner_budget=4,
                engine=engine,
            )
        entries = validator_entries()
        with SearchEngine(workers=workers) as engine:
            plain = lift_best_result(
                benchmark, shape=SHAPE, device=device, tuner_budget=4,
                engine=engine,
            )
        # Once per tuned variant, each variant exactly once...
        assert len(entries) == tuned_variant_count(benchmark, SHAPE, device) > 1
        assert len(set(entries)) == len(entries)
        # ...only when asked, and without changing the answer.
        assert validator_entries() == entries
        assert (validated.strategy, validated.configuration,
                validated.result.runtime_s) == (
            plain.strategy, plain.configuration, plain.result.runtime_s)


class TestDeterminismAcrossWorkers:
    @pytest.mark.parametrize("validate", [False, True],
                             ids=["inline", "validating"])
    @pytest.mark.parametrize("strategy", ["exhaustive", "random", "hillclimb"])
    def test_workers_1_vs_4_same_best(self, strategy, validate):
        one = run_engine(ResultsStore(":memory:"), workers=1, strategy=strategy,
                         seed=7, validate=validate, crosses_pool=False)
        # Only validating (or measured) jobs are worth a process hop.
        four = run_engine(ResultsStore(":memory:"), workers=4, strategy=strategy,
                          seed=7, validate=validate, crosses_pool=validate)
        assert one.best.variant == four.best.variant
        assert one.best.best_config == four.best.best_config
        assert one.best.best_cost == four.best.best_cost
        assert one.evaluations == four.evaluations
        # Full per-variant agreement, not just the winner.
        assert [(v.variant, v.best_cost) for v in one.per_variant] == [
            (v.variant, v.best_cost) for v in four.per_variant
        ]


class TestResumability:
    def test_interrupted_session_resumes_to_identical_best(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        # A "killed" session: a smaller budget evaluates only a prefix of
        # each variant's configuration enumeration, then the driver dies.
        with ResultsStore(path) as store:
            partial = run_engine(store, budget=10, session="sess")
            assert partial.fresh_evaluations > 0

        # Resume against the same store: the prefix is recalled, only the
        # remainder is evaluated, and the final best matches a clean run.
        with ResultsStore(path) as store:
            resumed = run_engine(store, session="sess")
            assert resumed.store_hits > 0
            assert resumed.fresh_evaluations < resumed.evaluations

        clean = run_engine(ResultsStore(":memory:"))
        assert resumed.best.variant == clean.best.variant
        assert resumed.best.best_config == clean.best.best_config
        assert resumed.best.best_cost == clean.best.best_cost

    def test_second_full_run_performs_zero_reevaluations(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with ResultsStore(path) as store:
            first = run_engine(store, session="sess")
            assert first.fresh_evaluations == first.evaluations
        with ResultsStore(path) as store:
            second = run_engine(store, session="sess")
        assert second.fresh_evaluations == 0
        assert second.store_hits == second.evaluations
        assert second.best.best_cost == first.best.best_cost

    def test_session_spec_is_recorded(self, tmp_path):
        with ResultsStore(str(tmp_path / "store.sqlite")) as store:
            run_engine(store, session="sess")
            spec = store.session_spec("sess")
        assert spec["benchmark"] == "Stencil2D"
        assert spec["budget"] == BUDGET
        assert tuple(spec["shape"]) == SHAPE


class TestBatchAPI:
    def _jobs(self, count=6):
        return make_jobs(
            "stencil2d", SHAPE, "nvidia",
            Strategy(name="naive"),
            [{"wg_x": 2 ** i, "wg_y": 4, "work_per_thread": 1}
             for i in range(count)],
        )

    def test_results_are_in_submission_order(self):
        engine = SearchEngine(store=ResultsStore(":memory:"))
        jobs = self._jobs()
        results = engine.evaluate(jobs)
        assert len(results) == len(jobs)
        again = engine.evaluate(jobs)
        assert all(result.from_store for result in again)
        assert [r.cost for r in again] == [r.cost for r in results]

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pool"])
    def test_duplicate_jobs_evaluated_once(self, workers):
        # Validating jobs are the ones that cross the pool at workers > 1.
        jobs = [dataclasses.replace(job, validate=True)
                for job in self._jobs(2)] * 3
        with SearchEngine(store=ResultsStore(":memory:"),
                          workers=workers) as engine:
            results = engine.evaluate(jobs)
            assert (engine._pool is not None) == (workers > 1)
            assert engine.store.count() == 2
        assert [r.cost for r in results] == [
            r.cost for r in SearchEngine().evaluate(self._jobs(2))] * 3

    def test_simulator_only_search_never_creates_the_pool(self, monkeypatch):
        from repro.engine import engine as engine_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a simulator-only search must not start a pool")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", no_pool)
        outcome = run_engine(store=None, workers=4, crosses_pool=False)
        assert outcome.best.best_cost == SERIAL_RUNTIME_S
        assert outcome.fresh_evaluations == outcome.evaluations == SERIAL_EVALUATIONS

    def test_evaluations_are_counted_with_and_without_a_store(self):
        def search(engine):
            outcome = engine.run("stencil2d", shape=SHAPE, budget=10)
            return (outcome.evaluations, outcome.fresh_evaluations,
                    outcome.store_hits)

        assert search(SearchEngine(store=None)) == (44, 44, 0)
        engine = SearchEngine(store=ResultsStore(":memory:"))
        assert search(engine) == (44, 44, 0)   # cold store
        assert search(engine) == (44, 0, 44)   # warm store

    def test_worker_errors_surface_in_band(self):
        bad = make_jobs(
            "stencil2d", SHAPE, "nvidia",
            # Tiling with an invalid (too small) tile cannot lower.
            Strategy(name="tiled", use_tiling=True, tile_size=1),
            [{"wg_x": 4, "wg_y": 4, "work_per_thread": 1}],
        )
        result = evaluate_job(bad[0])
        assert not result.ok and result.cost == float("inf")
        engine = SearchEngine()
        with pytest.raises(EngineError):
            engine.evaluate(bad)

    def test_a_failed_batch_still_stores_its_good_results(self):
        good = self._jobs(2)
        bad = make_jobs(
            "stencil2d", SHAPE, "nvidia",
            Strategy(name="tiled", use_tiling=True, tile_size=1),
            [{"wg_x": 4, "wg_y": 4, "work_per_thread": 1}],
        )
        engine = SearchEngine(store=ResultsStore(":memory:"))
        with pytest.raises(EngineError, match="LoweringError"):
            engine.evaluate(list(good) + list(bad))
        assert engine.store.count() == len(good)


class TestScorersAndValidation:
    def test_measured_scorer_ranks_variants_by_execution(self):
        with SearchEngine(store=ResultsStore(":memory:"), scorer="measured",
                          measure_runs=1, measure_size=24) as engine:
            outcome = engine.run("stencil2d", shape=SHAPE, budget=4)
        assert outcome.best.best_cost > 0
        # Measured cost is per-variant: every config of a variant ties.
        for variant in outcome.per_variant:
            assert variant.best_cost > 0

    def test_a_measured_job_times_the_one_plan_a_server_builds(
            self, monkeypatch):
        # The default plan (no tile, no worker count): no caller under src/
        # builds any other, so a cost from another is one no server pays.
        from repro.backend.base import NumpyBackend

        built = []
        genuine = NumpyBackend.plan

        def counting(self, *args, **kwargs):
            built.append(kwargs)
            return genuine(self, *args, **kwargs)

        monkeypatch.setattr(NumpyBackend, "plan", counting)
        monkeypatch.setattr(worker, "_MEASURED", {})
        job = make_jobs("stencil2d", SHAPE, "nvidia", Strategy(name="naive"),
                        [{"wg_x": 4, "wg_y": 4, "work_per_thread": 1}],
                        measure_runs=2, measure_size=24)[0]
        result = evaluate_job(job)
        assert result.ok and 0 < result.cost < float("inf")
        assert built == [{}]

    def test_measured_and_simulated_points_never_share_memo_entries(self):
        sim = make_jobs("stencil2d", SHAPE, "nvidia", Strategy(name="naive"),
                        [{"wg_x": 4, "wg_y": 4, "work_per_thread": 1}])[0]
        measured = make_jobs("stencil2d", SHAPE, "nvidia", Strategy(name="naive"),
                             [{"wg_x": 4, "wg_y": 4, "work_per_thread": 1}],
                             measure_runs=2, measure_size=24)[0]
        assert sim.fingerprint() != measured.fingerprint()

    def test_unknown_scorer_rejected(self):
        with pytest.raises(ValueError):
            SearchEngine(scorer="psychic")

    def test_crosscheck_validation_accepts_all_variants(self):
        with SearchEngine(store=ResultsStore(":memory:"),
                          validate="crosscheck") as engine:
            outcome = engine.run("stencil2d", shape=SHAPE, budget=4)
        assert outcome.best.best_cost > 0

    def test_validator_rejects_a_plan_one_bit_off_the_generic_path(
            self, monkeypatch):
        from repro.backend import BackendMismatch, ExecutionPlan

        real_run = ExecutionPlan.run

        def one_bit_off(self, inputs, copy=True):
            out = np.array(real_run(self, inputs))
            out.view(np.uint64).flat[0] ^= 1
            return out

        monkeypatch.setattr(ExecutionPlan, "run", one_bit_off)
        monkeypatch.setattr(worker, "_VALIDATED", set())
        job = make_jobs("stencil2d", SHAPE, "nvidia", Strategy(name="naive"),
                        [{"wg_x": 4, "wg_y": 4, "work_per_thread": 1}],
                        validate=True)[0]
        with pytest.raises(BackendMismatch, match="execution plan diverges"):
            worker._validate_variant(job, worker._lowered_for(job))
        # Through the evaluator the refusal is in-band, and it is not cached
        # as a pass.
        result = evaluate_job(job)
        assert not result.ok and "BackendMismatch" in result.error
        assert not worker._VALIDATED

    def test_validation_shape_respects_min_size_and_coverage(self):
        from repro.engine.worker import validation_shape
        from repro.rewriting.strategies import lower_program, tiled_strategy

        benchmark = get_benchmark("stencil2d")
        lowered = lower_program(benchmark.build_program(), tiled_strategy(18))
        shape = validation_shape(3, 2, lowered, min_size=64)
        assert all(extent >= 64 for extent in shape)
        # Exact tile coverage of the padded input (radius 1 per side), with
        # 18-element tiles every v = 16 elements.
        padded = shape[0] + 2
        assert lowered.tiling.covers(padded) and (padded - 18) % 16 == 0

    def test_a_staged_tile_beyond_local_memory_gets_no_configuration(self):
        from repro.rewriting.strategies import lower_program, tiled_strategy

        benchmark = get_benchmark("stencil2d")
        problem = benchmark.problem(SHAPE)
        # An 18x18 float tile takes 1296 bytes; this device has 1 KiB.
        device = dataclasses.replace(DEVICES["nvidia"], local_memory_bytes=1024)

        def first_configuration(use_local_memory):
            lowered = lower_program(benchmark.build_program(),
                                    tiled_strategy(18, use_local_memory=use_local_memory))
            space = worker.parameter_space_for(lowered, problem, device)
            return next(space.configurations(), None)

        assert first_configuration(use_local_memory=True) is None
        assert first_configuration(use_local_memory=False) is not None


class TestReviewRegressions:
    def test_validate_jobs_do_not_reuse_unvalidated_costs(self):
        plain = make_jobs("stencil2d", SHAPE, "nvidia", Strategy(name="naive"),
                          [{"wg_x": 4, "wg_y": 4, "work_per_thread": 1}])[0]
        validating = make_jobs("stencil2d", SHAPE, "nvidia", Strategy(name="naive"),
                               [{"wg_x": 4, "wg_y": 4, "work_per_thread": 1}],
                               validate=True)[0]
        # Same point, but a validating job must not be answered by a cost
        # produced without validation.
        assert plain.fingerprint() != validating.fingerprint()

        store = ResultsStore(":memory:")
        engine = SearchEngine(store=store)
        engine.evaluate([plain])
        results = engine.evaluate([validating])
        assert not results[0].from_store

    def test_measured_session_resumes_with_zero_fresh(self, tmp_path):
        path = str(tmp_path / "store.sqlite")

        def run(store):
            with SearchEngine(store=store, scorer="measured",
                              measure_runs=1, measure_size=24) as engine:
                return engine.run("stencil2d", shape=SHAPE, budget=3)

        with ResultsStore(path) as store:
            first = run(store)
            assert first.fresh_evaluations > 0
        with ResultsStore(path) as store:
            second = run(store)
        assert second.fresh_evaluations == 0
        assert second.best.best_cost == first.best.best_cost

    def test_measured_throughput_uses_measurement_grid(self):
        with SearchEngine(scorer="measured", measure_runs=1,
                          measure_size=24) as engine:
            outcome = engine.run("stencil2d", shape=(4096, 4096), budget=2)
        assert outcome.scorer == "measured"
        # Elements must refer to the ~24-per-dim grid the workers timed,
        # not the 4096x4096 problem shape.
        assert outcome.output_elements < 4096 * 4096 / 100

    def test_session_spec_records_pruner_configuration(self, tmp_path):
        from repro.cli import main

        store_path = str(tmp_path / "store.sqlite")
        args = ["tune", "stencil2d", "--budget", "10", "--scale", "0.02",
                "--store", store_path, "--session", "s"]
        assert main(args + ["--no-prune"]) == 0
        with ResultsStore(store_path) as store:
            assert store.session_spec("s")["prune_margin"] is None
        # The resumed run must re-derive the identical (unpruned) job set:
        # zero fresh evaluations even though the CLI default would prune.
        import io
        from contextlib import redirect_stdout

        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["tune", "--resume", "s", "--store", store_path]) == 0
        assert "zero re-evaluations" in out.getvalue()

    def test_run_reports_prune_decisions(self):
        with SearchEngine(store=ResultsStore(":memory:"),
                          pruner=CostModelPruner(margin=1.0)) as engine:
            outcome = engine.run("stencil2d", shape=SHAPE, budget=4)
        assert outcome.pruned  # decisions surfaced, not dropped
        assert any(not decision.kept for decision in outcome.pruned)
        # Without a pruner every explored variant is tuned.
        with SearchEngine(store=ResultsStore(":memory:"), pruner=None) as engine:
            unpruned = engine.run("stencil2d", shape=SHAPE, budget=4)
        assert not unpruned.pruned
        assert len(unpruned.per_variant) > len(outcome.per_variant)


class TestPruner:
    def test_pruner_keeps_front_runner_and_cuts_dominated(self):
        benchmark = get_benchmark("stencil2d")
        device = DEVICES["nvidia"]
        from repro.experiments.pipeline import explore_variants_for

        variants = [
            (result.strategy, result.lowered)
            for result in explore_variants_for(benchmark, SHAPE)
        ]
        pruner = CostModelPruner(margin=1.0)  # keep only the front-runner(s)
        kept, decisions = pruner.prune(benchmark, SHAPE, device, variants)
        assert kept and len(kept) < len(variants)
        assert len(decisions) == len(variants)
        best = min(d.estimate for d in decisions)
        assert all(d.estimate == best for d in decisions if d.kept)

    @pytest.mark.parametrize("validate", [False, True],
                             ids=["inline", "validating"])
    def test_pruned_search_same_winner_at_any_worker_count(self, validate):
        def run(workers):
            with SearchEngine(store=ResultsStore(":memory:"), workers=workers,
                              pruner=CostModelPruner(margin=4.0),
                              validate=validate) as engine:
                outcome = engine.run("stencil2d", shape=SHAPE, budget=BUDGET)
                assert (engine._pool is not None) == (validate and workers > 1)
                return outcome

        one, four = run(1), run(4)
        assert one.best.variant == four.best.variant
        assert one.best.best_cost == four.best.best_cost
        assert [d.kept for d in one.pruned] == [d.kept for d in four.pruned]

    def test_margin_below_one_rejected(self):
        with pytest.raises(ValueError):
            CostModelPruner(margin=0.5)


class TestPickling:
    def test_compilation_cache_pickles_as_empty(self):
        import numpy as np

        from repro.backend import NumpyBackend

        cache = CompilationCache(max_entries=17)
        benchmark = get_benchmark("stencil2d")
        backend = NumpyBackend(cache=cache)
        inputs = benchmark.make_inputs((8, 8), 3)
        backend.run(benchmark.build_program(), list(inputs))
        assert len(cache) > 0

        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 0 and clone.max_entries == 17
        assert clone.stats() == {
            "entries": 0, "max_entries": 17,
            "hits": 0, "misses": 0, "evictions": 0,
        }

        # A backend holding a cache round-trips and recompiles on first use.
        backend_clone = pickle.loads(pickle.dumps(backend))
        result = backend_clone.run(benchmark.build_program(), list(inputs))
        assert np.allclose(result, backend.run(benchmark.build_program(), list(inputs)))

    def test_jobs_pickle(self):
        job = make_jobs("heat", (8, 8, 8), "amd", Strategy(name="naive"),
                        [{"wg_x": 4}])[0]
        assert pickle.loads(pickle.dumps(job)) == job


class TestStructuralDigest:
    def test_digest_stable_for_rebuilt_programs(self):
        from repro.core.ir import structural_digest

        benchmark = get_benchmark("acoustic")  # uses ArrayConstructor closures
        first = structural_digest(benchmark.build_program())
        second = structural_digest(benchmark.build_program())
        assert first == second
        assert len(first) == 64

    def test_digest_distinguishes_programs(self):
        from repro.core.ir import structural_digest

        a = structural_digest(get_benchmark("heat").build_program())
        b = structural_digest(get_benchmark("poisson").build_program())
        assert a != b


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
