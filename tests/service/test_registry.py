"""The digest router, and what the service does with a results store.

Every digest serves its default lowering: a tiled best left in the store
by ``repro tune`` does not change what serves, and a store the service is
pointed at is only read, never created.
"""

import pathlib
import threading

import numpy as np
import pytest

from repro.apps.suite import get_benchmark
from repro.backend import iterate_generic
from repro.backend.base import NumpyBackend
from repro.engine import ResultsStore
from repro.engine.jobs import EvaluationJob, VariantSpec, config_items
from repro.rewriting.strategies import NAIVE, lower_program
from repro.service import (DigestRouter, ExecutionRequest, ServiceClient,
                           StencilService)


def stored_best(store, benchmark="Stencil2D", tile=18, cost=1e-5,
                device="nvidia", digest="d" * 64, name="tiled"):
    job = EvaluationJob(
        benchmark=benchmark,
        shape=(64, 64),
        device=device,
        variant=VariantSpec(name=name, use_tiling=(name == "tiled"),
                            tile_size=tile, use_local_memory=(name == "tiled"),
                            unroll_reduce=True),
        config=config_items({"wg_x": 16, "wg_y": 16, "work_per_thread": 1}),
        expr_digest=digest,
    )
    store.put(job, cost)
    return job


def default_variant(key):
    return lower_program(get_benchmark(key).build_program(),
                         NAIVE).strategy.describe()


class TestStoreLookupAPI:
    def test_best_per_benchmark_and_benchmarks(self, tmp_path):
        with ResultsStore(str(tmp_path / "s.sqlite")) as store:
            stored_best(store, benchmark="Stencil2D", cost=2e-5, tile=18)
            stored_best(store, benchmark="Stencil2D", cost=1e-5, tile=34)
            stored_best(store, benchmark="Gaussian", cost=9e-6, tile=10)
            best = store.best_per_benchmark()
            assert set(best) == {"Stencil2D", "Gaussian"}
            assert best["Stencil2D"].variant.tile_size == 34
            assert store.benchmarks() == ["Gaussian", "Stencil2D"]


class TestRegistryRouting:
    def test_cold_digest_gets_default_plan(self):
        router = DigestRouter()
        route = router.plan_for(benchmark="stencil2d")
        assert route.variant == default_variant("stencil2d")
        assert "naive" in route.variant
        assert route.key == f"{route.digest}:{route.variant}"
        assert router.stats() == {"lookups": 1, "cold_misses": 1,
                                  "plans_cached": 1}

    def test_plan_is_cached_per_digest(self):
        router = DigestRouter()
        first = router.plan_for(benchmark="stencil2d")
        second = router.plan_for(benchmark="stencil2d")
        assert first is second
        assert router.stats() == {"lookups": 2, "cold_misses": 1,
                                  "plans_cached": 1}

    def test_program_request_routes_to_benchmark_plan(self):
        router = DigestRouter()
        by_name = router.plan_for(benchmark="stencil2d")
        program = get_benchmark("stencil2d").build_program()
        by_program = router.plan_for(program=program)
        assert by_program is by_name
        assert by_program.benchmark == "stencil2d"
        assert by_program.carry == get_benchmark("stencil2d").carry_spec()

    def test_unknown_program_serves_its_default_lowering(self):
        from repro.core import builders as L
        from repro.core.arithmetic import Var
        from repro.core.ir import structural_digest
        from repro.core.types import Float
        from repro.core.userfuns import add

        program = L.fun(
            [L.array_type(Float, Var("N"))],
            lambda a: L.map(lambda nbh: L.reduce(add, 0.0, nbh),
                            L.slide(3, 1, L.pad(1, 1, L.CLAMP, a))),
        )
        route = DigestRouter().plan_for(program=program)
        assert route.benchmark is None and route.carry is None
        assert route.digest == structural_digest(program)
        assert structural_digest(route.program) == structural_digest(
            lower_program(program, NAIVE).program)

    def test_requires_benchmark_or_program(self):
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            DigestRouter().plan_for()

    def test_concurrent_cold_misses_share_one_route(self, monkeypatch):
        from repro.service import registry

        # Both threads miss before either caches: each lowers the program.
        both_missed = threading.Barrier(2, timeout=10)

        def lower_after_both_missed(program, strategy):
            both_missed.wait()
            return lower_program(program, strategy)

        monkeypatch.setattr(registry, "lower_program", lower_after_both_missed)
        router = DigestRouter()
        routes = []
        threads = [threading.Thread(target=lambda: routes.append(
            router.plan_for(benchmark="stencil2d"))) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(routes) == 2 and routes[0] is routes[1]
        assert router.plan_for(benchmark="stencil2d") is routes[0]
        assert router.stats()["plans_cached"] == 1


class TestServiceAndStore:
    def test_stored_tiled_best_does_not_change_what_serves(self, tmp_path):
        path = str(tmp_path / "tuned.sqlite")
        with ResultsStore(path) as store:
            stored_best(store, benchmark="Jacobi2D5pt", tile=34, cost=1e-9)
        bench = get_benchmark("jacobi2d5pt")
        inputs = bench.make_inputs((64, 64), 3)
        program = bench.build_program()
        with ServiceClient(StencilService(store=path,
                                          batch_window=0.001)) as client:
            single = client.execute(ExecutionRequest(
                inputs=[np.array(grid) for grid in inputs],
                benchmark="jacobi2d5pt"))
            iterated = client.execute(ExecutionRequest(
                inputs=[np.array(grid) for grid in inputs],
                benchmark="jacobi2d5pt", steps=16))
            stats = client.stats()
        # The store is still read for the stats report...
        assert stats["results_store"]["best"]["Jacobi2D5pt"]["variant"] \
            .startswith("tiled")
        backend = NumpyBackend()
        for response, steps in ((single, 1), (iterated, 16)):
            # ...but never changes the program that serves.
            assert response.variant == default_variant("jacobi2d5pt")
            assert response.plan_source == "default"
            expected = iterate_generic(backend, program, inputs, steps,
                                       carry=bench.carry_spec())
            assert response.result.tobytes() == np.asarray(
                expected, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("as_path", [str, pathlib.Path])
    def test_absent_store_is_never_created(self, tmp_path, as_path):
        absent = as_path(tmp_path / "absent.sqlite")
        with ServiceClient(StencilService(store=absent,
                                          batch_window=0.001)) as client:
            assert client.execute(ExecutionRequest.for_benchmark(
                "stencil2d", shape=(9, 8))).ok
            assert client.stats()["results_store"] == {"available": False}
        assert list(tmp_path.iterdir()) == []

    def test_in_memory_store_is_the_one_path_not_checked(self):
        from repro.service.metrics import store_section

        section = store_section(":memory:")
        assert section["available"] and section["best"] == {}
