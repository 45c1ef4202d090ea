"""Correctness tests for every Table-1 benchmark: Lift expression vs NumPy golden."""

import numpy as np
import pytest

from repro.apps import ALL_BENCHMARKS, FIGURE7_BENCHMARKS, FIGURE8_BENCHMARKS, get_benchmark
from repro.apps.acoustic import compute_num_neighbours
from repro.apps.gaussian import gaussian_weights_2d
from repro.apps.suite import table1_rows
from repro.rewriting.strategies import NAIVE, lower_program

SMALL_SHAPES = {2: (13, 11), 3: (5, 7, 9)}


@pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
def test_lift_expression_matches_numpy_golden(key):
    benchmark = ALL_BENCHMARKS[key]
    shape = SMALL_SHAPES[benchmark.ndims]
    assert benchmark.verify(shape=shape, seed=11), f"{key} diverges from its golden"


@pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
def test_lowered_naive_variant_matches_golden(key):
    """The mapGlb-lowered kernels compute the same values as the high-level program."""
    benchmark = ALL_BENCHMARKS[key]
    shape = SMALL_SHAPES[benchmark.ndims]
    inputs = benchmark.make_inputs(shape, seed=5)
    lowered = lower_program(benchmark.build_program(), NAIVE)
    from repro.runtime.interpreter import evaluate_program
    from repro.apps.base import squeeze_result

    lowered_out = squeeze_result(np.array(evaluate_program(lowered.program, list(inputs))))
    golden = benchmark.run_reference(inputs)
    assert np.allclose(lowered_out, golden, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
def test_benchmark_metadata_is_consistent(key):
    benchmark = ALL_BENCHMARKS[key]
    assert benchmark.ndims in (2, 3)
    assert len(benchmark.default_shape) == benchmark.ndims
    assert benchmark.points >= 3
    assert benchmark.num_grids in (1, 2)
    problem = benchmark.problem()
    assert problem.output_elements == int(np.prod(benchmark.default_shape))
    assert problem.stencil_points == benchmark.points


class TestSuiteRegistry:
    def test_table1_contains_twelve_paper_rows(self):
        # 12 paper rows; Jacobi2D and Jacobi3D each appear as two point-variants here.
        assert len(table1_rows()) == 14

    def test_figure_subsets(self):
        assert len(FIGURE7_BENCHMARKS) == 6
        assert len(FIGURE8_BENCHMARKS) == 8
        assert set(FIGURE7_BENCHMARKS).isdisjoint(FIGURE8_BENCHMARKS)

    def test_get_benchmark_is_case_insensitive(self):
        assert get_benchmark("HeAt").name == "Heat"

    def test_get_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            get_benchmark("fft")

    def test_paper_input_sizes(self):
        assert get_benchmark("stencil2d").default_shape == (4098, 4098)
        assert get_benchmark("hotspot2d").default_shape == (8192, 8192)
        assert get_benchmark("poisson").large_shape == (512, 512, 512)
        assert get_benchmark("srad1").default_shape == (504, 458)

    def test_size_names_resolve(self):
        heat = get_benchmark("heat")
        assert heat.shape_for("small") == (256, 256, 256)
        assert heat.shape_for("large") == (512, 512, 512)
        assert get_benchmark("srad1").shape_for("large") == (504, 458)


class TestBenchmarkDetails:
    def test_gaussian_weights_are_normalised(self):
        weights = gaussian_weights_2d()
        assert weights.shape == (5, 5)
        assert np.isclose(weights.sum(), 1.0)

    def test_acoustic_mask_counts_neighbours(self):
        mask = compute_num_neighbours((4, 4, 4))
        assert mask[1, 1, 1] == 6.0
        assert mask[0, 1, 1] == 5.0
        assert mask[0, 0, 0] == 3.0

    def test_acoustic_damps_at_walls(self):
        benchmark = get_benchmark("acoustic")
        inputs = benchmark.make_inputs((4, 5, 6), seed=1)
        out = benchmark.run_reference(inputs)
        assert out.shape == (4, 5, 6)

    def test_srad_coefficient_is_clamped(self):
        benchmark = get_benchmark("srad1")
        inputs = benchmark.make_inputs((16, 16), seed=2)
        out = benchmark.run_reference(inputs)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_jacobi_averages_preserve_constant_fields(self):
        for key in ("jacobi2d5pt", "jacobi2d9pt", "jacobi3d7pt", "jacobi3d13pt"):
            benchmark = get_benchmark(key)
            shape = SMALL_SHAPES[benchmark.ndims]
            constant_input = [np.full(shape, 3.0)]
            out = benchmark.run_reference(constant_input)
            assert np.allclose(out, 3.0), key

    def test_heat_preserves_constant_field(self):
        benchmark = get_benchmark("heat")
        out = benchmark.run_reference([np.full((6, 6, 6), 2.5)])
        assert np.allclose(out, 2.5)

    def test_input_types_match_program_arity(self):
        """Every suite app builds from pad/slide and type-checks (Table 1)."""
        from repro.core.typecheck import check_program

        for key, benchmark in ALL_BENCHMARKS.items():
            program = benchmark.build_program()
            types = benchmark.input_types(SMALL_SHAPES[benchmark.ndims])
            assert len(types) == len(program.params), key
            assert check_program(program, types) is not None, key


class TestIterativeExecution:
    """apps-level time stepping: plan loop vs per-sweep loop, carry specs."""

    def test_hotspot2d_iterate_plan_matches_generic(self):
        import numpy as np
        from repro.apps.base import squeeze_result
        from repro.apps.suite import get_benchmark
        from repro.backend import NumpyBackend, iterate_generic

        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((13, 11), 3)
        fast = bench.iterate(inputs, steps=6)
        slow = iterate_generic(NumpyBackend(), bench.build_program(), inputs,
                               6, carry=bench.carry_spec())
        assert np.array_equal(fast, squeeze_result(slow))

    def test_acoustic_carry_rotation_matches_manual_loop(self):
        import numpy as np
        from repro.apps.suite import get_benchmark

        bench = get_benchmark("acoustic")
        prev, curr, mask = bench.make_inputs((5, 7, 9), 1)
        expected_prev, expected_curr = prev, curr
        for _ in range(4):
            out = bench.run_lift([expected_prev, expected_curr, mask])
            expected_prev, expected_curr = expected_curr, out
        produced = bench.iterate([prev, curr, mask], steps=4)
        assert np.array_equal(produced, expected_curr)

    def test_default_carry_spec(self):
        from repro.apps.suite import get_benchmark

        assert get_benchmark("stencil2d").carry_spec() == ("out",)
        assert get_benchmark("hotspot2d").carry_spec() == ("out", None)
        assert get_benchmark("acoustic").carry_spec() == (1, "out", None)


class TestTunerSteadyMeasurement:
    def test_functional_validator_checks_plan_bit_identity(self, monkeypatch):
        from repro.backend import NumpyBackend
        from repro.engine import make_jobs, worker
        from repro.rewriting.strategies import Strategy

        plans = []
        real_plan = NumpyBackend.plan

        def spy(self, *args, **kwargs):
            plans.append(args[0])
            return real_plan(self, *args, **kwargs)

        monkeypatch.setattr(NumpyBackend, "plan", spy)
        monkeypatch.setattr(worker, "_VALIDATED", set())
        job = make_jobs("stencil2d", (16, 16), "nvidia", Strategy(name="naive"),
                        [{}], validate=True)[0]
        lowered = worker._lowered_for(job)
        worker._validate_variant(job, lowered)  # must not raise
        # The variant's plan was built and compared, once; the verdict is
        # memoised per variant per process.
        assert len(plans) == 1 and plans[0] is lowered.program
        worker._validate_variant(job, lowered)
        assert len(plans) == 1
