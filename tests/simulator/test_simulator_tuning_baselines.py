"""Tests for the virtual device, the auto-tuner and the baseline models."""

import pytest

from repro.baselines.ppcg import PPCGCompiler, PolyhedralSchedule, ppcg_parameter_space
from repro.baselines.reference_kernels import REFERENCE_KERNELS, reference_profile
from repro.runtime.simulator import (
    AMD_HD7970,
    ARM_MALI_T628,
    DEVICES,
    NVIDIA_K20C,
    KernelConfig,
    ProblemInstance,
    VirtualDevice,
    build_profile,
    estimate_runtime,
)
from repro.runtime.simulator.model import occupancy_factor, workgroup_efficiency
from repro.rewriting.strategies import NAIVE, lower_program, tiled_strategy
from repro.tuning import (
    AutoTuner,
    Parameter,
    ParameterSpace,
    exhaustive_search,
    hill_climb_search,
    opencl_constraints,
    random_search,
)
from repro.tuning.search import DEFAULT_BATCH_SIZE
from repro.apps.jacobi import build_jacobi2d_5pt


def jacobi_problem(n=1024):
    return ProblemInstance(name="jacobi", output_shape=(n, n), stencil_points=5)


def each(cost):
    """An evaluator that costs every configuration of a chunk with ``cost``."""
    return lambda configs: [cost(config) for config in configs]


def naive_profile(problem, wg=(16, 16), wpt=1):
    lowered = lower_program(build_jacobi2d_5pt(), NAIVE)
    return build_profile(lowered, problem, KernelConfig(workgroup_size=wg, work_per_thread=wpt))


class TestDeviceModels:
    def test_three_paper_devices_exist(self):
        assert set(DEVICES) == {"nvidia", "amd", "arm"}

    def test_mali_has_emulated_local_memory(self):
        assert not ARM_MALI_T628.dedicated_local_memory
        assert NVIDIA_K20C.dedicated_local_memory

    def test_describe_mentions_bandwidth(self):
        assert "GB/s" in NVIDIA_K20C.describe()


class TestKernelProfiles:
    def test_untiled_profile_reads_every_neighbour(self):
        problem = jacobi_problem(64)
        profile = naive_profile(problem)
        assert profile.global_read_bytes == 64 * 64 * 4 * 5
        assert not profile.uses_local_memory

    def test_work_per_thread_reduces_thread_count(self):
        problem = jacobi_problem(64)
        assert naive_profile(problem, wpt=4).global_threads == 64 * 64 // 4

    def test_tiled_profile_trades_global_for_local_traffic(self):
        problem = jacobi_problem(64)
        lowered = lower_program(build_jacobi2d_5pt(), tiled_strategy(18))
        config = KernelConfig(workgroup_size=(16, 16), tile_size=18, use_local_memory=True)
        profile = build_profile(lowered, problem, config)
        assert profile.uses_local_memory
        assert profile.local_memory_per_wg == 18 * 18 * 4
        assert profile.global_read_bytes < 64 * 64 * 4 * 5
        assert profile.local_traffic_bytes > 0

    def test_problem_flops_default(self):
        problem = ProblemInstance("p", (8, 8), stencil_points=5)
        assert problem.effective_flops() > 0


class TestTimingModel:
    def test_more_reads_take_longer(self):
        small = naive_profile(ProblemInstance("p", (512, 512), 5))
        large = naive_profile(ProblemInstance("p", (512, 512), 25))
        assert (
            estimate_runtime(large, NVIDIA_K20C).total_s
            > estimate_runtime(small, NVIDIA_K20C).total_s
        )

    def test_bigger_problem_takes_longer(self):
        small = naive_profile(jacobi_problem(256))
        large = naive_profile(jacobi_problem(2048))
        assert (
            estimate_runtime(large, NVIDIA_K20C).total_s
            > estimate_runtime(small, NVIDIA_K20C).total_s
        )

    def test_low_occupancy_penalised(self):
        problem = jacobi_problem(2048)
        many_threads = naive_profile(problem, wpt=1)
        few_threads = naive_profile(problem, wpt=32)
        assert occupancy_factor(few_threads, NVIDIA_K20C) <= occupancy_factor(
            many_threads, NVIDIA_K20C
        )

    def test_local_memory_limits_occupancy(self):
        problem = ProblemInstance("p", (64, 64, 64), stencil_points=7)
        lowered = lower_program(build_jacobi2d_5pt(), tiled_strategy(18))
        config = KernelConfig(workgroup_size=(16, 16), tile_size=18, use_local_memory=True)
        profile = build_profile(lowered, problem, config)
        heavy = profile.__class__(**{**profile.__dict__, "local_memory_per_wg": 40 * 1024})
        assert occupancy_factor(heavy, NVIDIA_K20C) < occupancy_factor(profile, NVIDIA_K20C)

    def test_workgroup_multiple_efficiency(self):
        problem = jacobi_problem(512)
        aligned = naive_profile(problem, wg=(64, 1))
        misaligned = naive_profile(problem, wg=(3, 1))
        assert workgroup_efficiency(aligned, AMD_HD7970) > workgroup_efficiency(
            misaligned, AMD_HD7970
        )

    def test_oversized_workgroup_heavily_penalised(self):
        problem = jacobi_problem(512)
        oversized = naive_profile(problem, wg=(64, 32))  # 2048 > AMD limit of 256
        assert workgroup_efficiency(oversized, AMD_HD7970) <= 0.05

    def test_local_memory_useless_on_mali(self):
        problem = jacobi_problem(1024)
        lowered = lower_program(build_jacobi2d_5pt(), tiled_strategy(18))
        tiled = build_profile(
            lowered, problem,
            KernelConfig(workgroup_size=(16, 16), tile_size=18, use_local_memory=True),
        )
        untiled = naive_profile(problem, wg=(16, 16))
        device = ARM_MALI_T628
        assert (
            estimate_runtime(tiled, device).total_s
            >= estimate_runtime(untiled, device).total_s
        )

    def test_virtual_device_reports_throughput(self):
        problem = jacobi_problem(1024)
        result = VirtualDevice(NVIDIA_K20C).run(naive_profile(problem, wg=(16, 16)))
        assert result.runtime_s > 0
        assert result.gelements_per_second > 0
        assert "GElem/s" in result.describe()

    def test_run_best_picks_fastest(self):
        problem = jacobi_problem(1024)
        profiles = [naive_profile(problem, wg=(16, 16)), naive_profile(problem, wg=(3, 1))]
        best = VirtualDevice(NVIDIA_K20C).run_best(profiles)
        assert best.profile.workgroup_items == 256


class TestTuning:
    def _space(self):
        return ParameterSpace(
            [Parameter("wg_x", (8, 16, 32)), Parameter("wg_y", (8, 16, 32))],
            constraints=[lambda c: c["wg_x"] * c["wg_y"] <= 256],
        )

    def test_constraints_filter_configurations(self):
        space = self._space()
        configs = list(space.configurations())
        assert all(c["wg_x"] * c["wg_y"] <= 256 for c in configs)
        assert len(configs) < space.size()

    def test_exhaustive_search_finds_global_optimum(self):
        space = self._space()
        objective = lambda c: abs(c["wg_x"] * c["wg_y"] - 256)
        outcome = exhaustive_search(space, each(objective))
        assert outcome.best.cost == 0

    def test_random_and_hillclimb_respect_budget(self):
        space = self._space()
        objective = lambda c: -c["wg_x"] * c["wg_y"]
        assert random_search(space, each(objective), budget=5).evaluations <= 5
        assert hill_climb_search(space, each(objective), budget=5).evaluations <= 5

    def test_autotuner_front_end(self):
        tuner = AutoTuner(self._space(), each(lambda c: c["wg_x"]), budget=100)
        result = tuner.tune()
        assert result.best_configuration["wg_x"] == 8
        assert "best cost" in result.describe()

    def test_autotuner_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            AutoTuner(self._space(), each(lambda c: 0.0), strategy="annealing")

    def test_opencl_constraints(self):
        constraints = opencl_constraints(256, (128, 128))
        valid = {"wg_x": 16, "wg_y": 16}
        oversized = {"wg_x": 32, "wg_y": 32}
        assert all(c(valid) for c in constraints)
        assert not all(c(oversized) for c in constraints)

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace([Parameter("a", (1,)), Parameter("a", (2,))])

    def test_empty_parameter_values_rejected(self):
        with pytest.raises(ValueError):
            Parameter("a", ())

    def test_hillclimb_restarts_escape_plateau(self):
        # A flat plateau with a single needle: a walk starting on the
        # plateau sees no improving neighbour and stalls immediately, so
        # finding the needle requires fresh restart points.
        space = ParameterSpace([Parameter("x", tuple(range(40)))])
        objective = lambda c: 0.0 if c["x"] == 37 else 1.0

        def best_with(restarts):
            costs = []
            for seed in range(8):
                outcome = hill_climb_search(space, each(objective), budget=40,
                                            seed=seed, restarts=restarts)
                costs.append(outcome.best.cost)
            return costs

        single = best_with(restarts=1)
        many = best_with(restarts=30)
        assert sum(many) <= sum(single)
        assert 0.0 in many  # enough fresh basins to hit the needle

    def test_hillclimb_restarts_plumbed_through_autotuner(self):
        space = self._space()
        tuner = AutoTuner(space, each(lambda c: c["wg_x"] + c["wg_y"]), budget=50,
                          strategy="hillclimb", restarts=6)
        assert tuner.restarts == 6
        result = tuner.tune()
        assert result.best_configuration == {"wg_x": 8, "wg_y": 8}

    def test_evaluator_sees_chunks_in_submission_order(self):
        space = ParameterSpace([Parameter("x", tuple(range(150)))])
        chunks = []

        def evaluate(configs):
            chunks.append([config["x"] for config in configs])
            return [float(config["x"] % 7) for config in configs]

        outcome = exhaustive_search(space, evaluate)
        assert [len(chunk) for chunk in chunks] == [
            DEFAULT_BATCH_SIZE, DEFAULT_BATCH_SIZE, 150 - 2 * DEFAULT_BATCH_SIZE]
        assert [e.configuration["x"] for e in outcome.history] == list(range(150))
        assert [e.cost for e in outcome.history] == [x % 7 for x in range(150)]
        assert outcome.best.configuration == {"x": 0}  # first of the ties

    def test_evaluator_length_mismatch_rejected(self):
        space = self._space()
        with pytest.raises(ValueError):
            exhaustive_search(space, lambda configs: [0.0])


class TestBaselines:
    def test_reference_kernels_cover_figure7(self):
        assert set(REFERENCE_KERNELS) == {
            "stencil2d", "srad1", "srad2", "hotspot2d", "hotspot3d", "acoustic",
        }

    def test_unknown_reference_kernel_raises(self):
        with pytest.raises(KeyError):
            reference_profile("gaussian", jacobi_problem(64), NVIDIA_K20C)

    def test_hotspot_reference_is_nvidia_specific(self):
        problem = ProblemInstance("hotspot2d", (1024, 1024), 5, num_input_grids=2)
        nvidia = reference_profile("hotspot2d", problem, NVIDIA_K20C)
        amd = reference_profile("hotspot2d", problem, AMD_HD7970)
        assert nvidia.coalesced_fraction > amd.coalesced_fraction
        # And therefore it runs much slower on AMD than on Nvidia (paper §7.1).
        t_amd = estimate_runtime(amd, AMD_HD7970).total_s
        t_nvidia = estimate_runtime(nvidia, NVIDIA_K20C).total_s
        assert t_amd > 2 * t_nvidia

    def test_ppcg_always_tiles_and_uses_local_memory(self):
        problem = ProblemInstance("heat", (128, 128, 128), 7)
        compiler = PPCGCompiler(problem)
        schedule = PolyhedralSchedule((8, 8, 8), (8, 8))
        profile = compiler.profile(schedule, NVIDIA_K20C)
        assert profile.uses_local_memory
        assert profile.work_per_thread >= schedule.tile_sizes[0]

    def test_ppcg_parameter_space_respects_device_limits(self):
        problem = ProblemInstance("jacobi", (1024, 1024), 5)
        space = ppcg_parameter_space(problem, AMD_HD7970)
        for config in space.configurations():
            blocks = config["block_0"] * config["block_1"]
            assert blocks <= AMD_HD7970.max_workgroup_size

    def test_ppcg_3d_blocks_are_two_dimensional(self):
        problem = ProblemInstance("heat", (64, 64, 64), 7)
        space = ppcg_parameter_space(problem, NVIDIA_K20C)
        config = next(iter(space.configurations()))
        assert "block_2" not in config
