"""The shared experiment pipeline: macro exploration → parameter tuning → simulation.

This mirrors the paper's methodology (§6):

1. the macro rewrites produce several low-level Lift expressions per benchmark
   (untiled, and overlapped tiling with several tile sizes / local-memory
   choices);
2. each variant's numerical parameters (work-group sizes, work per thread) are
   tuned by the ATF-style tuner against the virtual device;
3. the fastest variant+configuration wins and is reported, just like the
   best-found kernel in the paper.

Steps 1–2 are :meth:`repro.engine.SearchEngine.run` — the one driver of the
Lift search; :func:`lift_best_result` runs it and simulates the winner.  The
same tuner and virtual device are used for the PPCG baseline, matching the
paper's "both approaches auto-tune for up to three hours" setup.  Imports
point one way: ``experiments → engine → tuning / rewriting / simulator``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..apps.base import StencilBenchmark
from ..baselines.ppcg import PPCGCompiler, ppcg_parameter_space
from ..baselines.reference_kernels import reference_profile
from ..engine import (
    EXPLORATION_TILE_SIZES,
    VALIDATION_SHAPES,
    WORK_PER_THREAD_CHOICES,
    WORKGROUP_CHOICES,
    SearchEngine,
    explore_variants_for,
    kernel_config_from,
    parameter_space_for,
    simulate,
)
from ..rewriting.strategies import lower_program
from ..runtime.simulator.device import DeviceModel
from ..runtime.simulator.executor import SimulationResult, VirtualDevice
from ..tuning.tuner import AutoTuner


@dataclass
class BenchmarkOutcome:
    """The best kernel found for one benchmark on one device."""

    benchmark: str
    device: DeviceModel
    result: SimulationResult
    configuration: Dict[str, object]
    strategy: str
    uses_tiling: bool
    evaluations: int

    @property
    def gelements_per_second(self) -> float:
        return self.result.gelements_per_second

    @property
    def runtime_ms(self) -> float:
        return self.result.runtime_ms

    def describe(self) -> str:
        return (
            f"{self.benchmark} on {self.device.name}: "
            f"{self.gelements_per_second:.3f} GElem/s "
            f"({self.strategy}, {self.configuration})"
        )


# ---------------------------------------------------------------------------
# Lift: explore, tune, simulate
# ---------------------------------------------------------------------------

def scaled_shape(shape: Sequence[int], scale: float) -> Tuple[int, ...]:
    """Shrink an input shape by ``scale`` (>= 1 leaves it untouched).

    Shared by the figure drivers and the engine CLI so every entry point
    scales the paper's input sizes the same way.
    """
    if scale >= 1.0:
        return tuple(shape)
    return tuple(max(16, int(extent * scale)) for extent in shape)


def lift_best_result(
    benchmark: StencilBenchmark,
    shape: Optional[Sequence[int]] = None,
    device: Optional[DeviceModel] = None,
    tuner_budget: int = 300,
    engine: Optional[SearchEngine] = None,
) -> BenchmarkOutcome:
    """Run the full Lift pipeline for one benchmark on one device.

    The search is :meth:`SearchEngine.run` on ``engine`` — a private engine
    evaluating inline, without a store, when omitted.  Callers sweeping
    many benchmarks, or wanting worker processes or a results store, build
    one :class:`~repro.engine.SearchEngine` and pass it to every call (the
    figure drivers do this); they keep ownership and ``close()`` it.

    Functional validation is the engine's setting: pass
    ``SearchEngine(validate="crosscheck")`` to check every tuned variant
    against the reference interpreter, and its execution plan against the
    generic path bit for bit, at any worker count
    (:func:`repro.engine.worker._validate_variant`).
    """
    if device is None:
        raise ValueError("a device model is required")
    shape = tuple(shape or benchmark.default_shape)
    with (SearchEngine() if engine is None else nullcontext(engine)) as engine:
        outcome = engine.run(
            benchmark,
            shape=shape,
            device=device,
            budget=tuner_budget,
            strategy="exhaustive",
        )

    best = outcome.best
    strategy_text = best.variant.describe()
    lowered = lower_program(benchmark.build_program(), best.variant)
    return BenchmarkOutcome(
        benchmark=benchmark.name,
        device=device,
        result=simulate(lowered, benchmark.problem(shape), device,
                        best.best_config,
                        label=f"lift-{benchmark.name}-{strategy_text}"),
        configuration=dict(best.best_config),
        strategy=strategy_text,
        uses_tiling=best.variant.use_tiling,
        evaluations=outcome.evaluations,
    )


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def reference_result(
    benchmark: StencilBenchmark,
    benchmark_key: str,
    device: DeviceModel,
    shape: Optional[Sequence[int]] = None,
) -> SimulationResult:
    """Simulate the hand-written reference kernel for one Figure-7 benchmark."""
    shape = tuple(shape or benchmark.default_shape)
    problem = benchmark.problem(shape)
    profile = reference_profile(benchmark_key, problem, device)
    return VirtualDevice(device).run(profile)


def ppcg_best_result(
    benchmark: StencilBenchmark,
    device: DeviceModel,
    shape: Optional[Sequence[int]] = None,
    tuner_budget: int = 400,
) -> Tuple[SimulationResult, Dict[str, object], int]:
    """Tune and simulate the PPCG baseline for one benchmark on one device."""
    shape = tuple(shape or benchmark.default_shape)
    problem = benchmark.problem(shape)
    radius = (benchmark.stencil_extent - 1) // 2
    compiler = PPCGCompiler(problem, stencil_radius=radius)
    space = ppcg_parameter_space(problem, device)
    virtual = VirtualDevice(device)

    def simulate_schedule(config: Dict[str, object]) -> float:
        schedule = compiler.schedule_from_config(config)
        return virtual.run(compiler.profile(schedule, device)).runtime_s

    tuning = AutoTuner(
        space, lambda configs: [simulate_schedule(config) for config in configs],
        budget=tuner_budget, strategy="exhaustive",
    ).tune()
    schedule = compiler.schedule_from_config(tuning.best_configuration)
    result = virtual.run(compiler.profile(schedule, device))
    return result, dict(tuning.best_configuration), tuning.evaluations


__all__ = [
    "BenchmarkOutcome",
    "VALIDATION_SHAPES",
    "explore_variants_for",
    "kernel_config_from",
    "lift_best_result",
    "parameter_space_for",
    "scaled_shape",
    "reference_result",
    "ppcg_best_result",
    "EXPLORATION_TILE_SIZES",
    "WORKGROUP_CHOICES",
    "WORK_PER_THREAD_CHOICES",
]
