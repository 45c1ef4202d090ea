"""Figure 7: Lift-generated kernels vs. hand-written reference kernels.

For each of the six benchmarks with hand-optimised OpenCL implementations
(Acoustic, Hotspot2D, Hotspot3D, SRAD1, SRAD2, Stencil2D) and each of the
three GPUs, the experiment reports giga-elements updated per second for the
best Lift-generated kernel and for the reference kernel — the same rows the
paper plots in Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..apps.suite import FIGURE7_BENCHMARKS, get_benchmark
from ..engine import SearchEngine
from ..runtime.simulator.device import DEVICES
from .pipeline import (
    lift_best_result,
    reference_result,
    scaled_shape as _scaled_shape,
)


@dataclass
class Figure7Row:
    """One bar pair of Figure 7."""

    benchmark: str
    device: str
    lift_gelements: float
    reference_gelements: float
    lift_strategy: str
    lift_uses_tiling: bool

    @property
    def speedup_over_reference(self) -> float:
        return self.lift_gelements / self.reference_gelements

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "device": self.device,
            "lift_gelements_per_s": round(self.lift_gelements, 4),
            "reference_gelements_per_s": round(self.reference_gelements, 4),
            "lift_vs_reference": round(self.speedup_over_reference, 3),
            "lift_strategy": self.lift_strategy,
        }


def run_figure7(
    benchmarks: Optional[Sequence[str]] = None,
    devices: Optional[Sequence[str]] = None,
    tuner_budget: int = 2000,
    shape_scale: float = 1.0,
    workers: int = 1,
    store=None,
) -> List[Figure7Row]:
    """Run the Figure-7 comparison.

    ``shape_scale`` can shrink the problem sizes (used by the fast test-suite
    configuration); the default reproduces the paper's sizes.  Every Lift
    search of the sweep runs on one :class:`~repro.engine.SearchEngine`
    built from ``workers`` / ``store`` (a store memoises costs across runs;
    the sweep scores on the simulator, which is evaluated in this process
    at any worker count).
    """
    benchmarks = list(benchmarks or FIGURE7_BENCHMARKS)
    device_keys = list(devices or DEVICES.keys())
    rows: List[Figure7Row] = []
    with SearchEngine(store=store, workers=workers) as engine:
        for key in benchmarks:
            benchmark = get_benchmark(key)
            shape = _scaled_shape(benchmark.default_shape, shape_scale)
            for device_key in device_keys:
                device = DEVICES[device_key]
                lift = lift_best_result(
                    benchmark, shape=shape, device=device,
                    tuner_budget=tuner_budget, engine=engine,
                )
                reference = reference_result(benchmark, key, device, shape=shape)
                rows.append(
                    Figure7Row(
                        benchmark=benchmark.name,
                        device=device.name,
                        lift_gelements=lift.gelements_per_second,
                        reference_gelements=reference.gelements_per_second,
                        lift_strategy=lift.strategy,
                        lift_uses_tiling=lift.uses_tiling,
                    )
                )
    return rows


def format_figure7(rows: Sequence[Figure7Row]) -> str:
    header = (
        f"{'Benchmark':<12} {'Device':<16} {'Lift GE/s':>10} {'Ref GE/s':>10} "
        f"{'Lift/Ref':>9}  {'Lift strategy'}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.benchmark:<12} {row.device:<16} {row.lift_gelements:>10.3f} "
            f"{row.reference_gelements:>10.3f} {row.speedup_over_reference:>9.2f}  "
            f"{row.lift_strategy}"
        )
    return "\n".join(lines)


__all__ = ["Figure7Row", "run_figure7", "format_figure7"]
