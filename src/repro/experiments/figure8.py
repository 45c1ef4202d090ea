"""Figure 8: Lift-generated kernels vs. the PPCG polyhedral compiler.

For each of the eight single-kernel benchmarks from Rawat et al., both input
sizes and the three GPUs, the experiment tunes Lift and PPCG with the same
budget on the same virtual device and reports the speedup of the best Lift
kernel over the best PPCG kernel.  The paper's accompanying observation —
how often the best Lift kernel uses overlapped tiling on each platform — is
reported by :func:`tiling_usage`.

Large inputs are skipped on the ARM GPU, as in the paper ("large input sizes
did not fit onto the ARM GPU").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..apps.suite import FIGURE8_BENCHMARKS, get_benchmark
from ..engine import SearchEngine
from ..runtime.simulator.device import DEVICES
from .pipeline import (
    lift_best_result,
    ppcg_best_result,
    scaled_shape as _scaled_shape,
)


@dataclass
class Figure8Row:
    """One bar of Figure 8."""

    benchmark: str
    device: str
    size: str                   # "small" or "large"
    lift_gelements: float
    ppcg_gelements: float
    speedup_over_ppcg: float
    lift_strategy: str
    lift_uses_tiling: bool
    ppcg_configuration: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "device": self.device,
            "size": self.size,
            "speedup_over_ppcg": round(self.speedup_over_ppcg, 3),
            "lift_gelements_per_s": round(self.lift_gelements, 4),
            "ppcg_gelements_per_s": round(self.ppcg_gelements, 4),
            "lift_uses_tiling": self.lift_uses_tiling,
        }


def run_figure8(
    benchmarks: Optional[Sequence[str]] = None,
    devices: Optional[Sequence[str]] = None,
    sizes: Sequence[str] = ("small", "large"),
    tuner_budget: int = 2000,
    shape_scale: float = 1.0,
    workers: int = 1,
    store=None,
) -> List[Figure8Row]:
    """Run the Figure-8 comparison (Lift vs PPCG).

    Every Lift search of the sweep runs on one
    :class:`~repro.engine.SearchEngine` built from ``workers`` / ``store``
    (see :func:`~repro.experiments.figure7.run_figure7`).
    """
    benchmarks = list(benchmarks or FIGURE8_BENCHMARKS)
    device_keys = list(devices or DEVICES.keys())
    rows: List[Figure8Row] = []
    with SearchEngine(store=store, workers=workers) as engine:
        for key in benchmarks:
            benchmark = get_benchmark(key)
            for size in sizes:
                for device_key in device_keys:
                    device = DEVICES[device_key]
                    if device.vendor == "ARM" and size == "large":
                        continue  # paper: large inputs did not fit on the ARM board
                    shape = _scaled_shape(benchmark.shape_for(size), shape_scale)
                    lift = lift_best_result(
                        benchmark, shape=shape, device=device,
                        tuner_budget=tuner_budget, engine=engine,
                    )
                    ppcg, ppcg_config, _ = ppcg_best_result(
                        benchmark, device, shape=shape, tuner_budget=tuner_budget
                    )
                    rows.append(
                        Figure8Row(
                            benchmark=benchmark.name,
                            device=device.name,
                            size=size,
                            lift_gelements=lift.gelements_per_second,
                            ppcg_gelements=ppcg.gelements_per_second,
                            speedup_over_ppcg=(
                                lift.gelements_per_second / ppcg.gelements_per_second
                            ),
                            lift_strategy=lift.strategy,
                            lift_uses_tiling=lift.uses_tiling,
                            ppcg_configuration=ppcg_config,
                        )
                    )
    return rows


def tiling_usage(rows: Sequence[Figure8Row]) -> Dict[str, float]:
    """Fraction of best Lift kernels using overlapped tiling, per device.

    The paper reports that none of the best ARM/AMD kernels use tiling while
    roughly a third of the Nvidia ones do (§7.2).
    """
    usage: Dict[str, List[bool]] = {}
    for row in rows:
        usage.setdefault(row.device, []).append(row.lift_uses_tiling)
    return {
        device: (sum(flags) / len(flags) if flags else 0.0)
        for device, flags in usage.items()
    }


def format_figure8(rows: Sequence[Figure8Row]) -> str:
    header = (
        f"{'Benchmark':<14} {'Device':<16} {'Size':<6} {'Lift GE/s':>10} "
        f"{'PPCG GE/s':>10} {'Speedup':>8}  {'Tiled?'}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.benchmark:<14} {row.device:<16} {row.size:<6} "
            f"{row.lift_gelements:>10.3f} {row.ppcg_gelements:>10.3f} "
            f"{row.speedup_over_ppcg:>8.2f}  {'yes' if row.lift_uses_tiling else 'no'}"
        )
    lines.append("")
    lines.append("Tiling usage among best Lift kernels per device:")
    for device, fraction in tiling_usage(rows).items():
        lines.append(f"  {device:<16} {fraction * 100:.0f}%")
    return "\n".join(lines)



__all__ = ["Figure8Row", "run_figure8", "tiling_usage", "format_figure8"]
