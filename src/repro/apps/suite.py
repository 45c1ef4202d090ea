"""The benchmark registry: Table 1 of the paper.

``ALL_BENCHMARKS`` maps benchmark keys to :class:`StencilBenchmark` instances;
``table1_rows`` regenerates the contents of Table 1; ``FIGURE7_BENCHMARKS``
and ``FIGURE8_BENCHMARKS`` select the two evaluation subsets.
"""

from __future__ import annotations

from typing import Dict, List

from .acoustic import ACOUSTIC
from .base import StencilBenchmark
from .gaussian import GAUSSIAN
from .gradient import GRADIENT
from .heat import HEAT
from .hotspot import HOTSPOT2D, HOTSPOT3D
from .jacobi import JACOBI2D_5PT, JACOBI2D_9PT, JACOBI3D_7PT, JACOBI3D_13PT
from .poisson import POISSON
from .srad import SRAD1, SRAD2
from .stencil2d import STENCIL2D

ALL_BENCHMARKS: Dict[str, StencilBenchmark] = {
    "stencil2d": STENCIL2D,
    "srad1": SRAD1,
    "srad2": SRAD2,
    "hotspot2d": HOTSPOT2D,
    "hotspot3d": HOTSPOT3D,
    "acoustic": ACOUSTIC,
    "gaussian": GAUSSIAN,
    "gradient": GRADIENT,
    "jacobi2d5pt": JACOBI2D_5PT,
    "jacobi2d9pt": JACOBI2D_9PT,
    "jacobi3d7pt": JACOBI3D_7PT,
    "jacobi3d13pt": JACOBI3D_13PT,
    "poisson": POISSON,
    "heat": HEAT,
}

#: The six benchmarks with hand-written reference kernels (Figure 7).
FIGURE7_BENCHMARKS: List[str] = [
    "acoustic",
    "hotspot2d",
    "hotspot3d",
    "srad1",
    "srad2",
    "stencil2d",
]

#: The eight single-kernel benchmarks compared against PPCG (Figure 8).
FIGURE8_BENCHMARKS: List[str] = [
    "gaussian",
    "gradient",
    "heat",
    "jacobi2d5pt",
    "jacobi2d9pt",
    "jacobi3d13pt",
    "jacobi3d7pt",
    "poisson",
]


#: Benchmarks whose real workload is time-stepping (the apps the paper's
#: iterative-execution discussion targets); the set the plan, fusion and
#: parallel-replay tests parametrise over.
ITERATIVE_BENCHMARKS: List[str] = [
    "hotspot2d",
    "hotspot3d",
    "acoustic",
    "heat",
    "jacobi2d5pt",
]


def get_benchmark(name: str) -> StencilBenchmark:
    key = name.lower()
    if key not in ALL_BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(ALL_BENCHMARKS)}")
    return ALL_BENCHMARKS[key]


def app_userfuns():
    """Every module-level user function defined by a benchmark app.

    Registered as a lazy source with :mod:`repro.core.serialize` so programs
    that reference an app's user functions (e.g. a serialized Stencil2D
    submitted to the execution service) deserialize without manual
    registration.
    """
    import sys

    from ..core.ir import UserFun

    seen: Dict[int, UserFun] = {}
    for benchmark in ALL_BENCHMARKS.values():
        module = sys.modules.get(benchmark.build_program.__module__)
        if module is None:
            continue
        for value in vars(module).values():
            if isinstance(value, UserFun):
                seen[id(value)] = value
    return list(seen.values())


from ..core import serialize as _serialize  # noqa: E402  (needs ALL_BENCHMARKS)

_serialize.add_userfun_source(app_userfuns)


def execution_requests(benchmarks=None, shape=None, seed: int = 0,
                       copies: int = 1):
    """Suite-wide request helper: execution requests for many benchmarks.

    Returns a list of :class:`repro.service.requests.ExecutionRequest`, one
    per benchmark per copy (copies get distinct seeds), each with concrete
    inputs generated by the benchmark's own ``make_inputs``.  ``shape``
    applies to every 2-D benchmark; 3-D benchmarks get a small default so a
    mixed suite stays affordable.  This is how experiment drivers and the
    load generator enqueue whole-suite traffic against the service.
    """
    from ..service.requests import ExecutionRequest

    keys = list(benchmarks) if benchmarks else sorted(ALL_BENCHMARKS)
    requests = []
    for key in keys:
        benchmark = get_benchmark(key)
        bench_shape = tuple(shape) if shape and benchmark.ndims == len(shape) \
            else ((13, 11) if benchmark.ndims == 2 else (5, 7, 9))
        for copy in range(copies):
            requests.append(
                ExecutionRequest.for_benchmark(key, shape=bench_shape,
                                               seed=seed + copy)
            )
    return requests


def table1_rows() -> List[Dict[str, object]]:
    """Regenerate Table 1: benchmark name, dimensionality, points, input size, #grids."""
    def size_string(benchmark: StencilBenchmark) -> str:
        default = "×".join(str(extent) for extent in benchmark.default_shape)
        if benchmark.large_shape and benchmark.large_shape != benchmark.default_shape:
            large = "×".join(str(extent) for extent in benchmark.large_shape)
            return f"{default} / {large}"
        return default

    rows = []
    for key, benchmark in ALL_BENCHMARKS.items():
        rows.append(
            {
                "key": key,
                "benchmark": benchmark.name,
                "dim": f"{benchmark.ndims}D",
                "points": benchmark.points,
                "input_size": size_string(benchmark),
                "grids": benchmark.num_grids,
            }
        )
    return rows


__all__ = [
    "ALL_BENCHMARKS",
    "FIGURE7_BENCHMARKS",
    "FIGURE8_BENCHMARKS",
    "ITERATIVE_BENCHMARKS",
    "app_userfuns",
    "execution_requests",
    "get_benchmark",
    "table1_rows",
]
