"""What a search point means: the space, and how one point is evaluated.

The first half of this module defines the space the engine searches — the
macro-exploration variant set of a benchmark (:func:`explore_variants_for`),
the tunable parameters of one variant (:func:`parameter_space_for`), and how
a configuration of those parameters is read back (:func:`kernel_config_from`)
and scored on the device model (:func:`simulate`).

The second half is the evaluator, :func:`evaluate_job`.  It receives a
picklable :class:`~repro.engine.jobs.EvaluationJob`, *reconstructs* the Lift
program from the benchmark registry, lowers it with the job's strategy,
optionally validates it (:func:`_validate_variant`) and scores the
configuration with the simulator or by execution.  The engine calls it
inline for simulator-only jobs and through a ``ProcessPoolExecutor`` for
validating / measured ones; nothing compiled ever crosses the process
boundary (see :mod:`repro.backend.cache` for the rationale).  Instead each
process keeps

* a lowered-program memo per (benchmark, variant) — lowering runs once per
  variant per process, and
* the process-wide compilation cache — each variant compiles once per
  process, and
* a validated-variant memo — the functional check runs once per variant
  per process, not once per configuration.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..apps.base import StencilBenchmark
from ..apps.suite import get_benchmark
from ..backend import BackendMismatch, CompileError, get_backend
from ..backend.plan import time_steady
from ..rewriting.exploration import ExplorationResult, explore, verify_variants
from ..rewriting.strategies import LoweredProgram, Strategy, lower_program
from ..runtime.simulator.device import DEVICES, DeviceModel
from ..runtime.simulator.executor import SimulationResult, VirtualDevice
from ..runtime.simulator.kernel_model import KernelConfig, ProblemInstance, build_profile
from ..tuning.parameters import Parameter, ParameterSpace, opencl_constraints
from .jobs import EvaluationJob, JobResult

#: Tile widths considered by the macro exploration (before validity filtering).
EXPLORATION_TILE_SIZES = (4, 6, 8, 10, 18, 34, 66)

#: Work-group extents considered per dimension.
WORKGROUP_CHOICES = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Sequential outputs per work-item considered by the tuner.
WORK_PER_THREAD_CHOICES = (1, 2, 4, 8, 16, 32)

#: Default tiny grids for the functional cross-check (per dimensionality).
VALIDATION_SHAPES: Dict[int, Tuple[int, ...]] = {2: (13, 11), 3: (5, 7, 9)}

# Per-process memo tables (re-populated lazily in every worker process).
_LOWERED: Dict[Tuple[str, Strategy], LoweredProgram] = {}
_VALIDATED: Set[Tuple[str, Strategy, str]] = set()
_MEASURED: Dict[Tuple[str, Strategy, int, int], float] = {}


# ---------------------------------------------------------------------------
# The search space
# ---------------------------------------------------------------------------

def explore_variants_for(benchmark: StencilBenchmark,
                         shape: Sequence[int]) -> List[ExplorationResult]:
    """The macro-exploration variant set the engine tunes for one benchmark.

    Tiles wider than the grid are dropped; the exploration keeps tiles
    that hold whole windows
    (:attr:`~repro.core.primitives.stencil.OverlappedTiling.holds_whole_windows`) but
    not exact coverage (:meth:`~repro.core.primitives.stencil.OverlappedTiling.covers`):
    nothing rounds the ND-range up, so a tile that does not cover the grid
    gives a kernel with a truncated output (ROADMAP.md, item 14).
    """
    shape = tuple(shape)
    radius = (benchmark.stencil_extent - 1) // 2
    return explore(
        benchmark.build_program(),
        stencil_size=benchmark.stencil_extent,
        stencil_step=1,
        padded_length=shape[-1] + 2 * radius,
        tile_sizes=[tile for tile in EXPLORATION_TILE_SIZES
                    if all(tile <= extent for extent in shape)],
        validate_tiles=False,
    )


def parameter_space_for(
    lowered: LoweredProgram,
    problem: ProblemInstance,
    device: DeviceModel,
) -> ParameterSpace:
    """The tunable parameters of one lowered Lift variant on one device."""
    ndims = problem.ndims
    parameters: List[Parameter] = []
    tiling = lowered.tiling
    if tiling is not None:
        # Tiled kernels fix the work-group to the tile's output block; only the
        # per-thread sequential work remains tunable.
        outputs_per_tile = tiling.outputs_per_tile
        wg = [("wg_x", (outputs_per_tile,)), ("wg_y", (outputs_per_tile,))]
        if ndims == 3:
            wg.append(("wg_z", (min(outputs_per_tile, 4),)))
        for name, values in wg[:ndims]:
            parameters.append(Parameter(name, values))
        parameters.append(Parameter("work_per_thread", (1, 2)))
    else:
        dim_names = ["wg_x", "wg_y", "wg_z"][:ndims]
        for name in dim_names:
            parameters.append(Parameter(name, WORKGROUP_CHOICES))
        parameters.append(Parameter("work_per_thread", WORK_PER_THREAD_CHOICES))

    constraints = opencl_constraints(
        max_workgroup_size=device.max_workgroup_size,
        output_shape=problem.output_shape,
    )
    if (lowered.strategy.use_local_memory and tiling is not None
            and tiling.local_elements(ndims) * problem.bytes_per_element
            > device.local_memory_bytes):
        # The staged tile does not fit the device's local memory, whatever
        # the configuration: the variant has no valid point on this device.
        constraints.append(lambda config: False)
    return ParameterSpace(parameters, constraints)


def kernel_config_from(lowered: LoweredProgram, config: Dict[str, object],
                       ndims: int) -> KernelConfig:
    """Translate a tuning configuration into the simulator's kernel config."""
    wg = tuple(
        int(config.get(name, 1)) for name in ["wg_x", "wg_y", "wg_z"][:ndims]
    )
    strategy = lowered.strategy
    return KernelConfig(
        workgroup_size=wg,
        work_per_thread=int(config.get("work_per_thread", 1)),
        tile_size=strategy.tile_size,
        use_local_memory=strategy.use_tiling and strategy.use_local_memory,
        unrolled=strategy.unroll_reduce,
    )


def simulate(lowered: LoweredProgram, problem: ProblemInstance,
             device: DeviceModel, config: Dict[str, object],
             label: Optional[str] = None) -> SimulationResult:
    """Score one configuration of one variant on the device model."""
    kernel_config = kernel_config_from(lowered, config, problem.ndims)
    profile = build_profile(lowered, problem, kernel_config, label=label)
    return VirtualDevice(device).run(profile)


def validation_shape(stencil_extent: int, ndims: int,
                     lowered: LoweredProgram,
                     min_size: int = 0) -> Tuple[int, ...]:
    """An input shape on which the variant computes the full output.

    Untiled variants work on any shape.  A tiled variant only reproduces the
    whole output when its tiles exactly cover the padded input
    (:meth:`~repro.core.primitives.stencil.OverlappedTiling.covers`);
    elsewhere its output is truncated, as nothing rounds the ND-range up
    (ROADMAP.md, item 14), so the grid is the geometry's smallest covering
    length.  ``min_size`` grows the grid to at least that extent per
    dimension (while preserving exact coverage) — measured scoring uses it
    to time kernels on non-trivial inputs.
    """
    tiling = lowered.tiling
    if tiling is None:
        if min_size > 0:
            return (min_size,) * ndims
        return VALIDATION_SHAPES[ndims]
    radius = (stencil_extent - 1) // 2
    padded = tiling.covering_length(max(8, lowered.stencil_size, min_size) + 2 * radius)
    return (padded - 2 * radius,) * ndims


def measurement_shape(stencil_extent: int, ndims: int, lowered: LoweredProgram,
                      measure_size: int) -> Tuple[int, ...]:
    """The grid measured scoring times a variant on.

    The per-dimension target holds the element count roughly constant
    across dimensionalities so 3D jobs stay affordable; tiled variants are
    then grown to the nearest exact-coverage shape.  Exposed so the driver
    can report measured throughput over the *same* grid the workers timed.
    """
    target = measure_size if ndims == 2 else max(16, round(measure_size ** (2 / 3)))
    return validation_shape(stencil_extent, ndims, lowered, min_size=target)


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

def _lowered_for(job: EvaluationJob) -> LoweredProgram:
    memo_key = (job.benchmark, job.variant)
    lowered = _LOWERED.get(memo_key)
    if lowered is None:
        benchmark = get_benchmark(job.benchmark)
        lowered = lower_program(benchmark.build_program(), job.variant)
        _LOWERED[memo_key] = lowered
    return lowered


def _validate_variant(job: EvaluationJob, lowered: LoweredProgram) -> None:
    """The functional check a variant must pass before it may report a cost.

    Two checks on a small grid, once per variant per process:

    1. the lowered variant against the high-level program, both executed by
       ``job.validate_backend`` (:func:`~repro.rewriting.exploration.verify_variants`)
       — ``"numpy"`` compares two compiled runs, ``"crosscheck"`` additionally
       verifies every execution against the reference interpreter, the slow,
       trusted oracle.  Divergence means a rewrite (or the compiler) broke
       the kernel this configuration belongs to;
    2. the variant's execution plan against the generic compiled path, bit
       for bit — the serving layer executes tuned variants through
       buffer-pooled plans.  Variants only the interpreter fallback can
       execute have no plan to compare; they validated above.

    Either failure raises, so the job fails loudly instead of reporting a
    cost for a miscompiled variant.
    """
    memo_key = (job.benchmark, job.variant, job.validate_backend)
    if memo_key in _VALIDATED:
        return
    benchmark = get_benchmark(job.benchmark)
    shape = validation_shape(benchmark.stencil_extent, benchmark.ndims, lowered)
    inputs = [np.asarray(grid) for grid in benchmark.make_inputs(shape, 23)]
    variant = ExplorationResult(strategy=lowered.strategy, lowered=lowered)
    if not verify_variants(benchmark.build_program(), [variant], inputs,
                           backend=job.validate_backend):
        raise BackendMismatch(
            f"{job.benchmark}: variant {job.variant.describe()!r} diverges "
            f"from the high-level program under the {job.validate_backend} backend"
        )
    backend = get_backend("numpy")
    try:
        planned = backend.plan(lowered.program, inputs).run(inputs)
    except CompileError:
        pass  # no compiled kernel, so no plan: check 1 was the whole check
    else:
        if not np.array_equal(backend.run(lowered.program, inputs), planned):
            raise BackendMismatch(
                f"{job.benchmark}: execution plan diverges from the generic "
                f"path for variant {job.variant.describe()!r}"
            )
    _VALIDATED.add(memo_key)


def _measured_cost(job: EvaluationJob, lowered: LoweredProgram) -> float:
    """Time the variant's steady-state execution on a real grid.

    The simulator scores a *device model*; measured scoring instead executes
    the variant on this machine and takes the best of ``measure_runs``
    timings — the closest analogue of the paper's on-device auto-tuning
    runs.  Timing goes through the default
    :class:`~repro.backend.plan.ExecutionPlan` (warmed until its tape
    replays, :func:`~repro.backend.plan.time_steady`) — the one plan the
    serving layer builds, so the cost is the steady-state sweep a server
    actually pays.  Measured costs are wall-clock and therefore not
    bit-reproducible across machines; the engine keeps them in a separate
    memo keyspace (see :meth:`EvaluationJob.fingerprint`).

    The compiled NumPy execution is configuration-independent (work-group
    geometry only exists in the device model), so measured mode ranks
    *variants*: the timing is memoised per variant per process, and every
    configuration of a variant reports that variant's measured cost.
    """
    memo_key = (job.benchmark, job.variant, job.measure_runs, job.measure_size)
    cached = _MEASURED.get(memo_key)
    if cached is not None:
        return cached

    benchmark = get_benchmark(job.benchmark)
    shape = measurement_shape(benchmark.stencil_extent, benchmark.ndims,
                              lowered, job.measure_size)
    inputs = [np.asarray(grid) for grid in benchmark.make_inputs(shape, 29)]
    backend = get_backend("numpy")
    runs = max(1, job.measure_runs)
    try:
        best = time_steady(backend.plan(lowered.program, inputs), inputs, runs)
    except CompileError:
        # Plans have no interpreter fallback; a variant the compiler cannot
        # handle is still timed through the generic path (which falls back),
        # so measured-mode search never loses coverage over validation.
        backend.run(lowered.program, inputs)
        best = float("inf")
        for _ in range(runs):
            started = time.perf_counter()
            backend.run(lowered.program, inputs)
            best = min(best, time.perf_counter() - started)
    _MEASURED[memo_key] = best
    return best


def evaluate_job(job: EvaluationJob) -> JobResult:
    """Score one (variant, configuration) point; never raises.

    Errors are reported in-band through :attr:`JobResult.error` so one bad
    point cannot take down a whole batch (a raising job would poison the
    executor's result iterator).
    """
    try:
        lowered = _lowered_for(job)
        if job.validate:
            _validate_variant(job, lowered)
        if job.measure_runs > 0:
            cost = _measured_cost(job, lowered)
        else:
            problem = get_benchmark(job.benchmark).problem(job.shape)
            cost = simulate(lowered, problem, DEVICES[job.device],
                            job.config_dict).runtime_s
        return JobResult(cost=float(cost))
    except Exception as error:  # noqa: BLE001 - reported in-band, see docstring
        return JobResult(cost=float("inf"),
                         error=f"{type(error).__name__}: {error}")


__all__ = [
    "EXPLORATION_TILE_SIZES",
    "VALIDATION_SHAPES",
    "WORKGROUP_CHOICES",
    "WORK_PER_THREAD_CHOICES",
    "evaluate_job",
    "explore_variants_for",
    "kernel_config_from",
    "measurement_shape",
    "parameter_space_for",
    "simulate",
    "validation_shape",
]
