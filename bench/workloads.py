"""The four closed-loop workloads and their reference outputs.

Importing this module imports ``repro``: the runner starts a workload's
set-up clock *before* importing it, so ``setup_s`` covers the first
``import repro`` like a real caller's would.

Every workload follows one protocol (:class:`Workload`):

``set_up``        what a caller pays once — build, compile, capture, start,
                  warm (timed as ``setup_s``);
``oracle_check``  every path the workload uses, against the interpreter at
                  a small shape (harness cost, untimed);
``prepare``       seeded inputs and their references, computed on the
                  generic compiled path — outside the path under test and
                  outside the timed window;
``run_op``        one closed-loop op: call, wait, verify bit-identical.
"""

from __future__ import annotations

import resource
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.apps.base import squeeze_result
from repro.apps.suite import get_benchmark
from repro.backend import (CompilationCache, InterpreterBackend, NumpyBackend,
                           PlanCache, iterate_generic)
from repro.service.requests import ExecutionRequest

from . import make_inputs, spec
from .procs import ServerProcess
from .trace import Tracer


class Recorder:
    """Per-op-class counts and latencies of one measured window."""

    def __init__(self) -> None:
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.latencies: Dict[str, List[float]] = {}
        self.cycles: List[float] = []   # seconds per loop turn: op plus verification
        self.cells = 0          # cell updates of verified ops only
        self.busy_s = 0.0       # time inside calls into the program
        self.first_error = ""

    def add(self, op_class: str, seconds: float, cells: int,
            attempted: int = 1, failed: int = 0, error: str = "") -> None:
        self.attempted[op_class] = self.attempted.get(op_class, 0) + attempted
        self.failed[op_class] = self.failed.get(op_class, 0) + failed
        self.latencies.setdefault(op_class, []).append(seconds)
        self.cells += cells
        self.busy_s += seconds
        if error and not self.first_error:
            self.first_error = error


def private_backend() -> NumpyBackend:
    """A compiled backend with caches of its own: references and cold rungs
    share nothing with the path under test."""
    return NumpyBackend(cache=CompilationCache(), fallback=False, plans=PlanCache())


def same_bits(result: Any, reference: np.ndarray) -> bool:
    return result is not None and np.array_equal(np.asarray(result), reference)


class Workload:
    """Protocol and shared state; see the module docstring."""

    name = ""
    op_name = ""        # the root span of one op
    primary = ""        # op class whose median is latency_p50_ms

    def __init__(self, sizes: spec.Sizes, tracer: Tracer) -> None:
        self.sizes = sizes
        self.tracer = tracer
        self.recorder = Recorder()
        self.references: List[Any] = []
        #: MB of inputs and references the harness keeps in the process under
        #: test: a constant part of its ``peak_rss_mb``, printed beside it.
        self.held_mb = 0.0

    def set_up(self, seed: int) -> None:
        raise NotImplementedError

    def oracle_check(self) -> List[str]:
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def run_op(self, index: int) -> None:
        raise NotImplementedError

    def tear_down(self) -> None:
        """Release what ``set_up`` started; safe to call twice."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def corrupt_reference(self) -> None:
        """Self-test hook: flip one reference value so verification must fail."""
        target = self.references[0]
        while not isinstance(target, np.ndarray):
            target = next(iter(target.values())) if isinstance(target, dict) else target[0]
        target.flat[0] += 1.0

    def _timed(self, span: str, call) -> tuple:
        """``(result, seconds, error)`` of one call into the program."""
        with self.tracer.span(span):
            started = time.perf_counter()
            try:
                result, error = call(), ""
            except Exception as failure:  # noqa: BLE001 - a failed op is counted, not fatal
                result, error = None, f"{type(failure).__name__}: {failure}"
            return result, time.perf_counter() - started, error


# ---------------------------------------------------------------------------
# sim2d-dram / sim3d-cache: trajectories through the default plan path
# ---------------------------------------------------------------------------

def reference_trajectories(app: str, shape: Sequence[int], steps: int,
                           seeds: Sequence[int]) -> List[np.ndarray]:
    """Final grids of the seeded trajectories on the generic compiled path."""
    benchmark = get_benchmark(app)
    program, carry = benchmark.build_program(), benchmark.carry_spec()
    backend = private_backend()
    return [iterate_generic(backend, program, make_inputs(app, shape, seed), steps, carry=carry)
            for seed in seeds]


class SimWorkload(Workload):
    op_name = "op.trajectory"
    primary = "trajectory"

    def __init__(self, name: str, app: str, shape: Sequence[int], steps: int,
                 oracle_shape: Sequence[int], sizes: spec.Sizes,
                 tracer: Tracer) -> None:
        super().__init__(sizes, tracer)
        self.name = name
        self.app = app
        self.shape = tuple(shape)
        self.steps = steps
        self.oracle_shape = tuple(oracle_shape)
        self.inputs: List[List[np.ndarray]] = []

    def set_up(self, seed: int) -> None:
        benchmark = get_benchmark(self.app)
        self.program = benchmark.build_program()
        self.carry = benchmark.carry_spec()
        warm = make_inputs(self.app, self.shape, seed)
        self.plan = NumpyBackend().plan(self.program, warm)
        # Eight steps walk the prologue and the whole ping-pong cycle, so
        # every tape is captured before the first timed trajectory.
        self.plan.iterate(warm, min(8, self.steps), carry=self.carry)

    def oracle_check(self) -> List[str]:
        small = make_inputs(self.app, self.oracle_shape, 0)
        oracle = iterate_generic(InterpreterBackend(), self.program, small,
                                 spec.ORACLE_STEPS, carry=self.carry)
        backend = NumpyBackend()
        paths = {
            "generic": lambda: iterate_generic(private_backend(), self.program, small,
                                               spec.ORACLE_STEPS, carry=self.carry),
            "fused plan": lambda: backend.plan(self.program, small).iterate(
                small, spec.ORACLE_STEPS, carry=self.carry),
            "unfused plan": lambda: backend.plan(self.program, small, tile_shape=False).iterate(
                small, spec.ORACLE_STEPS, carry=self.carry),
        }
        return [f"{self.name}: {path} differs from the interpreter at {self.oracle_shape}"
                for path, run in paths.items() if not same_bits(run(), oracle)]

    def prepare(self, seed: int) -> None:
        seeds = [seed * 1000 + k for k in range(self.sizes.trajectories)]
        self.inputs = [make_inputs(self.app, self.shape, each) for each in seeds]
        # Spawned workers compute every reference, half each (the box has two
        # cores, and nothing is timed yet): the generic path's temporaries
        # stay out of this process, whose peak RSS is an end-to-end metric.
        half = len(seeds) // 2
        with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
            parts = [pool.submit(reference_trajectories, self.app, self.shape, self.steps, part)
                     for part in (seeds[:half], seeds[half:])]
            self.references = [grid for part in parts for grid in part.result()]
        self.held_mb = sum(grid.nbytes for grids in self.inputs + [self.references]
                           for grid in grids) / 1e6

    def run_op(self, index: int) -> None:
        k = index % len(self.inputs)
        out, seconds, error = self._timed(
            "backend.plan.iterate",
            lambda: self.plan.iterate(self.inputs[k], self.steps, carry=self.carry))
        with self.tracer.span("bench.verify"):
            ok = same_bits(out, self.references[k])
        cells = int(np.prod(self.shape)) * self.steps
        self.recorder.add("trajectory", seconds, cells if ok else 0,
                          failed=0 if ok else 1,
                          error=error or ("" if ok else "result differs from reference"))


# ---------------------------------------------------------------------------
# serve-waves-small: waves of 16 tiny requests through the in-process service
# ---------------------------------------------------------------------------

WAVE_MIX = ("hotspot2d",) * 8 + ("stencil2d",) * 4 + ("jacobi2d5pt",) * 4


def build_wave(shape: Sequence[int], seed: int) -> List[ExecutionRequest]:
    return [ExecutionRequest(inputs=make_inputs(app, shape, seed * len(WAVE_MIX) + slot),
                             benchmark=app)
            for slot, app in enumerate(WAVE_MIX)]


def wave_references(wave: Sequence[ExecutionRequest], backend: Any) -> List[np.ndarray]:
    programs = {app: get_benchmark(app).build_program() for app in set(WAVE_MIX)}
    return [squeeze_result(np.asarray(backend.run(programs[request.benchmark], request.inputs)))
            for request in wave]


class ServeWaves(Workload):
    name = "serve-waves-small"
    op_name = "op.wave"
    primary = "wave"

    def __init__(self, sizes: spec.Sizes, tracer: Tracer) -> None:
        super().__init__(sizes, tracer)
        self.client = None
        self.waves: List[List[ExecutionRequest]] = []

    def set_up(self, seed: int) -> None:
        from repro.service import ServiceClient, StencilService

        self.service = StencilService(batch_window=0.002, max_batch=16)
        self.client = ServiceClient(self.service)
        warm = build_wave(self.sizes.wave_shape, seed)
        for _ in range(self.sizes.warm_ops):
            self.client.execute_many(warm)

    def oracle_check(self) -> List[str]:
        wave = build_wave(spec.ORACLE_SHAPE_2D, 0)
        oracle = wave_references(wave, InterpreterBackend())
        generic = wave_references(wave, private_backend())
        served = self.client.execute_many(wave, raise_on_error=False)
        failures = []
        for request, expected, reference, response in zip(wave, oracle, generic, served):
            for path, result in (("generic", reference), ("service", response.result)):
                if not same_bits(result, expected):
                    failures.append(f"{self.name}: {path} {request.benchmark} differs from "
                                    f"the interpreter at {spec.ORACLE_SHAPE_2D}")
        return failures

    def prepare(self, seed: int) -> None:
        backend = private_backend()
        for k in range(self.sizes.waves):
            wave = build_wave(self.sizes.wave_shape, seed * 1000 + k)
            self.waves.append(wave)
            self.references.append(wave_references(wave, backend))
        self.held_mb = (sum(grid.nbytes for wave in self.waves for request in wave
                            for grid in request.inputs)
                        + sum(grid.nbytes for wave in self.references for grid in wave)) / 1e6

    def run_op(self, index: int) -> None:
        k = index % len(self.waves)
        responses, seconds, error = self._timed(
            "service.client.execute_many",
            lambda: self.client.execute_many(self.waves[k], raise_on_error=False))
        with self.tracer.span("bench.verify"):
            good = 0
            for response, reference in zip(responses or (), self.references[k]):
                if response.ok and same_bits(response.result, reference):
                    good += 1
                elif not error:
                    error = response.error or "result differs from reference"
        cells = int(np.prod(self.sizes.wave_shape))
        self.recorder.add("wave", seconds, good * cells, attempted=len(WAVE_MIX),
                          failed=len(WAVE_MIX) - good, error=error)

    def tear_down(self) -> None:
        client, self.client = self.client, None
        if client is not None:
            client.close()


# ---------------------------------------------------------------------------
# remote-traj-512: execute / iterate / durable job against a serve subprocess
# ---------------------------------------------------------------------------

REMOTE_APP = "hotspot2d"


def run_job(client: Any, request: ExecutionRequest, tracer: Tracer,
            checkpoint_every: Any = None) -> np.ndarray:
    """Submit a durable job, poll it to completion, fetch its final grid."""
    with tracer.span("client.submit_job"):
        job = client.submit_job(request, checkpoint_every=checkpoint_every)
    with tracer.span("client.wait_job"):
        done = client.wait_job(job["job_id"], timeout_s=120.0, poll_s=0.01)
    if done.get("status") != "completed":
        raise RuntimeError(f"job ended {done.get('status')!r}: {done.get('error')}")
    with tracer.span("client.job_result"):
        return client.job_result(job["job_id"])[1]


class RemoteTraj(Workload):
    name = "remote-traj-512"
    op_name = "op.cycle"
    primary = "execute"

    def __init__(self, sizes: spec.Sizes, tracer: Tracer) -> None:
        super().__init__(sizes, tracer)
        self.server = None
        self.client = None
        self.cycles: List[Dict[str, ExecutionRequest]] = []

    def _requests(self, shape: Sequence[int], seed: int, iterate_steps: int,
                  job_steps: int) -> Dict[str, ExecutionRequest]:
        grids = make_inputs(REMOTE_APP, shape, seed)
        # One request object per op class: the client stamps ``steps`` on it.
        return {
            "execute": ExecutionRequest(inputs=grids, benchmark=REMOTE_APP),
            "iterate": ExecutionRequest(inputs=grids, benchmark=REMOTE_APP, steps=iterate_steps),
            "job": ExecutionRequest(inputs=grids, benchmark=REMOTE_APP, steps=job_steps),
        }

    def _references(self, requests: Dict[str, ExecutionRequest],
                    backend: Any) -> Dict[str, np.ndarray]:
        benchmark = get_benchmark(REMOTE_APP)
        program, carry = benchmark.build_program(), benchmark.carry_spec()
        return {op: iterate_generic(backend, program, request.inputs, request.steps, carry=carry)
                for op, request in requests.items()}

    def _cycle(self, requests: Dict[str, ExecutionRequest]) -> Dict[str, tuple]:
        """One execute -> iterate -> job cycle: ``{op: (grid, seconds, error)}``."""
        client = self.client

        def grid_of(response):
            if not response.ok:
                raise RuntimeError(response.error)
            return response.result

        return {
            "execute": self._timed("client.execute",
                                   lambda: grid_of(client.execute(requests["execute"]))),
            "iterate": self._timed("client.iterate", lambda: grid_of(client.iterate(
                requests["iterate"], requests["iterate"].steps))),
            "job": self._timed("client.job",
                               lambda: run_job(client, requests["job"], self.tracer)),
        }

    def set_up(self, seed: int) -> None:
        self.server = ServerProcess(self.name, self.sizes.remote_checkpoint_every).start()
        self.client = self.server.client()
        warm = self._requests(self.sizes.remote_shape, seed,
                              self.sizes.remote_iterate_steps, self.sizes.remote_job_steps)
        for _ in range(self.sizes.warm_ops):
            for op, (_grid, _seconds, error) in self._cycle(warm).items():
                if error:
                    raise RuntimeError(f"warm-up {op} failed: {error}")

    def oracle_check(self) -> List[str]:
        requests = self._requests(spec.ORACLE_SHAPE_2D, 0, spec.ORACLE_STEPS, spec.ORACLE_STEPS)
        oracle = self._references(requests, InterpreterBackend())
        generic = self._references(requests, private_backend())
        remote = self._cycle(requests)
        failures = []
        for op, expected in oracle.items():
            for path, result in (("generic", generic[op]), ("remote", remote[op][0])):
                if not same_bits(result, expected):
                    failures.append(f"{self.name}: {path} {op} differs from the interpreter "
                                    f"at {spec.ORACLE_SHAPE_2D} ({remote[op][2]})")
        return failures

    def prepare(self, seed: int) -> None:
        backend = private_backend()
        for k in range(self.sizes.cycles):
            requests = self._requests(self.sizes.remote_shape, seed * 1000 + k,
                                      self.sizes.remote_iterate_steps,
                                      self.sizes.remote_job_steps)
            self.cycles.append(requests)
            self.references.append(self._references(requests, backend))

    def run_op(self, index: int) -> None:
        k = index % len(self.cycles)
        cells = int(np.prod(self.sizes.remote_shape))
        outcome = self._cycle(self.cycles[k])
        with self.tracer.span("bench.verify"):
            for op, (grid, seconds, error) in outcome.items():
                ok = same_bits(grid, self.references[k][op])
                self.recorder.add(op, seconds, cells * self.cycles[k][op].steps if ok else 0,
                                  failed=0 if ok else 1,
                                  error=error or ("" if ok else "result differs from reference"))

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def tear_down(self) -> None:
        client, self.client = self.client, None
        if client is not None:
            client.close()
        server, self.server = self.server, None
        if server is not None:
            server.stop()


def create(name: str, sizes: spec.Sizes, tracer: Tracer) -> Workload:
    if name == "sim2d-dram":
        return SimWorkload(name, "hotspot2d", sizes.sim2d_shape, sizes.sim2d_steps,
                           spec.ORACLE_SHAPE_2D, sizes, tracer)
    if name == "sim3d-cache":
        return SimWorkload(name, "acoustic", sizes.sim3d_shape, sizes.sim3d_steps,
                           spec.ORACLE_SHAPE_3D, sizes, tracer)
    if name == "serve-waves-small":
        return ServeWaves(sizes, tracer)
    if name == "remote-traj-512":
        return RemoteTraj(sizes, tracer)
    raise ValueError(f"unknown workload {name!r}; known: {spec.WORKLOAD_NAMES}")
