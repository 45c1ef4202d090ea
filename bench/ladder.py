"""The per-layer ladder: every rung timed from outside, on a fixed payload.

The walk follows the request lifecycle of ``docs/ARCHITECTURE.md``:
interpreter -> kernel -> unfused plan -> fused+tiled -> parallel-2 ->
in-process single -> wave of 16 -> ``shards=1`` -> TCP-JSON -> HTTP-JSON ->
HTTP-RPG1 -> job at ``checkpoint_every`` inf/16/1.  Every number comes from
a public function or a public ``stats()``; nothing under ``src/`` is
edited.  Timings are medians of the stated repetition count; counts are
read once.  Bytes per step are *computed* from array sizes (each input
grid read once, the output written once) and labelled so — cache misses
and halo re-reads are not in them.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.suite import get_benchmark
from repro.backend import NumpyBackend, iterate_generic
from repro.service.requests import ExecutionRequest

from . import machine, make_inputs, percentile, procs, spec
from .trace import Tracer
from .workloads import WAVE_MIX, build_wave, private_backend, run_job


#: Waves one lane of :meth:`Ladder.waves` runs before the next lane's turn.
WAVE_BLOCK = 10


def median_seconds(call: Callable[[], Any], reps: int, warm: int = 1) -> float:
    for _ in range(warm):
        call()
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


class Ladder:
    """Walks every rung once; ``results`` maps metric name -> (value, n)."""

    def __init__(self, sizes: spec.Sizes) -> None:
        self.sizes = sizes
        self.results: Dict[str, Tuple[float, int]] = {}
        self.problems: List[str] = []
        #: (family, rung, payload, seconds per step, cell updates per step,
        #: bytes per step); family "3d" is the short second ladder.
        self.rungs: List[Tuple[str, str, str, float, int, Optional[int]]] = []
        self.machine: Dict[str, Any] = {}

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.results[name] = (float(value), n)

    def rung(self, label: str, shape: Sequence[int], seconds_per_step: float,
             requests: int = 1, bytes_per_step: Optional[int] = None,
             family: str = "2d") -> None:
        payload = "x".join(str(extent) for extent in shape)
        if requests > 1:
            payload = f"{requests}x {payload}"
        self.rungs.append((family, label, payload, seconds_per_step,
                           int(np.prod(shape)) * requests, bytes_per_step))

    def walk(self, tracer: Tracer) -> None:
        def section(run: Callable[..., Any], *args: Any) -> Any:
            with tracer.span(f"ladder.{run.__name__}"):
                return run(*args)

        for run in (self.machine_ceiling, self.core, self.rewriting_codegen,
                    self.interpreter, self.backend, self.tuning):
            section(run)
        single_large = section(self.service)
        for run in (self.waves, self.wire):
            section(run)
        section(self.remote, single_large, tracer)
        for run in (self.telemetry, self.cli):
            section(run)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"results": self.results, "problems": self.problems,
                       "rungs": self.rungs, "machine": self.machine}, handle, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls, sizes: spec.Sizes, path: str) -> "Ladder":
        """A walk another process made: the suite walks the ladder once."""
        ladder = cls(sizes)
        with open(path, encoding="utf-8") as handle:
            walked = json.load(handle)
        ladder.results = {name: (value, n) for name, (value, n) in walked["results"].items()}
        ladder.problems = walked["problems"]
        ladder.rungs = [tuple(rung) for rung in walked["rungs"]]
        ladder.machine = walked["machine"]
        return ladder

    # -- machine -------------------------------------------------------------
    def machine_ceiling(self) -> None:
        self.machine = machine.bandwidth(self.sizes.bandwidth_cap_bytes)
        self.put("machine.copy_gbps", self.machine["copy_gbps"], 3)
        self.put("machine.triad_gbps", self.machine["triad_gbps"], 3)
        self.put("machine.cores", machine.fingerprint()["cores"])

    # -- core, rewriting, codegen ---------------------------------------------
    def core(self) -> None:
        from repro.core.ir import structural_key
        from repro.core.serialize import program_from_dict, program_to_dict

        build = get_benchmark("hotspot2d").build_program
        program = build()
        self.put("core.build_ms", median_seconds(build, 20) * 1e3, 20)
        self.put("core.structural_key_us",
                 median_seconds(lambda: structural_key(program), 20) * 1e6, 20)
        text = json.dumps(program_to_dict(program))
        self.put("core.serialize.roundtrip_ms", median_seconds(
            lambda: program_from_dict(json.loads(json.dumps(program_to_dict(program)))),
            20) * 1e3, 20)
        self.put("core.serialize.bytes", len(text))

    def rewriting_codegen(self) -> None:
        from repro.codegen import generate_kernel
        from repro.rewriting.exploration import explore

        # Jacobi2D-5pt: single-grid, so the overlapped-tiling rewrite applies;
        # 126 + 2 halo cells is covered exactly by several default tile sizes.
        benchmark, shape = get_benchmark("jacobi2d5pt"), (126, 126)
        program = benchmark.build_program()
        variants: List[Any] = []

        def run_explore() -> None:
            variants[:] = explore(program, benchmark.stencil_extent, 1, shape[-1] + 2)

        self.put("rewriting.explore_ms", median_seconds(run_explore, 5) * 1e3, 5)
        self.put("rewriting.variants", len(variants))
        sources: List[str] = []

        def run_codegen() -> None:
            sources[:] = [generate_kernel(variant.lowered, benchmark.input_types(shape)).source
                          for variant in variants]

        self.put("codegen.generate_ms", median_seconds(run_codegen, 5) * 1e3, 5)
        self.put("codegen.kernel_chars", sum(len(source) for source in sources))

    def interpreter(self) -> None:
        from repro.runtime.interpreter import evaluate_program

        program = get_benchmark("hotspot2d").build_program()
        grids = make_inputs("hotspot2d", spec.ORACLE_SHAPE_2D, 0)
        seconds = median_seconds(lambda: evaluate_program(program, grids), 3, warm=0)
        cells = int(np.prod(spec.ORACLE_SHAPE_2D))
        self.put("runtime.interpreter.mcells_per_s", cells / seconds / 1e6, 3)
        self.rung("interpreter", spec.ORACLE_SHAPE_2D, seconds)

    # -- backend: kernel, plan, fuse, pool at both sim shapes -----------------
    def backend(self) -> None:
        backend = private_backend()
        self._backend_rungs(backend, "2d", "hotspot2d", self.sizes.sim2d_shape)
        self._backend_rungs(backend, "3d", "acoustic", self.sizes.sim3d_shape)
        self._batched16(backend)
        # Three (program, signature) pairs went through this cache, each by
        # the generic, plan, fused, parallel or batched route: one miss each.
        misses = backend.cache.stats()["misses"] / 3
        self.put("backend.cache.misses", misses)
        if misses != 1:
            self.problems.append(f"compile-once broken: {misses:g} misses per program")

    def _backend_rungs(self, backend: NumpyBackend, dim: str, app: str,
                       shape: Sequence[int]) -> None:
        sizes = self.sizes
        benchmark = get_benchmark(app)
        program, carry = benchmark.build_program(), benchmark.carry_spec()
        grids = make_inputs(app, shape, 0)
        steps, reps = sizes.ladder_steps, sizes.ladder_reps
        cells = int(np.prod(shape))
        moved = (len(grids) + 1) * cells * 8

        started = time.perf_counter()
        backend.cache.get_or_compile(program, grids)
        self.put(f"backend.compile_ms.{dim}", (time.perf_counter() - started) * 1e3)
        if dim == "2d":
            self.put("backend.cache.hit_us", median_seconds(
                lambda: backend.cache.get_or_compile(program, grids), 50) * 1e6, 50)

        kernel = median_seconds(
            lambda: iterate_generic(backend, program, grids, steps, carry=carry), reps) / steps
        self.put(f"backend.kernel.step_us.{dim}", kernel * 1e6, reps)
        self.put(f"backend.kernel.mcells_per_s.{dim}", cells / kernel / 1e6, reps)
        self.rung("kernel", shape, kernel, bytes_per_step=moved, family=dim)

        unfused_plan = backend.plan(program, grids, tile_shape=False)
        unfused = median_seconds(
            lambda: unfused_plan.iterate(grids, steps, carry=carry, copy=False), reps) / steps
        self.put(f"backend.plan.unfused.step_us.{dim}", unfused * 1e6, reps)
        self.put(f"backend.plan.unfused.vs_kernel.{dim}", kernel / unfused, reps)
        self.rung("unfused plan", shape, unfused, bytes_per_step=moved, family=dim)

        # Cold: plan construction plus the first iterate, which captures
        # every tape of the default (fused, auto-tiled) plan.
        started = time.perf_counter()
        fused_plan = backend.plan(program, grids)
        fused_plan.iterate(grids, min(8, steps), carry=carry)
        self.put(f"backend.plan.capture_ms.{dim}", (time.perf_counter() - started) * 1e3)
        fused = median_seconds(
            lambda: fused_plan.iterate(grids, steps, carry=carry, copy=False), reps) / steps
        stats = fused_plan.stats()
        self.put(f"backend.plan.tapes.{dim}", stats["tapes"])
        self.put(f"backend.fuse.step_us.{dim}", fused * 1e6, reps)
        self.put(f"backend.fuse.vs_unfused.{dim}", unfused / fused, reps)
        self.put(f"backend.fuse.regions.{dim}", stats["fused_regions"])
        self.put(f"backend.fuse.pads.{dim}", stats["fused_pads"])
        self.put(f"backend.fuse.fallbacks.{dim}", stats["fusion_fallbacks"])
        self.put(f"backend.fuse.tiles.{dim}", stats["fused_tiles"])
        self.put(f"backend.fuse.bytes_per_step_computed.{dim}", moved)
        self.put(f"backend.fuse.gbps_computed.{dim}", moved / fused / 1e9, reps)
        self.put(f"backend.fuse.ceiling_share.{dim}",
                 moved / fused / 1e9 / self.machine["copy_gbps"], reps)
        self.rung("fused+tiled", shape, fused, bytes_per_step=moved, family=dim)

        # Steady state: a warm loop must neither grow the plan's pooled
        # buffer set nor allocate through the Python allocator.
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            fused_plan.iterate(grids, steps, carry=carry, copy=False)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        blocks = sum(entry.count_diff for entry in after.compare_to(before, "filename"))
        self.put(f"backend.plan.allocs_per_step.{dim}", max(0, blocks) / steps)
        grown = fused_plan.stats()["buffers"] - stats["buffers"]
        self.put(f"backend.pool.steady_allocations.{dim}", grown)
        self.put(f"backend.pool.resident_mb.{dim}", stats["buffer_bytes"] / 1e6)
        if grown:
            self.problems.append(f"{app}: warm replay acquired {grown} new pool buffers")

        parallel_plan = backend.plan(program, grids, parallel_workers=2)
        parallel = median_seconds(
            lambda: parallel_plan.iterate(grids, steps, carry=carry, copy=False), reps) / steps
        self.put(f"backend.fuse.parallel2.step_us.{dim}", parallel * 1e6, reps)
        self.put(f"backend.fuse.parallel2.vs_serial.{dim}", fused / parallel, reps)
        self.rung("parallel-2", shape, parallel, bytes_per_step=moved, family=dim)

    def _batched16(self, backend: NumpyBackend) -> None:
        shape = self.sizes.ladder_small_shape
        program = get_benchmark("hotspot2d").build_program()
        parts = [make_inputs("hotspot2d", shape, slot) for slot in range(16)]
        signature = [((16,) + tuple(shape), "float64")] * len(parts[0])
        plan = backend.plan(program, signature, batched=True)
        reps = self.sizes.ladder_single_reps
        seconds = median_seconds(lambda: plan.run_batched_parts(parts, copy=False), reps, warm=2)
        self.put("backend.plan.batched16.step_us", seconds * 1e6, reps)

    def tuning(self) -> None:
        from repro.backend.fuse import measure_best_tile
        from repro.tuning.parameters import fuse_tile_candidates

        program = get_benchmark("hotspot2d").build_program()
        grids = make_inputs("hotspot2d", self.sizes.sim2d_shape, 0)
        candidates = fuse_tile_candidates(2)
        self.put("tuning.tile_candidates", len(candidates))
        started = time.perf_counter()
        measure_best_tile(private_backend(), program, grids,
                          candidates=candidates, worker_candidates=(1,))
        self.put("tuning.tile_search_ms", (time.perf_counter() - started) * 1e3)

    # -- the in-process service ------------------------------------------------
    def service(self) -> float:
        """Returns the in-process seconds of one 512x512 ``execute``: the
        base of ``client.overhead_ms`` in :meth:`remote`."""
        from repro.service import ServiceClient, StencilService

        sizes = self.sizes
        small, large = sizes.ladder_small_shape, sizes.ladder_large_shape
        singles = sizes.ladder_single_reps

        grids = make_inputs("hotspot2d", small, 0)
        self.put("service.requests.build_us", median_seconds(
            lambda: ExecutionRequest(inputs=grids, benchmark="hotspot2d"), 200) * 1e6, 200)

        program = get_benchmark("hotspot2d").build_program()
        plan = private_backend().plan(program, grids)
        plan_run = median_seconds(lambda: plan.run(grids), singles, warm=2)

        with ServiceClient(StencilService(batch_window=0.002, max_batch=16)) as client:
            request = ExecutionRequest(inputs=grids, benchmark="hotspot2d")
            single = median_seconds(lambda: client.execute(request), singles, warm=2)
            self.put("service.server.single_ms", single * 1e3, singles)
            self.put("service.server.overhead_ms", (single - plan_run) * 1e3, singles)
            self.rung("in-process single", small, single)

            big = ExecutionRequest(inputs=make_inputs("hotspot2d", large, 0),
                                   benchmark="hotspot2d")
            single_large = median_seconds(lambda: client.execute(big), sizes.ladder_reps * 3,
                                          warm=2)
            self.put("service.server.single_ms.512", single_large * 1e3, sizes.ladder_reps * 3)
        return single_large

    def waves(self) -> None:
        """Waves of 16 through the service, and the same waves with one
        existing switch flipped: crosscheck, admission, telemetry, ``shards=1``.

        The lanes take turns, ten waves each.  On the recording box wave
        time drifts by up to 2x within a minute, which is more than any of
        these switches costs, so lanes measured one after the other cannot
        be subtracted.
        """
        from repro.service import ServiceClient, StencilService
        from repro.telemetry import set_metrics_enabled

        small = self.sizes.ladder_small_shape
        waves = [build_wave(small, seed) for seed in range(8)]
        count = self.sizes.ladder_waves
        shm_before = procs.shm_segments()

        def serve(**options: Any) -> Any:
            return ServiceClient(StencilService(batch_window=0.002, max_batch=16, **options))

        with contextlib.ExitStack() as stack:
            started = time.perf_counter()
            sharded = stack.enter_context(serve(shards=1))
            # The shard process boots in the background; it is up once the
            # first wave (which also ships and compiles the programs) returns.
            sharded.execute_many(waves[0])
            self.put("service.shards.spawn_s", time.perf_counter() - started)
            base = stack.enter_context(serve())

            def without_metrics(wave: Sequence[ExecutionRequest]) -> Any:
                previous = set_metrics_enabled(False)
                try:
                    return base.execute_many(wave)
                finally:
                    set_metrics_enabled(previous)

            lanes: Dict[str, Callable[[Sequence[ExecutionRequest]], Any]] = {
                "base": base.execute_many,
                "crosscheck": stack.enter_context(serve(crosscheck=True)).execute_many,
                "admission": stack.enter_context(serve(max_queue_depth=1024)).execute_many,
                "telemetry_off": without_metrics,
                "shards": sharded.execute_many,
            }
            for wave in waves[:2]:
                for submit in lanes.values():
                    submit(wave)
            latencies: Dict[str, List[float]] = {name: [] for name in lanes}
            # Numbers only: keeping the responses keeps 100 MB of result grids
            # alive, and the base lane then pays for fresh pages on every wave.
            batch_sizes: List[int] = []
            request_seconds: List[float] = []
            for first in range(0, count, WAVE_BLOCK):
                for name, submit in lanes.items():
                    for index in range(first, min(count, first + WAVE_BLOCK)):
                        wave = waves[index % len(waves)]
                        began = time.perf_counter()
                        answered = submit(wave)
                        latencies[name].append(time.perf_counter() - began)
                        if name == "base":
                            batch_sizes.extend(r.batch_size for r in answered)
                            request_seconds.extend(r.latency_s for r in answered)
            served = base.stats()["service"]
            fleet = sharded.stats()["service"]["shards"]
        self.problems += procs.leaked_shm(shm_before) + procs.leaked_children()

        median = {name: statistics.median(samples) for name, samples in latencies.items()}
        self.put("service.server.wave16_ms", median["base"] * 1e3, count)
        self.put("service.server.wave16_p95_ms",
                 percentile(latencies["base"], 0.95) * 1e3, count)
        self.put("service.server.batch_size_mean", statistics.fmean(batch_sizes),
                 len(batch_sizes))
        # The base service also served the two warm waves of both its lanes.
        base_waves = 2 * (count + 2)
        self.put("service.server.batches_formed", served["batches_formed"] / base_waves, base_waves)
        self.put("service.server.request_p50_ms", statistics.median(request_seconds) * 1e3,
                 len(request_seconds))
        self.put("service.server.rejects", sum(served["admission"]["rejects"].values()))
        self.put("service.server.sheds", sum(served["admission"]["sheds"].values()))
        self.put("service.registry.lookups", served["registry"]["lookups"])
        self.put("service.registry.cold_misses", served["registry"]["cold_misses"])
        self.rung("wave of 16", small, median["base"], requests=len(WAVE_MIX))

        self.put("service.server.crosscheck_ratio", median["crosscheck"] / median["base"], count)
        self.put("service.server.admission_on_us",
                 (median["admission"] - median["base"]) * 1e6, count)
        # What telemetry costs a wave: lower is better.
        self.put("service.server.telemetry_off_us",
                 (median["base"] - median["telemetry_off"]) * 1e6, count)
        self.put("service.shards.wave16_ms", median["shards"] * 1e3, count)
        self.put("service.shards.roundtrip_ms", (median["shards"] - median["base"]) * 1e3, count)
        # One compilation per program the one shard served.
        self.put("service.shards.compilations", fleet["compilations"] / len(set(WAVE_MIX)))
        self.rung("shards=1 wave of 16", small, median["shards"], requests=len(WAVE_MIX))

    # -- wire and the remote transports ----------------------------------------
    def wire(self) -> None:
        from repro.service.wire import decode_grid_payload, encode_grid_payload, iter_chunks

        grids = make_inputs("hotspot2d", self.sizes.ladder_large_shape, 0)
        request = ExecutionRequest(inputs=grids, benchmark="hotspot2d")
        megabytes = sum(grid.nbytes for grid in grids) / 1e6
        reps = self.sizes.ladder_reps
        meta = {key: value for key, value in request.to_wire().items() if key != "inputs"}

        def encode() -> bytes:
            prefix, buffers = encode_grid_payload(meta, grids)
            return b"".join(iter_chunks(prefix, buffers))

        body = encode()
        self.put("service.wire.encode_mbps", megabytes / median_seconds(encode, reps * 3), reps * 3)
        self.put("service.wire.decode_mbps",
                 megabytes / median_seconds(lambda: decode_grid_payload(body), reps * 3), reps * 3)
        text = json.dumps(request.to_wire())
        self.put("service.wire.json_encode_mbps",
                 megabytes / median_seconds(lambda: json.dumps(request.to_wire()), reps), reps)
        self.put("service.wire.json_decode_mbps", megabytes / median_seconds(
            lambda: ExecutionRequest.from_wire(json.loads(text)), reps), reps)

    def remote(self, single_large: float, tracer: Tracer) -> None:
        sizes = self.sizes
        small, large = sizes.ladder_small_shape, sizes.ladder_large_shape
        reps = sizes.ladder_reps

        def request(shape: Sequence[int], steps: int = 1) -> ExecutionRequest:
            return ExecutionRequest(inputs=make_inputs("hotspot2d", shape, 0),
                                    benchmark="hotspot2d", steps=steps)

        def execute_s(client: Any, shape: Sequence[int], count: int, warm: int = 2) -> float:
            payload = request(shape)

            def call() -> None:
                response = client.execute(payload)
                if not response.ok:
                    raise RuntimeError(response.error)

            return median_seconds(call, count, warm=warm)

        with procs.ServerProcess("ladder", checkpoint_every=16) as server:
            rpg1 = server.client()
            http_json = server.client(binary_threshold_bytes=1 << 62)
            tcp_json = server.client(transport="tcp")
            clients = (rpg1, http_json, tcp_json)
            try:
                self.put("client.ping_ms", median_seconds(rpg1.ping, 20) * 1e3, 20)
                tcp_small = execute_s(tcp_json, small, reps * 3)
                self.put("client.tcp_json.execute_ms.64", tcp_small * 1e3, reps * 3)
                tcp_large = execute_s(tcp_json, large, reps, warm=1)
                self.put("client.tcp_json.execute_ms.512", tcp_large * 1e3, reps)
                self.rung("TCP-JSON", large, tcp_large)
                json_large = execute_s(http_json, large, reps, warm=1)
                self.put("client.http_json.execute_ms.512", json_large * 1e3, reps)
                self.rung("HTTP-JSON", large, json_large)
                self.put("client.http_rpg1.execute_ms.64",
                         execute_s(rpg1, small, reps * 3) * 1e3, reps * 3)
                rpg1_large = execute_s(rpg1, large, reps * 3)
                self.put("client.http_rpg1.execute_ms.512", rpg1_large * 1e3, reps * 3)
                self.put("client.overhead_ms", (rpg1_large - single_large) * 1e3, reps * 3)
                self.rung("HTTP-RPG1", large, rpg1_large)

                def iterate_s(steps: int) -> float:
                    payload = request(large, steps)

                    def call() -> None:
                        response = rpg1.iterate(payload, steps)
                        if not response.ok:
                            raise RuntimeError(response.error)

                    return median_seconds(call, reps, warm=1)

                def job_s(steps: int, checkpoint_every: int, count: int) -> float:
                    payload = request(large, steps)
                    return median_seconds(
                        lambda: run_job(rpg1, payload, tracer, checkpoint_every),
                        count, warm=0)

                self.put("client.http_rpg1.iterate16_ms.512",
                         iterate_s(sizes.remote_iterate_steps) * 1e3, reps)
                # Warm the job path (tapes of the segmented runner) first.
                job_s(sizes.remote_job_steps, sizes.remote_checkpoint_every, 1)
                self.put("client.http_rpg1.job32_ms.512",
                         job_s(sizes.remote_job_steps, sizes.remote_checkpoint_every, reps) * 1e3,
                         reps)

                steps = sizes.ladder_job_steps
                sync = iterate_s(steps)
                walls = {}
                for label, every in (("ce_inf", steps), ("ce_16", max(1, steps // 4)), ("ce_1", 1)):
                    before = server.job_dir_bytes()
                    walls[label] = job_s(steps, every, 1)
                    self.put(f"service.jobs.wall_ms.{label}", walls[label] * 1e3)
                    self.rung(f"job {label}", large, walls[label] / steps)
                # ce_1 persists one checkpoint per step, ce_inf only the last.
                self.put("service.jobs.checkpoint_ms",
                         (walls["ce_1"] - walls["ce_inf"]) / (steps - 1) * 1e3)
                self.put("service.jobs.checkpoint_bytes", server.job_dir_bytes() - before)
                self.put("service.jobs.vs_sync_iterate", walls["ce_inf"] / sync)
                self.put("client.retries", sum(c.retries_attempted for c in clients))
            finally:
                for client in clients:
                    client.close()

    # -- telemetry and the CLI --------------------------------------------------
    def telemetry(self) -> None:
        from repro.telemetry import MetricsRegistry, TraceRing, get_registry

        loops = self.sizes.micro_loops
        registry = MetricsRegistry()
        counter = registry.counter("bench_counter")
        histogram = registry.histogram("bench_histogram")
        ring = TraceRing()

        def per_call(call: Callable[[], Any]) -> float:
            started = time.perf_counter()
            for _ in range(loops):
                call()
            return (time.perf_counter() - started) / loops

        self.put("telemetry.counter_inc_ns", per_call(counter.inc) * 1e9, loops)
        self.put("telemetry.histogram_observe_ns",
                 per_call(lambda: histogram.observe(0.003)) * 1e9, loops)
        self.put("telemetry.trace_record_us",
                 per_call(lambda: ring.record({"total_ms": 3.0, "stages": []})) * 1e6, loops)
        # The process-wide registry is warm: the service rungs above fed it.
        self.put("telemetry.render_ms", median_seconds(get_registry().render, 5) * 1e3, 5)

    def cli(self) -> None:
        def import_and_help() -> None:
            done = procs.run_python(["-m", "repro", "--help"])
            if done.returncode != 0:
                raise RuntimeError(done.stderr)

        self.put("cli.import_s", median_seconds(import_and_help, 3, warm=0), 3)

    # -- presentation ----------------------------------------------------------
    def table(self) -> str:
        """The ladder: per rung time, delta and ratio over the rung below."""
        ceiling = self.machine["copy_gbps"]
        lines = [
            f"  ladder (machine.copy_gbps {ceiling:.2f} GB/s over "
            f"{self.machine['array_bytes'] >> 20} MiB arrays, LLC "
            f"{self.machine['llc_bytes'] >> 20} MiB; ns/cell compares rungs across payloads)",
            f"  {'rung':<22} {'payload':<14} {'ms/step':>10} {'ns/cell':>10} "
            f"{'delta ns/cell':>14} {'ratio (base)':>22} {'MB/step comp.':>14} "
            f"{'GB/s comp.':>11} {'of ceiling':>10}",
        ]
        for family, title in (("2d", "request lifecycle, 2-D payloads"),
                              ("3d", "compute rungs again on the 3-D payload")):
            lines.append(f"  -- {title}")
            below: Optional[float] = None
            below_label = ""
            for kind, label, payload, seconds, cells, moved in self.rungs:
                if kind != family:
                    continue
                per_cell = seconds / cells * 1e9
                delta = f"{per_cell - below:+14.2f}" if below is not None else f"{'':>14}"
                ratio = f"{per_cell / below:.2f}x ({below_label[:13]})" if below else ""
                traffic = (f"{moved / 1e6:14.2f} {moved / seconds / 1e9:11.2f} "
                           f"{moved / seconds / 1e9 / ceiling:10.1%}" if moved else "")
                lines.append(f"  {label:<22} {payload:<14} {seconds * 1e3:10.3f} {per_cell:10.2f} "
                             f"{delta} {ratio:>22} {traffic}")
                below, below_label = per_cell, label
        lines.append("  (rungs from 'in-process single' on sit above an opaque server or "
                     "event loop: the delta over the rung below stands in for self time)")
        return "\n".join(lines)
