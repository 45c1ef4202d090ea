"""What the benchmark measures: the declared metrics, their notes, the sizes.

Workloads, metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the repository root.  What its schema cannot hold
lives here: how each end-to-end metric is defined, which end-to-end metric
on which workload a layer number should move, and every shape and count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from . import ROOT

#: ``BENCHMARK.json`` is the one list of workloads, metric names, units,
#: directions and bounds; its schema has no room for the notes below.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED: Dict[str, Any] = json.load(_handle)

#: Seconds one run measures.
RUN_SECONDS: int = DECLARED["run_seconds"]
WORKLOAD_NAMES: Tuple[str, ...] = tuple(w["name"] for w in DECLARED["workloads"])
END_TO_END: Tuple[str, ...] = tuple(m["name"] for m in DECLARED["end_to_end"])
PER_LAYER: Tuple[str, ...] = tuple(m["name"] for m in DECLARED["per_layer"])
BOUNDS: Dict[str, float] = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
UNITS: Dict[str, str] = {m["name"]: m["unit"]
                         for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
BETTER: Dict[str, str] = {m["name"]: m["better"]
                          for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}

#: A tail needs samples beyond it: an op class prints a p95 from this count.
P95_MIN_SAMPLES = 200

#: How each end-to-end metric is defined.  Every workload reports every one
#: (the driver reads one fixed list), so where a workload has no op of a
#: metric's class its primary-op median stands in.
DEFINITIONS: Dict[str, str] = {
    "setup_s": "first `import repro` to ready-for-first-timed-op in a fresh process; "
               "fastest of Sizes.setup_samples cold set-ups",
    "mcells_per_s": "verified cells x steps of a loop turn / median turn time "
                    "(op plus verification)",
    "latency_p50_ms": "median caller-visible time of the primary op: trajectory (sim*), "
                      "wave of 16 (serve-waves-small), execute (remote-traj-512)",
    "iterate_p50_ms": "median multi-step trajectory call: plan.iterate (sim*), "
                      "StencilClient.iterate(16) (remote-traj-512); wave median stands in "
                      "on serve-waves-small",
    "job_p50_ms": "median submit-to-result-in-hand of the 32-step durable job "
                  "(remote-traj-512); primary-op median stands in elsewhere",
    "peak_rss_mb": "peak RSS of the process under test at the end of the window "
                   "(the server subprocess for remote-traj-512)",
}

_SETUP_SIM = "setup_s on sim2d-dram/sim3d-cache"
_RUNG = "nothing end-to-end (rung only)"
_FUSE = ("mcells_per_s and latency_p50_ms on sim2d-dram (large share) and sim3d-cache "
         "(small share); no move on serve-* or remote-*")
_WAVE = "latency_p50_ms and mcells_per_s on serve-waves-small"
_REMOTE = "latency_p50_ms, iterate_p50_ms and job_p50_ms on remote-traj-512"
_JOB = "job_p50_ms on remote-traj-512 only"

#: Which end-to-end metric on which workload each layer number should move.
#: A rung measured at both sim shapes (``.2d``/``.3d``) has one entry.
MOVES: Dict[str, str] = {
    "machine.copy_gbps": "ceiling of every *_gbps_computed",
    "machine.triad_gbps": "ceiling of every *_gbps_computed",
    "machine.cores": "parallel2 and shard rungs",
    "core.build_ms": "setup_s everywhere",
    "core.structural_key_us": "setup_s everywhere",
    "core.serialize.roundtrip_ms": "setup_s on remote-traj-512 only when a program is shipped",
    "core.serialize.bytes": _RUNG,
    "rewriting.explore_ms": _RUNG,
    "rewriting.variants": _RUNG,
    "codegen.generate_ms": _RUNG,
    "codegen.kernel_chars": _RUNG,
    "runtime.interpreter.mcells_per_s": _RUNG,
    "backend.compile_ms": _SETUP_SIM,
    "backend.kernel.step_us": "the rung every plan rung is compared to",
    "backend.kernel.mcells_per_s": _RUNG,
    "backend.cache.hit_us": _RUNG,
    "backend.cache.misses": "invariant: 1 per program and signature",
    "backend.plan.capture_ms": _SETUP_SIM,
    "backend.plan.unfused.step_us": "nothing end-to-end (default is fused); never lose to "
                                    "the kernel rung",
    "backend.plan.unfused.vs_kernel": _RUNG,
    "backend.plan.tapes": _SETUP_SIM,
    "backend.plan.allocs_per_step": "peak_rss_mb on sim*",
    "backend.plan.batched16.step_us": "latency_p50_ms on serve-waves-small",
    "backend.fuse.step_us": _FUSE,
    "backend.fuse.vs_unfused": "as backend.fuse.step_us",
    "backend.fuse.regions": "as backend.fuse.step_us",
    "backend.fuse.pads": "as backend.fuse.step_us",
    "backend.fuse.fallbacks": "as backend.fuse.step_us",
    "backend.fuse.tiles": "as backend.fuse.step_us",
    "backend.fuse.bytes_per_step_computed": "as backend.fuse.step_us",
    "backend.fuse.gbps_computed": "as backend.fuse.step_us",
    "backend.fuse.ceiling_share": "as backend.fuse.step_us",
    "backend.fuse.parallel2.step_us": _RUNG + ": default is serial",
    "backend.fuse.parallel2.vs_serial": _RUNG,
    "backend.pool.steady_allocations": "invariant: 0",
    "backend.pool.resident_mb": "peak_rss_mb on sim*",
    "tuning.tile_candidates": "setup_s for callers that search",
    "tuning.tile_search_ms": "setup_s for callers that search",
    "service.requests.build_us": _WAVE,
    "service.registry.lookups": _WAVE,
    "service.registry.cold_misses": _WAVE,
    "service.server.single_ms": _WAVE,
    "service.server.single_ms.512": "latency_p50_ms on remote-traj-512 by its fixed share",
    "service.server.overhead_ms": _WAVE,
    "service.server.wave16_ms": _WAVE,
    "service.server.wave16_p95_ms": "the printed wave p95 of serve-waves-small (not gated)",
    "service.server.batch_size_mean": _WAVE,
    "service.server.batches_formed": _WAVE,
    "service.server.request_p50_ms": _WAVE,
    "service.server.rejects": "failed ops on serve-waves-small",
    "service.server.sheds": "failed ops on serve-waves-small",
    "service.server.crosscheck_ratio": _RUNG + ": crosscheck is off",
    "service.server.admission_on_us": _RUNG + ": queue is unbounded",
    "service.server.telemetry_off_us": _WAVE + " (what telemetry costs a wave)",
    "service.shards.spawn_s": "setup_s of a future sharded workload",
    "service.shards.wave16_ms": _RUNG + " on a 2-core box",
    "service.shards.roundtrip_ms": _RUNG + " on a 2-core box",
    "service.shards.compilations": "invariant: 1 per program per shard",
    "service.wire.encode_mbps": _REMOTE,
    "service.wire.decode_mbps": _REMOTE,
    "service.wire.json_encode_mbps": _RUNG + ": JSON transports",
    "service.wire.json_decode_mbps": _RUNG + ": JSON transports",
    "client.ping_ms": "setup_s on remote-traj-512",
    "client.http_rpg1.execute_ms.64": _RUNG,
    "client.http_rpg1.execute_ms.512": "latency_p50_ms on remote-traj-512",
    "client.http_rpg1.iterate16_ms.512": "iterate_p50_ms on remote-traj-512",
    "client.http_rpg1.job32_ms.512": _JOB,
    "client.http_json.execute_ms.512": _RUNG + ": JSON transports",
    "client.tcp_json.execute_ms.64": _RUNG + ": JSON transports",
    "client.tcp_json.execute_ms.512": _RUNG + ": JSON transports",
    "client.overhead_ms": "latency_p50_ms on remote-traj-512",
    "client.retries": "failed ops on remote-traj-512",
    "service.jobs.wall_ms.ce_inf": _JOB,
    "service.jobs.wall_ms.ce_16": _JOB,
    "service.jobs.wall_ms.ce_1": _JOB,
    "service.jobs.checkpoint_ms": _JOB,
    "service.jobs.checkpoint_bytes": _JOB,
    "service.jobs.vs_sync_iterate": _JOB,
    "telemetry.counter_inc_ns": _WAVE + " (tens of increments per request)",
    "telemetry.histogram_observe_ns": _WAVE,
    "telemetry.trace_record_us": _WAVE,
    "telemetry.render_ms": _RUNG,
    "cli.import_s": "setup_s on remote-traj-512",
    "bench.trace_overhead_share": "keeps the harness honest",
    "bench.generator_lag_ms": "keeps the harness honest",
    "bench.traced.op_p50_ms": "the traced run's primary-op median",
    "bench.traced.unattributed_share": "share of traced op time outside every layer call",
}


def note(metric: str) -> str:
    """What a run prints beside a number: the definition of an end-to-end
    metric, or the end-to-end metric a layer number should move."""
    if metric in DEFINITIONS:
        return DEFINITIONS[metric]
    stem = metric[:-3] if metric.endswith((".2d", ".3d")) else metric
    return "-> " + MOVES[stem]


@dataclass(frozen=True)
class Sizes:
    """Every shape, step count and repetition count of one size preset.

    ``FULL`` is the benchmark.  ``QUICK`` exists so ``bench/test_bench.py``
    can walk every code path in seconds; its numbers mean nothing.
    """

    sim2d_shape: Tuple[int, ...]
    sim2d_steps: int
    sim3d_shape: Tuple[int, ...]
    sim3d_steps: int
    trajectories: int       # distinct seeded trajectories (references kept)
    wave_shape: Tuple[int, ...]
    waves: int              # distinct seeded waves
    remote_shape: Tuple[int, ...]
    remote_iterate_steps: int
    remote_job_steps: int
    remote_checkpoint_every: int
    cycles: int             # distinct seeded remote cycles
    warm_ops: int
    setup_samples: int      # cold fresh-process set-ups per untraced run (fastest reported)
    bandwidth_cap_bytes: int
    ladder_steps: int       # steps per timed ladder trajectory
    ladder_reps: int
    ladder_waves: int
    ladder_single_reps: int
    ladder_small_shape: Tuple[int, ...]   # the 64x64 service payload
    ladder_large_shape: Tuple[int, ...]   # the 512x512 wire/client payload
    ladder_job_steps: int
    micro_loops: int        # iterations of ns-scale telemetry loops


FULL = Sizes(
    sim2d_shape=(1024, 1024), sim2d_steps=64,
    sim3d_shape=(32, 96, 96), sim3d_steps=256,
    trajectories=8,
    wave_shape=(64, 64), waves=50,
    remote_shape=(512, 512), remote_iterate_steps=16, remote_job_steps=32,
    remote_checkpoint_every=8, cycles=8,
    warm_ops=3, setup_samples=5,
    bandwidth_cap_bytes=1 << 30,
    ladder_steps=16, ladder_reps=3, ladder_waves=200, ladder_single_reps=50,
    ladder_small_shape=(64, 64), ladder_large_shape=(512, 512),
    ladder_job_steps=64,
    micro_loops=100_000,
)

QUICK = Sizes(
    sim2d_shape=(96, 96), sim2d_steps=8,
    sim3d_shape=(8, 24, 24), sim3d_steps=8,
    trajectories=2,
    wave_shape=(16, 16), waves=4,
    remote_shape=(48, 48), remote_iterate_steps=4, remote_job_steps=8,
    remote_checkpoint_every=4, cycles=2,
    warm_ops=1, setup_samples=1,
    bandwidth_cap_bytes=8 << 20,
    ladder_steps=4, ladder_reps=1, ladder_waves=12, ladder_single_reps=4,
    ladder_small_shape=(16, 16), ladder_large_shape=(48, 48),
    ladder_job_steps=8,
    micro_loops=2_000,
)

#: Shapes of the interpreter oracle check every path passes at set-up.
ORACLE_SHAPE_2D = (32, 32)
ORACLE_SHAPE_3D = (8, 12, 12)
ORACLE_STEPS = 2
