"""Command-line interface for reproducing the paper's experiments.

Usage (after ``pip install -e .``, or with ``PYTHONPATH=src``)::

    python -m repro table1
    python -m repro figure7 [--benchmarks hotspot2d stencil2d] [--budget 2000]
    python -m repro figure8 [--sizes small] [--devices nvidia amd]
    python -m repro kernel jacobi2d5pt --strategy tiled --tile 18 --size 64 64
    python -m repro verify [--benchmarks heat poisson] [--backend crosscheck]
    python -m repro explore stencil2d --workers 4 [--budget 200]
    python -m repro tune [stencil2d] --workers 2 --budget 20 [--resume SESSION]
    python -m repro serve --port 7457 [--store .repro/engine.sqlite]
                          [--prewarm suite] [--shards 2]
                          [--shard-timeout-s 30]
                          [--http-port 7458] [--log-level info] [--log-json]
    python -m repro submit stencil2d --port 7457 --shape 64 64
    python -m repro loadgen [stencil2d] --requests 64 [--shards 2]
                            [--connect HOST:PORT] [--out report.json]
    python -m repro loadgen [stencil2d] --chaos kill-shard:t=2,hang-shard:t=4
                            [--duration-s 6] [--assert-chaos]
    python -m repro trace --port 7457 [--slow] [--limit 20] [--json]
    python -m repro stats [--store .repro/engine.sqlite]

Every sub-command prints human-readable text; the figure commands emit the
same rows the paper plots.  ``explore`` and ``tune`` (and the Lift side of
the figure commands) run on the search engine: simulator scores are
evaluated inline, validating and measured evaluations fan out over worker
processes, and every cost is memoised in a SQLite results store, so
re-running (or ``--resume``-ing) a session skips every already-evaluated
point.  ``serve`` exposes the asyncio
micro-batching execution service over TCP (JSON lines) — ``--shards N``
pre-forks N worker processes that sweep micro-batched groups concurrently;
``submit`` sends it requests; ``loadgen`` benchmarks batched serving
against the per-request serial baseline (``--shards N`` drives the
multi-process service in-process) and, with ``--chaos``, kills or hangs
real shard processes mid-load to prove the supervisor heals the fleet
with zero failed requests; ``REPRO_INJECT=SPEC repro serve`` arms
deterministic fault injection for drills; ``stats`` dumps the
compilation-cache and results-store counters as one JSON blob.  Timings
of the execution stack itself are ``python -m bench``
(``bench/README.md``), not a verb here.
``docs/OPERATIONS.md`` documents every verb, flag and emitted artifact in
detail.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _cmd_table1(args: argparse.Namespace) -> int:
    from .experiments.table1 import format_table1

    print(format_table1())
    return 0


def _cmd_figure7(args: argparse.Namespace) -> int:
    from .experiments.figure7 import format_figure7, run_figure7

    rows = run_figure7(
        benchmarks=args.benchmarks or None,
        devices=args.devices or None,
        tuner_budget=args.budget,
        shape_scale=args.scale,
        workers=args.workers,
    )
    print(format_figure7(rows))
    return 0


def _cmd_figure8(args: argparse.Namespace) -> int:
    from .experiments.figure8 import format_figure8, run_figure8

    rows = run_figure8(
        benchmarks=args.benchmarks or None,
        devices=args.devices or None,
        sizes=tuple(args.sizes),
        tuner_budget=args.budget,
        shape_scale=args.scale,
        workers=args.workers,
    )
    print(format_figure8(rows))
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    from .apps import get_benchmark
    from .codegen import generate_kernel
    from .rewriting.strategies import NAIVE, LoweringError, lower_program, tiled_strategy

    benchmark = get_benchmark(args.benchmark)
    shape = tuple(args.size) if args.size else tuple(
        min(extent, 64) for extent in benchmark.default_shape
    )
    if args.strategy == "tiled":
        strategy = tiled_strategy(args.tile, use_local_memory=not args.no_local_memory)
    else:
        strategy = NAIVE
    try:
        lowered = lower_program(benchmark.build_program(), strategy)
    except LoweringError as error:
        print(f"error: {args.benchmark}: {error}", file=sys.stderr)
        return 2
    kernel = generate_kernel(
        lowered, benchmark.input_types(shape), f"{args.benchmark}_kernel"
    )
    print(f"// {kernel.describe()}")
    print(kernel.source)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .apps import ALL_BENCHMARKS

    shapes = {2: (13, 11), 3: (5, 7, 9)}
    keys = args.benchmarks or sorted(ALL_BENCHMARKS)
    failures = 0
    for key in keys:
        benchmark = ALL_BENCHMARKS[key]
        ok = benchmark.verify(
            shape=shapes[benchmark.ndims], seed=17, backend=args.backend
        )
        print(f"{key:<14} {'OK' if ok else 'MISMATCH'}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def _run_engine_command(args: argparse.Namespace, command: str) -> int:
    from .apps.suite import get_benchmark
    from .engine import CostModelPruner, ResultsStore, SearchEngine
    from .experiments.pipeline import scaled_shape

    store = ResultsStore(args.store)
    resumed_spec = None
    if args.resume:
        resumed_spec = store.session_spec(args.resume)
        if resumed_spec is None:
            known = ", ".join(sid for sid, _ in store.sessions()) or "<none>"
            print(f"error: unknown session {args.resume!r} in {args.store} "
                  f"(known sessions: {known})", file=sys.stderr)
            return 2

    if resumed_spec is not None:
        # The recorded spec defines the job set; CLI flags only control
        # execution (worker count, store path).
        benchmark = get_benchmark(str(resumed_spec["benchmark"]).lower().replace(" ", ""))
        shape = tuple(int(extent) for extent in resumed_spec["shape"])
        device = str(resumed_spec["device"])
        budget = int(resumed_spec["budget"])
        strategy = str(resumed_spec.get("strategy", "exhaustive"))
        restarts = int(resumed_spec.get("restarts", 4))
        seed = int(resumed_spec.get("seed", 0))
        validate = resumed_spec.get("validate_backend", "numpy") \
            if resumed_spec.get("validate", False) else False
        scorer = str(resumed_spec.get("scorer", "simulator"))
        measure_runs = int(resumed_spec.get("measure_runs", 3))
        measure_size = int(resumed_spec.get("measure_size", 256))
        prune_margin = resumed_spec.get("prune_margin")
        session = args.resume
    else:
        benchmark = get_benchmark(args.benchmark)
        shape = scaled_shape(benchmark.default_shape, args.scale)
        device = args.device
        budget = args.budget
        strategy = getattr(args, "strategy", "exhaustive")
        restarts = getattr(args, "restarts", 4)
        seed = args.seed
        validate = args.validate
        scorer = getattr(args, "scorer", "simulator")
        measure_runs = getattr(args, "measure_runs", 3)
        measure_size = getattr(args, "measure_size", 256)
        prune_margin = None if args.no_prune else args.prune_margin
        session = args.session

    pruner = None if prune_margin is None else CostModelPruner(margin=float(prune_margin))
    with SearchEngine(store=store, workers=args.workers, pruner=pruner,
                      validate=validate, seed=seed, scorer=scorer,
                      measure_runs=measure_runs,
                      measure_size=measure_size) as engine:
        outcome = engine.run(
            benchmark,
            shape=shape,
            device=device,
            budget=budget,
            strategy=strategy,
            restarts=restarts,
            session=session,
        )

    shape_text = "×".join(str(extent) for extent in outcome.shape)
    print(f"session {outcome.session} (store {args.store})")
    scorer_text = "" if scorer == "simulator" else f", scorer {scorer}"
    print(f"{outcome.benchmark} on {outcome.device}, shape {shape_text}, "
          f"strategy {strategy}, budget {budget}, workers {args.workers}{scorer_text}")
    pruned = [decision for decision in outcome.pruned if not decision.kept]
    print(f"variants: {len(outcome.per_variant)} tuned, "
          f"{len(pruned)} pruned by the cost model")
    if command == "explore":
        for ranked in sorted(outcome.per_variant, key=lambda v: v.best_cost):
            print(f"  {ranked.variant.describe():<32} {ranked.best_cost * 1e3:>10.4f} ms  "
                  f"{ranked.best_config}  [{ranked.evaluations} evals]")
        for decision in pruned:
            print(f"  {decision.variant.describe():<32} {'pruned':>13}  "
                  f"(estimate {decision.estimate * 1e3:.4f} ms)")
    best = outcome.best
    print(f"best: {best.variant.describe()} {best.best_config} — "
          f"{best.best_cost * 1e3:.4f} ms, {outcome.gelements_per_second:.3f} GElem/s")
    recalled = outcome.store_hits
    fresh = outcome.fresh_evaluations
    suffix = " — zero re-evaluations" if fresh == 0 and recalled else ""
    print(f"evaluations: {outcome.evaluations} tuner lookups; "
          f"{fresh} fresh (incl. validation jobs), "
          f"{recalled} recalled from store{suffix}")
    print(f"wall clock: {outcome.wall_s:.2f}s")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    return _run_engine_command(args, "explore")


def _cmd_tune(args: argparse.Namespace) -> int:
    return _run_engine_command(args, "tune")


def _cmd_serve(args: argparse.Namespace) -> int:
    import inspect

    from . import faults
    from .service.server import StencilService, run_server
    from .telemetry.logs import configure_logging

    configure_logging(level=args.log_level, json_lines=args.log_json)
    if faults.ARMED:
        # Armed from REPRO_INJECT at import; spawned shard processes
        # inherit the variable and arm the same schedule.
        points = ", ".join(row["point"] for row in faults.snapshot())
        print(f"fault injection armed: {points}", flush=True)
    store = None if args.no_store else args.store
    prewarm = None
    if args.prewarm is not None:
        from .apps.suite import execution_requests

        keys = None if not args.prewarm or "suite" in args.prewarm \
            else args.prewarm
        prewarm = execution_requests(
            benchmarks=keys,
            shape=tuple(args.prewarm_shape) if args.prewarm_shape else None,
        )
    shard_text = f", shards {args.shards}" if args.shards else ""
    http_text = ("" if args.http_port is None else
                 f", http http://{args.host}:{args.http_port}/v1 + /metrics")
    if args.auth_key:
        http_text += ", auth required"
    print(f"serving on {args.host}:{args.port} "
          f"(store {store or '<none>'}, "
          f"window {args.window_ms} ms, max batch {args.max_batch}"
          f"{shard_text}{http_text})",
          flush=True)
    # Every flag named like a keyword of run_server or StencilService feeds
    # that keyword; the flags that are not the keyword's value are written out.
    accepted = {*inspect.signature(run_server).parameters,
                *inspect.signature(StencilService).parameters}
    keywords = {name: value for name, value in vars(args).items()
                if name in accepted}
    keywords.update(
        store=store,
        batch_window=args.window_ms / 1e3,
        prewarm=prewarm,
        prewarm_batch=tuple(args.prewarm_batch or ()),
    )
    stats = run_server(**keywords)
    if stats:
        import json as _json

        print(_json.dumps(stats.get("service", {}), indent=2))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from .client import ClientConfig, StencilClient
    from .telemetry.trace import format_trace

    meta = {"slow": bool(args.slow)}
    if args.limit is not None:
        meta["limit"] = args.limit
    config = ClientConfig(host=args.host, port=args.port,
                          auth_key=args.auth_key)
    with StencilClient(config) as client:
        reply, _grids = client.transport.call("trace", meta, None,
                                              client.config.timeout_s)
    if not reply.get("ok"):
        print(f"error: {reply.get('error')}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(reply, indent=2, sort_keys=True))
        return 0
    ring = reply.get("ring") or {}
    traces = reply.get("traces") or []
    print(f"trace ring: {ring.get('retained')}/{ring.get('capacity')} retained "
          f"({ring.get('recorded')} recorded, {ring.get('slow_recorded')} slow "
          f"at >= {ring.get('slow_ms')} ms)")
    if not traces:
        print("no traces recorded" + (" above the slow threshold" if args.slow
                                      else ""))
        return 0
    for trace in traces:
        print(format_trace(trace))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from .client import ClientConfig, StencilClient
    from .service.requests import ExecutionRequest

    shape = tuple(args.shape) if args.shape else None
    requests = [
        ExecutionRequest.for_benchmark(args.benchmark, shape=shape,
                                       seed=args.seed + index,
                                       return_result=args.show_result)
        for index in range(args.count)
    ]
    # One worker per request: all --count requests are in flight at once,
    # so the server can stack them into micro-batches.
    config = ClientConfig(host=args.host, port=args.port,
                          auth_key=args.auth_key)
    with StencilClient(config) as client, \
            ThreadPoolExecutor(max_workers=max(1, args.count)) as pool:
        responses = list(pool.map(client.execute, requests))
    failures = 0
    for index, response in enumerate(responses):
        if not response.ok:
            failures += 1
            print(f"request {index}: ERROR {response.error}")
            continue
        print(
            f"request {index}: {response.benchmark} "
            f"digest {response.digest[:12]} "
            f"batch {response.batch_size} "
            f"latency {response.latency_s * 1e3:.2f} ms"
        )
        if args.show_result:
            print(response.result.tolist())
    return 1 if failures else 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from .service.loadgen import scenario_kwargs, select_scenario

    scenario = select_scenario(args)
    report = scenario.run(**scenario_kwargs(scenario, args))
    print(scenario.format(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.out}")
    problems = [
        problem
        for flag, check in scenario.checks.items() if getattr(args, flag)
        for problem in check(report, args)
    ]
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as _json

    from .service.metrics import stats_report

    print(_json.dumps(stats_report(store=args.store), indent=2,
                      sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'High Performance Stencil Code Generation with Lift' (CGO 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 (benchmark characteristics)")

    for name, helptext in (
        ("figure7", "Lift vs hand-written kernels"),
        ("figure8", "Lift vs PPCG"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--benchmarks", nargs="*", default=None)
        p.add_argument("--devices", nargs="*", default=None,
                       choices=["nvidia", "amd", "arm"])
        p.add_argument("--budget", type=int, default=3000,
                       help="tuner evaluation budget per kernel variant")
        p.add_argument("--scale", type=float, default=1.0,
                       help="scale factor applied to the paper's input sizes")
        p.add_argument("--workers", type=int, default=1,
                       help="engine worker processes (the sweep scores on the "
                            "simulator, which runs inline at any count)")
        if name == "figure8":
            p.add_argument("--sizes", nargs="*", default=["small", "large"],
                           choices=["small", "large"])

    kernel = sub.add_parser("kernel", help="generate the OpenCL kernel for one benchmark")
    kernel.add_argument("benchmark")
    kernel.add_argument("--strategy", choices=["naive", "tiled"], default="naive")
    kernel.add_argument("--tile", type=int, default=18)
    kernel.add_argument("--no-local-memory", action="store_true")
    kernel.add_argument("--size", type=int, nargs="*", default=None,
                        help="input grid extents (defaults to a small grid)")

    verify = sub.add_parser("verify", help="check every benchmark against its NumPy golden")
    verify.add_argument("--benchmarks", nargs="*", default=None)
    verify.add_argument("--backend", default=None,
                        choices=["numpy", "interpreter", "crosscheck"],
                        help="execution backend (default: numpy)")

    from .engine.store import DEFAULT_STORE_PATH

    for name, helptext in (
        ("explore", "rank a benchmark's rewrite variants on the parallel engine"),
        ("tune", "explore + tune a benchmark on the parallel engine"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("benchmark", nargs="?", default="stencil2d",
                       help="benchmark key (default: stencil2d)")
        p.add_argument("--device", default="nvidia",
                       choices=["nvidia", "amd", "arm"])
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for --validate / --scorer measured "
                            "jobs (simulator scores always run inline)")
        p.add_argument("--budget", type=int, default=200,
                       help="evaluation budget per kernel variant")
        p.add_argument("--scale", type=float, default=1.0,
                       help="scale factor applied to the paper's input size")
        p.add_argument("--store", default=DEFAULT_STORE_PATH,
                       help="SQLite results store (memoises across runs)")
        p.add_argument("--session", default=None,
                       help="name this search session (default: generated)")
        p.add_argument("--resume", default=None, metavar="SESSION_ID",
                       help="re-run a recorded session, skipping every "
                            "already-evaluated point")
        p.add_argument("--validate", action="store_true",
                       help="compile + functionally cross-check every variant "
                            "in the workers")
        p.add_argument("--no-prune", action="store_true",
                       help="disable cost-model pruning of dominated variants")
        p.add_argument("--prune-margin", type=float, default=4.0,
                       help="prune variants estimated worse than MARGIN × the best")
        p.add_argument("--seed", type=int, default=0)
        if name == "tune":
            p.add_argument("--strategy", default="exhaustive",
                           choices=["exhaustive", "random", "hillclimb"])
            p.add_argument("--restarts", type=int, default=4,
                           help="hill-climbing basin walks")
            p.add_argument("--scorer", default="simulator",
                           choices=["simulator", "measured"],
                           help="simulator = deterministic device model; "
                                "measured = time the compiled kernel in the workers")
            p.add_argument("--measure-runs", type=int, default=3)
            p.add_argument("--measure-size", type=int, default=256,
                           help="target grid extent per dimension for measured scoring")

    serve = sub.add_parser(
        "serve",
        help="run the micro-batching execution service as a TCP endpoint",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7457)
    serve.add_argument("--store", default=DEFAULT_STORE_PATH,
                       help="results store the stats op summarises (read "
                            "only, never created; serving does not consult "
                            "it)")
    serve.add_argument("--no-store", action="store_true",
                       help="report no results store in stats")
    serve.add_argument("--window-ms", type=float, default=2.0,
                       help="micro-batching window in milliseconds")
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--shards", type=int, default=0,
                       help="pre-fork this many worker processes and "
                            "dispatch micro-batched groups to them "
                            "round-robin over shared memory (0 = execute "
                            "in-process)")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="exit after serving this many requests "
                            "(smoke tests); default: serve forever")
    serve.add_argument("--prewarm", nargs="*", default=None, metavar="BENCH",
                       help="capture execution plans before accepting "
                            "connections: 'suite' (or no value) prewarms "
                            "every registered benchmark, otherwise the "
                            "named keys — first-request latency then "
                            "excludes plan_build_s")
    serve.add_argument("--prewarm-shape", type=int, nargs="*", default=None,
                       help="input grid extents the prewarmed plans are "
                            "sized for (plans are shape-bound)")
    serve.add_argument("--prewarm-batch", type=int, nargs="*", default=None,
                       metavar="CAP",
                       help="also capture the batched plans for these "
                            "micro-batch capacities (rounded up to the "
                            "batcher's powers of two)")
    serve.add_argument("--http-port", type=int, default=None,
                       help="also expose the HTTP transport on this port "
                            "(POST /v1/execute and /v1/iterate, JSON or "
                            "binary grid bodies, sharing the same batcher; "
                            "GET /metrics and /healthz without the auth "
                            "key, GET /trace); default: TCP only")
    serve.add_argument("--auth-key", default=None,
                       help="require this shared key on every request "
                            "(HTTP 'Authorization: Bearer', TCP 'auth' "
                            "field); default: no authentication")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       help="reject new work in-band (AdmissionRejected + "
                            "retry_after_ms) once this many requests are "
                            "queued; arriving higher-priority work evicts "
                            "queued lower-priority work instead; default: "
                            "unbounded")
    serve.add_argument("--shard-timeout-s", type=float, default=30.0,
                       help="per-round-trip shard watchdog: a shard that "
                            "neither answers nor dies within this window is "
                            "failed out of rotation and respawned")
    serve.add_argument("--job-dir", default=None, metavar="DIR",
                       help="durable-job state directory: multi-timestep "
                            "jobs checkpoint here and are resumed from it "
                            "on restart (default: none, jobs are kept in "
                            "memory and lost with the process)")
    serve.add_argument("--checkpoint-every", type=int, default=16,
                       metavar="STEPS",
                       help="default checkpoint segment length for durable "
                            "jobs — a crash loses at most this many steps "
                            "(default 16; per-job override on submission)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds to wait for open connections at "
                            "shutdown before shedding still-queued requests "
                            "with DeadlineExceeded (default 10)")
    serve.add_argument("--max-request-bytes", type=int,
                       default=32 * 1024 * 1024,
                       help="reject a TCP request line or HTTP body larger "
                            "than this with an in-band RequestTooLarge "
                            "error (default 32 MiB)")
    serve.add_argument("--log-level", default="info",
                       choices=["debug", "info", "warning", "error"],
                       help="stdlib logging level for the 'repro' logger")
    serve.add_argument("--log-json", action="store_true",
                       help="emit log records as JSON lines (one object "
                            "per line) instead of human-readable text")

    submit = sub.add_parser("submit", help="send requests to a running service")
    submit.add_argument("benchmark", nargs="?", default="stencil2d")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7457)
    submit.add_argument("--shape", type=int, nargs="*", default=None,
                        help="input grid extents")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--count", type=int, default=1,
                        help="send this many requests concurrently (they "
                             "batch server-side)")
    submit.add_argument("--show-result", action="store_true",
                        help="fetch and print the result grid")
    submit.add_argument("--auth-key", default=None,
                        help="shared key for a server started with "
                             "--auth-key")

    loadgen = sub.add_parser(
        "loadgen",
        help="benchmark batched serving against the per-request serial baseline",
    )
    loadgen.add_argument("benchmark", nargs="?", default="stencil2d")
    loadgen.add_argument("--requests", type=int, default=64,
                         help="concurrent requests per timed stream")
    loadgen.add_argument("--shape", type=int, nargs="*", default=None,
                         help="input grid extents (default: small grids)")
    loadgen.add_argument("--distinct", action="store_true",
                         help="distinct-seed traffic instead of identical requests")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--window-ms", type=float, default=5.0)
    loadgen.add_argument("--max-batch", type=int, default=64)
    loadgen.add_argument("--shards", type=int, default=0,
                         help="drive a sharded in-process service with this "
                              "many pre-forked worker processes (ignored "
                              "with --connect; the server chooses there)")
    loadgen.add_argument("--repeats", type=int, default=3,
                         help="timed stream repetitions (best wall kept)")
    loadgen.add_argument("--connect", default=None, metavar="HOST:PORT",
                         help="drive a running `repro serve` endpoint "
                              "instead of an in-process service")
    loadgen.add_argument("--out", default=None,
                         help="write the report as JSON to this path")
    loadgen.add_argument("--assert-batched", action="store_true",
                         help="exit non-zero unless batching occurred with "
                              "the expected compilation count — one, or one "
                              "per traffic-serving shard (CI smoke check)")
    loadgen.add_argument("--assert-sharded", action="store_true",
                         help="exit non-zero unless every shard served "
                              "traffic (CI sharded smoke check)")
    loadgen.add_argument("--mix", default=None, metavar="SPEC",
                         help="mixed-priority replay mode: priority weights "
                              "like high:1,normal:8,batch:4 — reports "
                              "per-priority p50/p99 and shed/reject counts "
                              "instead of the serial-baseline comparison")
    loadgen.add_argument("--deadline-ms", type=float, default=None,
                         help="server-side freshness bound stamped on every "
                              "mixed-mode request; stale queued work is "
                              "shed with DeadlineExceeded")
    loadgen.add_argument("--transport", default="tcp",
                         choices=["tcp", "http"],
                         help="wire protocol for --connect (http drives "
                              "the /v1/execute endpoint, which exposes no "
                              "stats op: batching counters then read None)")
    loadgen.add_argument("--auth-key", default=None,
                         help="shared key for an authenticated --connect "
                              "endpoint (every mode)")
    loadgen.add_argument("--concurrency", type=int, default=8,
                         help="client worker threads in mixed mode with "
                              "--connect (default 8; plain mode keeps the "
                              "whole stream in flight, chaos one wave)")
    loadgen.add_argument("--max-queue-depth", type=int, default=None,
                         help="admission queue-depth cap for the in-process "
                              "mixed-mode service")
    loadgen.add_argument("--chaos", default=None, metavar="SPEC",
                         help="run the chaos gate instead of the benchmark "
                              "comparison: a schedule of real shard "
                              "failures, e.g. 'kill-shard:t=2,hang-shard:"
                              "t=4' (optionally 'shard=N' to pick the "
                              "victim)")
    loadgen.add_argument("--duration-s", type=float, default=6.0,
                         help="chaos mode: seconds of sustained load")
    loadgen.add_argument("--shard-timeout-s", type=float, default=1.0,
                         help="chaos mode: shard watchdog round-trip bound")
    loadgen.add_argument("--recovery-timeout-s", type=float, default=20.0,
                         help="chaos mode: how long to wait for every "
                              "victim shard to rejoin and serve again")
    loadgen.add_argument("--assert-chaos", action="store_true",
                         help="exit nonzero unless the chaos contract held: "
                              "zero failed/lost requests, every victim "
                              "respawned, fleet recovered (CI gate)")
    loadgen.add_argument("--assert-no-high-shed", action="store_true",
                         help="exit non-zero if any high-priority request "
                              "was shed, rejected or failed (CI check; "
                              "mixed mode only)")
    loadgen.add_argument("--job-drill", action="store_true",
                         help="run the job-durability drill instead: spawn "
                              "a serve subprocess with --job-dir, submit a "
                              "long checkpointed job over authenticated "
                              "HTTP, SIGKILL the server mid-trajectory, "
                              "restart it, and verify the job resumes and "
                              "finishes bit-identically")
    loadgen.add_argument("--steps", type=int, default=512,
                         help="job-drill mode: trajectory length of the "
                              "durable job (default 512)")
    loadgen.add_argument("--checkpoint-every", type=int, default=8,
                         help="job-drill mode: checkpoint segment length "
                              "(default 8)")
    loadgen.add_argument("--job-dir", default=None, metavar="DIR",
                         help="job-drill mode: durable state directory "
                              "shared by both server incarnations (default: "
                              "a temp dir, removed on success)")
    loadgen.add_argument("--kill-after-steps", type=int, default=None,
                         help="job-drill mode: SIGKILL once this many steps "
                              "are checkpointed (default: one segment)")
    loadgen.add_argument("--assert-job-drill", action="store_true",
                         help="exit non-zero unless the durability contract "
                              "held: resumed once, completed, bit-identical "
                              "result, checkpoint/resume counters visible "
                              "in /metrics (CI gate)")

    stats = sub.add_parser(
        "stats",
        help="dump compilation-cache and results-store counters as one JSON blob",
    )
    stats.add_argument("--store", default=DEFAULT_STORE_PATH)

    trace = sub.add_parser(
        "trace",
        help="fetch recent request-lifecycle traces from a running service",
    )
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, default=7457)
    trace.add_argument("--slow", action="store_true",
                       help="only traces over the service's slow-request "
                            "threshold")
    trace.add_argument("--limit", type=int, default=None,
                       help="at most this many traces (most recent first)")
    trace.add_argument("--json", action="store_true",
                       help="print the raw JSON reply instead of the "
                            "per-stage breakdown")
    trace.add_argument("--auth-key", default=None,
                       help="shared key for a server started with "
                            "--auth-key")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table1": _cmd_table1,
        "figure7": _cmd_figure7,
        "figure8": _cmd_figure8,
        "kernel": _cmd_kernel,
        "verify": _cmd_verify,
        "explore": _cmd_explore,
        "tune": _cmd_tune,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "loadgen": _cmd_loadgen,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
