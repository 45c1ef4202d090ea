"""``python -m bench``: the one command behind every number in this repo.

    python -m bench                       every workload, untraced
    python -m bench --trace               ... then each again, traced, with the ladder
    python -m bench --workload sim2d-dram --seed 3 --seconds 15 --trace 0
                                          one workload in this process (the
                                          form BENCHMARK.json's driver runs);
                                          the last line is its JSON result
    python -m bench --compare OLD.json    gate against an earlier --json file
    python -m bench repeat --sets 2       do two sets of three runs agree?
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from . import OUT_DIR, ensure_importable, procs, spec


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", nargs="?", choices=("run", "repeat"), default="run")
    parser.add_argument("--workload", action="append", choices=spec.WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="timed window per run")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="record spans and walk the ladder")
    parser.add_argument("--json", metavar="PATH", help="write the machine-readable result")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="gate end-to-end metrics against an earlier result")
    parser.add_argument("--sets", type=int, default=2, help="repeat: number of sets")
    # Self-test only: tiny sizes whose numbers mean nothing, and a deliberately
    # wrong reference that must make the run fail.
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    # How the suite walks the ladder once: one process walks and writes it,
    # the traced workload runs report from the file.
    parser.add_argument("--walk-ladder", metavar="PATH", help=argparse.SUPPRESS)
    parser.add_argument("--ladder", metavar="PATH", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Dispatch, and leave no process behind on any path out."""
    try:
        return dispatch(parse(argv))
    finally:
        procs.stop_resource_tracker()


def dispatch(args: argparse.Namespace) -> int:
    ensure_importable()
    # A terminated run still unwinds its ``finally`` blocks: they are what
    # stops the server subprocess and the shard processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = args.workload or list(spec.WORKLOAD_NAMES)

    if args.mode == "repeat":
        from .report import repeat

        return repeat(names, args.seed, args.seconds, args.sets, args.quick)

    if args.walk_ladder:
        from . import runner

        return runner.ladder_only(args.quick, args.walk_ladder)

    if args.workload and len(args.workload) == 1:
        from . import runner

        if args.setup_only:
            return runner.setup_only(names[0], args.seed,
                                     spec.QUICK if args.quick else spec.FULL)
        return runner.run(names[0], args.seed, args.seconds, bool(args.trace),
                          args.quick, args.json, args.corrupt_reference, args.ladder)

    from .report import compare, run_suite, summary

    suite = run_suite(names, args.seed, args.seconds, bool(args.trace), args.quick)
    print(summary(suite))
    path = args.json or os.path.join(OUT_DIR, "result.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(suite, handle, indent=1)
        handle.write("\n")
    print(f"result written to {os.path.relpath(path)}")
    code = 0 if suite["correct"] else 1
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            text, compared = compare(suite, json.load(handle))
        print(text)
        code = code or compared
    return code


if __name__ == "__main__":
    sys.exit(main())
