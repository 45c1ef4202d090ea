"""The option surface, pinned: every settable value needs a caller.

Each parameter, config field or environment variable is one more
combination the tests and the benchmark must cover.  Adding one is a
deliberate act, so it needs a visible edit to the tables below (and a
caller outside the tests that sets it to something other than its
default).
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib

import pytest

import repro
from repro.apps.base import StencilBenchmark
from repro.backend.base import NumpyBackend
from repro.backend.plan import ExecutionPlan
from repro.client import ClientConfig, StencilClient
from repro.engine import SearchEngine
from repro.experiments.pipeline import lift_best_result
from repro.service.jobs import JobManager
from repro.service.registry import DigestCircuitBreaker
from repro.service.server import StencilService
from repro.service.shards import ShardedExecutor
from repro.service.supervisor import ShardSupervisor
from repro.tuning import (AutoTuner, exhaustive_search, hill_climb_search,
                          random_search)

PARAMETERS = {
    NumpyBackend.plan: ("program", "inputs_or_signature", "size_env",
                        "batched", "tile_shape", "parallel_workers"),
    NumpyBackend.iterate: ("program", "inputs", "steps", "carry", "size_env"),
    ExecutionPlan.__init__: ("program", "inputs_or_signature", "size_env",
                             "pool", "batched", "kernel", "tile_shape",
                             "parallel_workers"),
    StencilBenchmark.iterate: ("inputs", "steps", "backend"),
    StencilService.__init__: (
        "store", "batch_window", "max_batch", "crosscheck",
        "shards", "max_queue_depth", "max_inflight_per_digest",
        "shard_timeout_s", "max_respawns", "job_dir", "checkpoint_every"),
    ShardedExecutor.__init__: ("shards", "timeout_s"),
    ShardSupervisor.__init__: ("executor", "max_respawns", "metrics"),
    JobManager.__init__: ("backend", "router", "job_dir", "checkpoint_every",
                          "metrics"),
    DigestCircuitBreaker.__init__: ("clock", "metrics"),
    StencilClient.__init__: ("config", "transport", "rng"),
    SearchEngine.__init__: ("store", "workers", "pruner", "validate", "seed",
                            "scorer", "measure_runs", "measure_size"),
    SearchEngine.run: ("benchmark", "shape", "device", "budget", "strategy",
                       "restarts", "session"),
    SearchEngine.evaluate: ("jobs", "session"),
    AutoTuner.__init__: ("space", "evaluate", "budget", "strategy", "seed",
                         "restarts"),
    lift_best_result: ("benchmark", "shape", "device", "tuner_budget", "engine"),
    exhaustive_search: ("space", "evaluate", "budget"),
    random_search: ("space", "evaluate", "budget", "seed"),
    hill_climb_search: ("space", "evaluate", "budget", "seed", "restarts"),
}

CLIENT_CONFIG_FIELDS = ("host", "port", "transport", "auth_key", "timeout_s",
                        "binary_threshold_bytes")

#: Every flag of the two serving verbs: a CLI flag is a settable value too.
VERB_FLAGS = {
    "serve": {
        "-h", "--help", "--host", "--port", "--store", "--no-store",
        "--window-ms", "--max-batch", "--shards", "--crosscheck",
        "--max-requests", "--prewarm", "--prewarm-shape", "--prewarm-batch",
        "--http-port", "--auth-key", "--max-queue-depth",
        "--max-inflight-per-digest", "--shard-timeout-s", "--max-respawns",
        "--job-dir", "--checkpoint-every", "--inject", "--drain-timeout",
        "--max-request-bytes", "--log-level", "--log-json"},
    "loadgen": {
        "-h", "--help", "--requests", "--shape", "--distinct", "--seed",
        "--window-ms", "--max-batch", "--shards", "--repeats", "--connect",
        "--out", "--assert-batched", "--assert-sharded", "--mix",
        "--deadline-ms", "--transport", "--auth-key", "--concurrency",
        "--max-queue-depth", "--chaos", "--duration-s", "--shard-timeout-s",
        "--max-respawns", "--recovery-timeout-s", "--assert-chaos",
        "--chaos-p99-ms", "--assert-no-high-shed", "--job-drill", "--steps",
        "--checkpoint-every", "--job-dir", "--kill-after-steps",
        "--drill-timeout-s", "--assert-job-drill"},
}

#: Every environment variable the package reads.
ENVIRONMENT = {"CC", "XDG_CACHE_HOME", "REPRO_INJECT"}


@pytest.mark.parametrize("function", list(PARAMETERS),
                         ids=lambda function: function.__qualname__)
def test_parameters_are_pinned(function):
    names = tuple(name for name in inspect.signature(function).parameters
                  if name != "self")
    assert names == PARAMETERS[function]


def test_client_config_fields_are_pinned():
    fields = tuple(field.name for field in dataclasses.fields(ClientConfig))
    assert fields == CLIENT_CONFIG_FIELDS


def _verb_flags(verb: str) -> set:
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if action.choices and verb in action.choices)
    return {flag for action in subparsers.choices[verb]._actions
            for flag in action.option_strings}


@pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
def test_verb_flags_are_pinned(verb):
    assert _verb_flags(verb) == VERB_FLAGS[verb]


def test_serving_never_names_a_device():
    """Serving runs the program as written: no flag picks a tuned variant."""
    serve, loadgen = _verb_flags("serve"), _verb_flags("loadgen")
    assert {"--store", "--no-store"} <= serve
    assert not {"--auto-tune", "--device"} & serve
    assert not {"--store", "--device"} & loadgen


def _is_environ(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ")


def _environment_keys(tree: ast.Module):
    """The key expression of every ``os.environ`` / ``os.getenv`` access."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            yield node.slice
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name == "getenv" or (isinstance(func, ast.Attribute)
                                    and _is_environ(func.value)):
                yield node.args[0]


def _module_strings(tree: ast.Module):
    """Module-level ``NAME = "literal"`` bindings (how a key gets a name)."""
    strings = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            strings[node.targets[0].id] = node.value.value
    return strings


def test_environment_variables_are_pinned():
    root = pathlib.Path(repro.__file__).parent
    read = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        strings = _module_strings(tree)
        for key in _environment_keys(tree):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                read.add(key.value)
            elif isinstance(key, ast.Name) and key.id in strings:
                read.add(strings[key.id])
            else:
                raise AssertionError(
                    f"{path}:{key.lineno}: environment key is not a literal "
                    f"or a module-level string constant")
    assert read == ENVIRONMENT
