"""The stencil execution service: async batching over compiled kernels.

This package turns the compiled NumPy backend into a long-lived,
high-throughput serving subsystem:

* :class:`StencilService` — the asyncio micro-batching server: concurrent
  requests that share a structural digest + input signature are stacked
  along a leading batch axis and executed as **one** vectorized call
  (one compile, one sweep, N responses);
* :class:`DigestRouter` — routes each request's digest to its program as
  written, one route per digest;
* :class:`ServiceClient` — the blocking in-process client;
  :func:`serve_tcp` / :func:`run_server` — the JSON-lines TCP endpoint
  behind ``repro serve`` / ``repro submit``;
* :mod:`.ops` — the one op table (``execute``, ``job_*``, ``ping``,
  ``stats``, ``trace``) and refusal mapping both endpoints dispatch
  through; :func:`serve_tcp` and :func:`serve_http` are codecs over it;
* :mod:`.executor` — the one group sweep, trajectory loop and
  ``plan → generic`` fallback chain every execution path above and below
  calls;
* :mod:`.shards` — the pre-forked worker processes behind
  ``StencilService(shards=N)`` / ``repro serve --shards``: groups are
  dispatched round-robin over shared-memory slabs so N sweeps run
  concurrently on a multi-core machine (:class:`ShardedExecutor`);
* :mod:`.loadgen` — the load generator behind ``repro loadgen``: four
  traffic scenarios (plain, mixed-priority, chaos, job drill), each
  written once over an in-process or a remote ``Target``;
* :mod:`.metrics` — the shared ``/metrics``-style stats report, also
  printed by ``repro stats``.
"""

from .loadgen import (
    check_batching,
    check_chaos,
    check_no_high_shed,
    check_sharding,
    format_chaos_loadgen,
    format_loadgen,
    format_mixed_loadgen,
    parse_chaos,
    parse_mix,
    run_chaos_loadgen,
    run_loadgen,
    run_mixed_loadgen,
)
from .metrics import stats_report
from .registry import DigestCircuitBreaker, DigestRouter
from .http import serve_http
from .requests import ExecutionRequest, ExecutionResponse, ServiceError
from .server import ServiceClient, StencilService, run_server, serve_tcp
from .shards import ShardedExecutor, ShardError, ShardUnavailable
from .supervisor import ShardSupervisor

__all__ = [
    "DigestCircuitBreaker",
    "DigestRouter",
    "ExecutionRequest",
    "ExecutionResponse",
    "ServiceClient",
    "ServiceError",
    "ShardError",
    "ShardSupervisor",
    "ShardUnavailable",
    "ShardedExecutor",
    "StencilService",
    "check_batching",
    "check_chaos",
    "check_no_high_shed",
    "check_sharding",
    "format_chaos_loadgen",
    "format_loadgen",
    "format_mixed_loadgen",
    "parse_chaos",
    "parse_mix",
    "run_chaos_loadgen",
    "run_loadgen",
    "run_mixed_loadgen",
    "run_server",
    "serve_http",
    "serve_tcp",
    "stats_report",
]
