"""Process-wide telemetry: metrics registry and request tracing.

Two small, dependency-free layers the rest of the stack instruments
itself through (and which import nothing from :mod:`repro.service`):

* :mod:`repro.telemetry.registry` — monotonic counters, sampled gauges and
  fixed-bucket log-spaced streaming histograms (p50/p95/p99 without
  retaining samples), collected in one process-wide
  :class:`~repro.telemetry.registry.MetricsRegistry` whose snapshots are
  mergeable across shard processes and renderable as Prometheus text.
* :mod:`repro.telemetry.trace` — span-based request-lifecycle traces
  (enqueue → batch formation → plan lookup → replay → respond) kept in a
  bounded ring buffer with a slow-request threshold, surfaced by the
  ``repro trace`` CLI verb and the ``/trace`` HTTP route.

The serving endpoint's ``/metrics``, ``/healthz`` and ``/trace`` routes
(:mod:`repro.service.http`) render them.

:mod:`repro.telemetry.logs` configures stdlib logging for the serving
stack (``repro serve --log-level`` / ``--log-json``).

Instrumentation contract: every hot-path call site guards its timing with
:func:`~repro.telemetry.registry.metrics_enabled`, and the instruments
themselves no-op when their registry is disabled — so with telemetry off
the steady replay loop runs the exact pre-telemetry instruction sequence,
and with it on the loop stays allocation-free (bucket increments only; the
existing tracemalloc zero-alloc tests guard this).
"""

from .registry import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS,
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    log_buckets,
    merge_snapshots,
    metrics_enabled,
    set_metrics_enabled,
)
from .trace import TraceRing

__all__ = [
    "BATCH_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "RATIO_BUCKETS",
    "TraceRing",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "log_buckets",
    "merge_snapshots",
    "metrics_enabled",
    "set_metrics_enabled",
]
