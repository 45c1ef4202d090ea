"""The metrics registry: quantile accuracy, shard merging, Prometheus text.

The histogram contract under test is the one the loadgen report asserts on
every run: a bucket-derived quantile estimate lands within one log-spaced
bucket (a factor of 2 for :data:`LATENCY_BUCKETS`) of the exact
``numpy.percentile`` value, across distribution shapes.  Merging must be a
pure bucket/counter sum so fleet-level percentiles come out of shard
snapshots without shipping samples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.telemetry.registry import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    log_buckets,
    merge_snapshots,
    render_snapshot,
    snapshot_quantile,
)


def _distributions():
    rng = np.random.default_rng(7)
    return {
        "uniform": rng.uniform(1e-4, 0.5, size=4000),
        "lognormal": np.exp(rng.normal(np.log(5e-3), 1.2, size=4000)),
        "exponential": rng.exponential(2e-3, size=4000) + 1e-6,
        "bimodal": np.concatenate([
            rng.normal(2e-3, 2e-4, size=3000).clip(1e-6),
            rng.normal(0.2, 0.02, size=1000).clip(1e-6),
        ]),
    }


class TestHistogramQuantiles:
    @pytest.mark.parametrize("name", sorted(_distributions()))
    @pytest.mark.parametrize("q", [50, 90, 95, 99])
    def test_quantile_within_one_bucket_of_numpy(self, name, q):
        samples = _distributions()[name]
        hist = Histogram("latency", buckets=LATENCY_BUCKETS)
        for sample in samples:
            hist.observe(sample)
        exact = float(np.percentile(samples, q))
        estimate = hist.quantile(q)
        assert estimate > 0
        assert abs(hist.bucket_index(estimate) - hist.bucket_index(exact)) <= 1, (
            f"{name} p{q}: estimate {estimate:.6f} vs exact {exact:.6f} "
            f"landed more than one bucket apart"
        )

    def test_quantile_clamped_to_observed_extremes(self):
        hist = Histogram("latency", buckets=LATENCY_BUCKETS)
        for value in (0.010, 0.011, 0.012):
            hist.observe(value)
        assert 0.010 <= hist.quantile(0) <= 0.012
        assert 0.010 <= hist.quantile(100) <= 0.012

    def test_overflow_bucket_uses_observed_max(self):
        hist = Histogram("latency", buckets=(1.0, 2.0))
        hist.observe(5.0)
        hist.observe(9.0)
        assert hist.counts[-1] == 2  # both in overflow
        assert 2.0 <= hist.quantile(99) <= 9.0

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("latency").quantile(99) == 0.0

    def test_observe_keeps_fixed_storage(self):
        hist = Histogram("latency", buckets=LATENCY_BUCKETS)
        width = len(hist.counts)
        for value in np.random.default_rng(0).uniform(0, 1, size=500):
            hist.observe(value)
        assert len(hist.counts) == width  # streaming: no sample retention
        assert hist.count == 500

    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 1.0))

    def test_log_buckets_validation(self):
        assert log_buckets(1.0, 2.0, 3) == (1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            log_buckets(0.0, 2.0, 3)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0, 3)


class TestMergeAcrossShards:
    def test_counters_and_histograms_sum(self):
        shard0 = MetricsRegistry()
        shard1 = MetricsRegistry()
        shard0.counter("requests").inc(3)
        shard1.counter("requests").inc(4)
        shard0.counter("fallbacks", label="reason").inc(label="analysis")
        shard1.counter("fallbacks", label="reason").inc(2, label="analysis")
        shard1.counter("fallbacks", label="reason").inc(label="verification")
        for value in (0.001, 0.002, 0.004):
            shard0.histogram("latency").observe(value)
        for value in (0.100, 0.200):
            shard1.histogram("latency").observe(value)

        merged = merge_snapshots(shard0.snapshot(), shard1.snapshot())
        assert merged["requests"]["value"] == 7
        assert merged["fallbacks"]["values"] == {
            "analysis": 3, "verification": 1,
        }
        latency = merged["latency"]
        assert latency["count"] == 5
        assert latency["min"] == 0.001
        assert latency["max"] == 0.200
        assert sum(latency["counts"]) == 5

    def test_merged_quantile_matches_pooled_samples(self):
        rng = np.random.default_rng(3)
        pools = [rng.exponential(5e-3, size=1500) + 1e-6 for _ in range(3)]
        registries = []
        for pool in pools:
            registry = MetricsRegistry()
            hist = registry.histogram("latency")
            for sample in pool:
                hist.observe(sample)
            registries.append(registry)
        merged = merge_snapshots(*[r.snapshot() for r in registries])
        pooled = np.concatenate(pools)
        probe = Histogram("probe", buckets=LATENCY_BUCKETS)
        for q in (50, 95, 99):
            estimate = snapshot_quantile(merged["latency"], q)
            exact = float(np.percentile(pooled, q))
            assert abs(probe.bucket_index(estimate)
                       - probe.bucket_index(exact)) <= 1

    def test_gauges_sum_and_mismatched_bounds_kept_apart(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("live_bytes").set(100)
        b.gauge("live_bytes").set(28)
        a.histogram("sizes", buckets=BATCH_BUCKETS).observe(4)
        b.histogram("sizes", buckets=(1.0, 10.0)).observe(4)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["live_bytes"]["value"] == 128.0
        # Foreign bounds must not corrupt bucket math: first snapshot wins.
        assert merged["sizes"]["bounds"] == list(BATCH_BUCKETS)
        assert merged["sizes"]["count"] == 1

    def test_merge_does_not_mutate_inputs(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(5)
        registry.histogram("latency").observe(0.5)
        snap = registry.snapshot()
        merge_snapshots(snap, snap)
        assert snap["requests"]["value"] == 5
        assert snap["latency"]["count"] == 1


class TestRegistrySemantics:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("n") is registry.counter("n")
        assert registry.histogram("h") is registry.histogram("h")

    def test_type_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ValueError):
            registry.histogram("n")

    def test_disabled_registry_noops_every_instrument(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("n")
        hist = registry.histogram("h")
        gauge = registry.gauge("g")
        counter.inc(10)
        hist.observe(1.0)
        gauge.set(3.0)
        assert counter.value == 0
        assert hist.count == 0
        assert gauge.read() == 0.0

    def test_free_standing_instruments_always_record(self):
        # Loadgen's private histogram relies on registry=None being live.
        counter = Counter("n")
        counter.inc()
        assert counter.value == 1

    def test_gauge_callback_failure_reads_nan(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", fn=lambda: 1 / 0)
        assert gauge.read() != gauge.read()  # NaN

    def test_gauge_reregistration_rebinds_callback(self):
        registry = MetricsRegistry()
        registry.gauge("g", fn=lambda: 1.0)
        gauge = registry.gauge("g", fn=lambda: 2.0)
        assert gauge.read() == 2.0


class TestPrometheusRender:
    def test_render_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "Requests completed").inc(3)
        registry.counter("repro_fallbacks_total", label="reason").inc(
            2, label="analysis")
        registry.gauge("repro_queue_depth").set(1)
        hist = registry.histogram("repro_latency_seconds",
                                  buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.5):
            hist.observe(value)
        text = registry.render()
        assert "# HELP repro_requests_total Requests completed" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert 'repro_fallbacks_total{reason="analysis"} 2' in text
        assert "repro_queue_depth 1" in text
        # Cumulative le-buckets end at +Inf == _count.
        assert 'repro_latency_seconds_bucket{le="0.001"} 1' in text
        assert 'repro_latency_seconds_bucket{le="0.01"} 2' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_latency_seconds_count 3" in text
        assert text.endswith("\n")

    def test_render_snapshot_handles_nan_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("g", fn=lambda: float("nan"))
        assert "g NaN" in render_snapshot(registry.snapshot())


class TestLoadgenHistogramLine:
    def test_latency_summary_reports_hist_beside_exact(self):
        from repro.service.loadgen import _latency_summary

        rng = np.random.default_rng(11)
        latencies = list(rng.exponential(4.0, size=256) + 0.05)  # milliseconds
        summary = _latency_summary(latencies, wall=1.0, requests=256)
        for key in ("p50_ms", "p99_ms", "p50_ms_hist", "p99_ms_hist"):
            assert key in summary
        probe = Histogram("probe", buckets=LATENCY_BUCKETS)
        for exact, estimate in ((summary["p50_ms"], summary["p50_ms_hist"]),
                                (summary["p99_ms"], summary["p99_ms_hist"])):
            assert abs(probe.bucket_index(exact / 1e3)
                       - probe.bucket_index(estimate / 1e3)) <= 1
