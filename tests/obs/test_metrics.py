"""Metrics registry: families, labels, expositions."""

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricError,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_inc_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.counter("c_total").inc(-1)

    def test_labeled_children_are_independent(self, registry):
        counter = registry.counter("c_total")
        counter.labels(kind="a").inc()
        counter.labels(kind="b").inc(3)
        assert counter.labels(kind="a").value == 1
        assert counter.labels(kind="b").value == 3


class TestGauge:
    def test_set_inc_dec_max(self, registry):
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4
        gauge.set_max(10)
        gauge.set_max(3)
        assert gauge.value == 10


class TestHistogram:
    def test_observe_updates_summary(self, registry):
        histogram = registry.histogram("h_seconds", buckets=(1, 2, 4))
        for value in (0.5, 1.5, 3.0, 8.0):
            histogram.observe(value)
        child = histogram.labels()
        assert child.count == 4
        assert child.sum == 13.0
        assert child.max == 8.0
        assert child.mean == 3.25
        assert child.bucket_counts() == [1, 1, 1, 1]

    def test_default_buckets_are_log_scale(self):
        assert len(DEFAULT_LATENCY_BUCKETS) == 16
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.histogram("bad", buckets=(2, 1))


class TestRegistry:
    def test_idempotent_registration(self, registry):
        first = registry.counter("x_total", "help")
        again = registry.counter("x_total", "other help")
        assert first is again

    def test_kind_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_histogram_bucket_conflict_raises(self, registry):
        registry.histogram("h", buckets=(1, 2))
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(1, 2, 3))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.counter("1starts-with-digit")
        with pytest.raises(MetricError):
            registry.counter("ok").labels(**{"bad-label": "v"})

    def test_get_and_families_sorted(self, registry):
        registry.counter("b")
        registry.gauge("a")
        assert [f.name for f in registry.families()] == ["a", "b"]
        assert registry.get("a").kind == "gauge"
        assert registry.get("missing") is None
        registry.clear()
        assert registry.families() == []


class TestExpositions:
    def test_snapshot_is_json_able(self, registry):
        registry.counter("c_total", "help").labels(k="v").inc(2)
        registry.histogram("h", buckets=(1,)).observe(0.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["c_total"]["type"] == "counter"
        assert snapshot["c_total"]["series"][0]["value"] == 2
        assert snapshot["h"]["series"][0]["count"] == 1

    def test_prometheus_no_duplicate_help_type(self, registry):
        counter = registry.counter("c_total", "Counts things.")
        counter.labels(kind="a").inc()
        counter.labels(kind="b").inc()
        registry.histogram("h_seconds", "Latency.").observe(0.01)
        text = registry.prometheus()
        lines = text.splitlines()
        help_lines = [li for li in lines if li.startswith("# HELP")]
        type_lines = [li for li in lines if li.startswith("# TYPE")]
        assert len(help_lines) == len(set(help_lines)) == 2
        assert len(type_lines) == len(set(type_lines)) == 2
        assert '# TYPE h_seconds histogram' in type_lines

    def test_prometheus_histogram_series_cumulative(self, registry):
        registry.histogram("h", "x", buckets=(1, 2)).observe(1.5)
        text = registry.prometheus()
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="2"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1.5" in text
        assert "h_count 1" in text

    def test_prometheus_escapes_label_values(self, registry):
        registry.counter("c").labels(k='va"l\\ue').inc()
        text = registry.prometheus()
        assert r'c{k="va\"l\\ue"} 1' in text
