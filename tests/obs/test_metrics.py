"""Unit tests for repro.obs.metrics (latency histograms, the registry,
and the strict exposition parser) plus the typed rendering contract of
repro.service.metrics.render_prometheus."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    parse_exposition,
)
from repro.service.metrics import COUNTER_LEAVES, render_prometheus


class TestInstruments:
    def test_histogram_snapshot_is_cumulative(self):
        histogram = Histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):  # 50 > top bucket
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["type"] == "histogram"
        assert snapshot["buckets"] == [(0.1, 1), (1.0, 3), (10.0, 4)]
        assert snapshot["count"] == 5
        assert snapshot["sum"] == pytest.approx(56.05)

    def test_histogram_ignores_non_finite_observations(self):
        histogram = Histogram("repro_test_seconds")
        histogram.observe(math.nan)
        histogram.observe(math.inf)
        assert histogram.count == 0

    def test_histogram_bucket_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram("repro_bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            Histogram("repro_bad", buckets=(1.0, math.inf))
        with pytest.raises(ValueError, match="bucket"):
            Histogram("repro_bad", buckets=())

    def test_default_latency_buckets_are_log_spaced_and_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) \
            == sorted(set(DEFAULT_LATENCY_BUCKETS))
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.0005
        assert DEFAULT_LATENCY_BUCKETS[-1] == 50.0

    def test_metric_names_validated(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Histogram("1starts-with-digit")


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.histogram("repro_a") is registry.histogram("repro_a")
        registry.histogram("repro_a").observe(0.5)
        assert registry.snapshot()["repro_a"]["count"] == 1

    def test_snapshot_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.histogram("repro_z")
        registry.histogram("repro_a")
        assert list(registry.snapshot()) == ["repro_a", "repro_z"]


class TestRenderPrometheus:
    def test_monotone_leaves_render_as_counters_not_gauges(self):
        # regression: pre-obs every leaf rendered as gauge, which breaks
        # rate()/increase() over restarts for lifetime totals
        stats = {"queue": {"submitted": 4, "pending": 1},
                 "session": {"synthesis_runs": 9, "max_depth": 3}}
        text = render_prometheus(stats)
        assert "# TYPE repro_queue_submitted counter" in text
        assert "# TYPE repro_queue_pending gauge" in text
        assert "# TYPE repro_session_synthesis_runs counter" in text
        assert "# TYPE repro_session_max_depth gauge" in text
        parse_exposition(text)  # and the result is valid 0.0.4

    def test_every_counter_leaf_actually_types_as_counter(self):
        stats = {key: 1 for key in COUNTER_LEAVES}
        families = parse_exposition(render_prometheus(stats))
        assert all(entry["type"] == "counter"
                   for entry in families.values())

    def test_registry_histograms_render_full_family(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_wait_seconds",
                                       buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(7.0)
        registry.histogram("repro_other_seconds").observe(0.01)
        text = render_prometheus({"queue": {"pending": 0}},
                                 registry=registry)
        families = parse_exposition(text)
        assert families["repro_wait_seconds"]["type"] == "histogram"
        samples = {name: value for name, labels, value
                   in families["repro_wait_seconds"]["samples"]
                   if name != "repro_wait_seconds_bucket"}
        assert samples["repro_wait_seconds_count"] == 3
        assert samples["repro_wait_seconds_sum"] == pytest.approx(7.55)
        buckets = [(labels["le"], value) for name, labels, value
                   in families["repro_wait_seconds"]["samples"]
                   if name == "repro_wait_seconds_bucket"]
        assert buckets == [("0.1", 1.0), ("1", 2.0), ("+Inf", 3.0)]
        # every registry family renders, each as a histogram, after the
        # walked leaves
        assert families["repro_other_seconds"]["type"] == "histogram"
        assert list(families) == ["repro_queue_pending",
                                  "repro_other_seconds",
                                  "repro_wait_seconds"]

    def test_deterministic_and_newline_terminated(self):
        stats = {"b": 2, "a": {"c": 1}}
        first = render_prometheus(stats)
        assert first == render_prometheus(stats)
        assert first.endswith("\n")


class TestParseExposition:
    def test_rejects_sample_without_type_line(self):
        with pytest.raises(ValueError, match="no preceding # TYPE"):
            parse_exposition("repro_x 1\n")

    def test_rejects_duplicate_series_and_type(self):
        with pytest.raises(ValueError, match="duplicate series"):
            parse_exposition("# TYPE repro_x gauge\n"
                             "repro_x 1\nrepro_x 2\n")
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_exposition("# TYPE repro_x gauge\n"
                             "# TYPE repro_x counter\n")

    def test_rejects_missing_trailing_newline_and_bad_values(self):
        with pytest.raises(ValueError, match="newline"):
            parse_exposition("# TYPE repro_x gauge\nrepro_x 1")
        with pytest.raises(ValueError, match="non-float"):
            parse_exposition("# TYPE repro_x gauge\nrepro_x one\n")

    def test_rejects_non_cumulative_histogram(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="0.1"} 5\n'
                'repro_h_bucket{le="+Inf"} 3\n'
                "repro_h_sum 1.0\n"
                "repro_h_count 3\n")
        with pytest.raises(ValueError, match="not cumulative"):
            parse_exposition(text)

    def test_rejects_histogram_missing_inf_or_count_mismatch(self):
        with pytest.raises(ValueError, match=r"missing \+Inf"):
            parse_exposition("# TYPE repro_h histogram\n"
                             'repro_h_bucket{le="1"} 1\n'
                             "repro_h_sum 1.0\nrepro_h_count 1\n")
        with pytest.raises(ValueError, match="!= _count"):
            parse_exposition("# TYPE repro_h histogram\n"
                             'repro_h_bucket{le="+Inf"} 2\n'
                             "repro_h_sum 1.0\nrepro_h_count 3\n")

    def test_accepts_well_formed_families(self):
        text = ("# TYPE repro_up gauge\nrepro_up 1\n"
                "# TYPE repro_total counter\nrepro_total 7\n"
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="0.5"} 2\n'
                'repro_h_bucket{le="+Inf"} 4\n'
                "repro_h_sum 3.25\nrepro_h_count 4\n")
        families = parse_exposition(text)
        assert families["repro_up"]["type"] == "gauge"
        assert families["repro_total"]["type"] == "counter"
        assert families["repro_h"]["type"] == "histogram"
