"""MetricsRegistry histograms, merge, and deterministic export."""

import math

import pytest

from repro.metrics import Metrics
from repro.obs.registry import Histogram, MetricsRegistry, percentile_of


class TestPercentileOf:
    def test_empty_is_nan(self):
        assert math.isnan(percentile_of([], 50.0))

    def test_single_value(self):
        assert percentile_of([7.0], 0.0) == 7.0
        assert percentile_of([7.0], 100.0) == 7.0

    def test_linear_interpolation(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile_of(data, 0.0) == 1.0
        assert percentile_of(data, 100.0) == 4.0
        assert percentile_of(data, 50.0) == pytest.approx(2.5)
        assert percentile_of(data, 25.0) == pytest.approx(1.75)

    def test_order_independent(self):
        assert percentile_of([4.0, 1.0, 3.0, 2.0], 50.0) == pytest.approx(2.5)


class TestInstruments:
    def test_histogram_stats(self):
        hist = Histogram()
        for v in (1.0, 3.0, 2.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.mean == pytest.approx(2.0)
        assert hist.percentile(50.0) == 2.0

    def test_histogram_summary_shape(self):
        reg = MetricsRegistry()
        for v in range(1, 101):
            reg.observe("lat", float(v))
        summary = reg.histogram("lat").summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0 and summary["max"] == 100.0
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)

    def test_percentile_of_missing_histogram_is_nan(self):
        assert math.isnan(MetricsRegistry().percentile("nope", 50.0))


class TestLifecycle:
    def test_merge_covers_all_families(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("k", 1)
        a.add_time("t", 0.5)
        a.observe("h", 1.0)
        b.inc("k", 2)
        b.add_time("t", 0.25)
        b.observe("h", 3.0)
        a.merge(b)
        assert a.counters["k"] == 3
        assert a.times["t"] == pytest.approx(0.75)
        assert a.histogram("h").values == [1.0, 3.0]


class TestExport:
    def test_to_dict_sorted_and_legacy_shape(self):
        reg = MetricsRegistry()
        reg.inc("zeta")
        reg.inc("alpha")
        reg.add_time("late", 1.0)
        reg.add_time("early", 2.0)
        out = reg.to_dict()
        # Only the legacy keys until histograms are actually used.
        assert set(out) == {"counters", "times"}
        assert list(out["counters"]) == ["alpha", "zeta"]
        assert list(out["times"]) == ["early", "late"]

    def test_to_dict_gains_keys_when_used(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        out = reg.to_dict()
        assert set(out) == {"counters", "times", "histograms"}
        assert out["histograms"]["h"]["count"] == 1


class TestMetricsAdapter:
    def test_adapter_and_registry_share_storage(self):
        metrics = Metrics()
        metrics.inc("k")
        metrics.counters["k"] += 1
        assert metrics.count("k") == 2
        assert Metrics is MetricsRegistry

    def test_adapter_histogram_access(self):
        metrics = Metrics()
        assert metrics.histograms.get("lat") is None  # no creation on read
        for v in (1.0, 2.0, 3.0):
            metrics.observe("lat", v)
        assert metrics.histograms["lat"].count == 3
        assert metrics.percentile("lat", 50.0) == 2.0
