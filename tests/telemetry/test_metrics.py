"""Unit tests for counters and fixed-bucket histograms."""

import pytest

from repro.telemetry import Counter, Histogram, MetricsRegistry, decimate_pairs


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_exact_stats(self):
        histogram = Histogram("lat")
        for value in [100.0, 200.0, 300.0]:
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(200.0)
        assert histogram.min == 100.0
        assert histogram.max == 300.0

    def test_quantiles_within_bucket_tolerance(self):
        histogram = Histogram("lat")
        for value in range(1, 1001):
            histogram.record(float(value))
        # Geometric buckets with growth 1.25: ~12% worst-case error.
        assert histogram.quantile(0.50) == pytest.approx(500.0, rel=0.15)
        assert histogram.quantile(0.95) == pytest.approx(950.0, rel=0.15)
        assert histogram.quantile(0.99) == pytest.approx(990.0, rel=0.15)

    def test_quantiles_clamped_to_observed_range(self):
        histogram = Histogram("lat")
        histogram.record(5000.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 5000.0

    def test_empty(self):
        histogram = Histogram("lat")
        assert histogram.mean == 0.0
        assert histogram.quantile(0.99) == 0.0
        assert histogram.snapshot()["count"] == 0

    def test_overflow_and_underflow_samples_kept(self):
        histogram = Histogram("lat", low=10.0, high=100.0)
        histogram.record(0.0)
        histogram.record(1e12)
        assert histogram.count == 2
        assert histogram.max == 1e12
        assert histogram.quantile(1.0) == 1e12

    def test_all_zero_samples_quantiles_are_zero(self):
        # Regression: a max of 0.0 must still clamp (0 is falsy).
        histogram = Histogram("lat")
        for _ in range(10):
            histogram.record(0.0)
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile(0.99) == 0.0

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            Histogram("lat").record(-1.0)

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Histogram("lat", low=0.0)
        with pytest.raises(ValueError):
            Histogram("lat", growth=1.0)

    def test_percentiles_and_snapshot(self):
        histogram = Histogram("lat")
        for value in range(1, 101):
            histogram.record(float(value))
        snapshot = histogram.snapshot()
        assert set(snapshot) == {"count", "mean", "min", "max", "p50", "p95", "p99"}
        assert snapshot["p50"] <= snapshot["p95"] <= snapshot["p99"] <= snapshot["max"]

    def test_summary_nests_percentiles_and_agrees_with_snapshot(self):
        from repro.telemetry.metrics import SUMMARY_PERCENTILES

        histogram = Histogram("lat")
        for value in range(1, 101):
            histogram.record(float(value))
        summary = histogram.summary()
        assert set(summary) == {"count", "sum", "mean", "min", "max", "percentiles"}
        assert summary["count"] == 100
        assert summary["sum"] == pytest.approx(5050.0)
        assert set(summary["percentiles"]) == {f"p{p}" for p in SUMMARY_PERCENTILES}
        snapshot = histogram.snapshot()
        for p in SUMMARY_PERCENTILES:
            assert summary["percentiles"][f"p{p}"] == snapshot[f"p{p}"]

    def test_summary_empty(self):
        summary = Histogram("lat").summary()
        assert summary["count"] == 0
        assert summary["sum"] == 0.0


class TestRegistry:
    def test_create_on_demand_and_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_serializable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("events").inc(3)
        registry.histogram("lat").record(42.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"events": 3}
        assert snapshot["histograms"]["lat"]["count"] == 1
        json.dumps(snapshot)  # must not raise


class TestHistogramMerge:
    def test_merge_equals_combined_observation_stream(self):
        left_values = [0.5, 2.0, 8.0, 40.0]
        right_values = [1.0, 1.5, 100.0]
        left, right, combined = Histogram("h"), Histogram("h"), Histogram("h")
        for value in left_values:
            left.record(value)
        for value in right_values:
            right.record(value)
        for value in left_values + right_values:
            combined.record(value)
        merged = left.merge(right)
        assert merged is left  # in place, chainable
        assert merged.summary() == combined.summary()

    def test_merge_preserves_exact_min_max_and_sum(self):
        left, right = Histogram("h"), Histogram("h")
        left.record(5.0)
        right.record(0.25)
        right.record(900.0)
        left.merge(right)
        assert left.count == 3
        assert left.min == 0.25
        assert left.max == 900.0
        assert left.sum == pytest.approx(905.25)

    def test_merge_with_empty_is_identity(self):
        left = Histogram("h")
        left.record(3.0)
        before = left.summary()
        left.merge(left.spawn_empty())
        assert left.summary() == before

    def test_merge_rejects_incompatible_shapes(self):
        left = Histogram("h", low=1e-3, high=1e4, growth=1.5)
        other = Histogram("h", low=1e-2, high=1e3, growth=2.0)
        assert not left.same_shape(other)
        with pytest.raises(ValueError, match="incompatible shape"):
            left.merge(other)

    def test_merge_does_not_mutate_the_other_histogram(self):
        left, right = Histogram("h"), Histogram("h")
        left.record(1.0)
        right.record(2.0)
        left.merge(right)
        assert right.count == 1
        assert right.summary()["count"] == 1


class TestWindowingHelpers:
    def test_delta_recovers_the_window_between_snapshots(self):
        cumulative = Histogram("h")
        cumulative.record(1.0)
        baseline = cumulative.delta(None)  # copy = snapshot
        cumulative.record(10.0)
        cumulative.record(20.0)
        window = cumulative.delta(baseline)
        assert window.count == 2
        assert window.sum == pytest.approx(30.0)

    def test_delta_none_is_a_deep_copy(self):
        cumulative = Histogram("h")
        cumulative.record(1.0)
        copy = cumulative.delta(None)
        cumulative.record(2.0)
        assert copy.count == 1

    def test_delta_rejects_a_later_baseline(self):
        early = Histogram("h")
        late = Histogram("h")
        late.record(1.0)
        with pytest.raises(ValueError, match="earlier"):
            early.delta(late)

    def test_fraction_over_matches_quantiles_at_bucket_resolution(self):
        # The serving tier's stage-latency shape, so thresholds sit well
        # inside the bucketed range.
        histogram = Histogram("h", low=1e-3, high=1e4, growth=1.5)
        for value in [0.1] * 90 + [50.0] * 10:
            histogram.record(value)
        assert histogram.fraction_over(1.0) == pytest.approx(0.1, abs=0.02)
        assert histogram.fraction_over(1e5) == 0.0
        assert Histogram("h").fraction_over(1.0) == 0.0


class TestDecimatePairs:
    @staticmethod
    def pair(earlier, later):
        return (earlier, later)

    @pytest.mark.parametrize(
        "items, expected",
        [
            ([], []),
            ([0], [0]),
            ([0, 1], [(0, 1)]),
            ([0, 1, 2, 3], [(0, 1), (2, 3)]),
            ([0, 1, 2, 3, 4], [(0, 1), (2, 3), 4]),  # odd tail carried
        ],
    )
    def test_merges_adjacent_pairs_in_order(self, items, expected):
        assert decimate_pairs(items, self.pair) == expected

    @pytest.mark.parametrize("length", [16, 17])
    def test_keeping_the_earlier_item_keeps_every_other_one(self, length):
        items = list(range(length))
        assert decimate_pairs(items, lambda earlier, _later: earlier) == items[::2]
