"""Tests for streaming statistics helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import (
    Histogram,
    RunningStat,
    geometric_mean,
    safe_ratio,
)


class TestRunningStat:
    def test_empty(self):
        stat = RunningStat()
        assert stat.count == 0
        assert stat.mean == 0.0
        assert stat.variance == 0.0
        assert stat.min is None and stat.max is None

    def test_single_value(self):
        stat = RunningStat()
        stat.add(5.0)
        assert stat.mean == 5.0
        assert stat.variance == 0.0
        assert stat.min == 5.0 and stat.max == 5.0

    def test_known_sequence(self):
        stat = RunningStat()
        stat.extend([1.0, 2.0, 3.0, 4.0])
        assert stat.mean == pytest.approx(2.5)
        assert stat.variance == pytest.approx(1.25)
        assert stat.stddev == pytest.approx(math.sqrt(1.25))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_batch_formulas(self, values):
        stat = RunningStat()
        stat.extend(values)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        assert stat.mean == pytest.approx(mean, rel=1e-6, abs=1e-6)
        assert stat.variance == pytest.approx(variance, rel=1e-6, abs=1e-3)
        assert stat.min == min(values)
        assert stat.max == max(values)

    def test_merge_empty_into_empty(self):
        stat = RunningStat()
        stat.merge(RunningStat())
        assert stat.count == 0 and stat.min is None and stat.max is None

    def test_merge_into_empty_copies(self):
        other = RunningStat()
        other.extend([1.0, 3.0])
        stat = RunningStat()
        stat.merge(other)
        assert stat.count == 2
        assert stat.mean == pytest.approx(2.0)
        assert stat.min == 1.0 and stat.max == 3.0

    def test_merge_empty_is_noop(self):
        stat = RunningStat()
        stat.extend([1.0, 3.0])
        stat.merge(RunningStat())
        assert stat.count == 2 and stat.mean == pytest.approx(2.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=100),
        st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_sequential(self, left, right):
        merged = RunningStat()
        merged.extend(left)
        other = RunningStat()
        other.extend(right)
        merged.merge(other)
        sequential = RunningStat()
        sequential.extend(left + right)
        assert merged.count == sequential.count
        assert merged.mean == pytest.approx(sequential.mean, rel=1e-6, abs=1e-6)
        assert merged.variance == pytest.approx(
            sequential.variance, rel=1e-6, abs=1e-3
        )
        assert merged.min == sequential.min
        assert merged.max == sequential.max


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram(bounds=[1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.add(value)
        assert hist.counts == [1, 1, 1, 1]
        assert hist.total == 4

    def test_bucket_edges(self):
        hist = Histogram(bounds=[1.0, 10.0, 100.0])
        # A value equal to a bound lands in that bound's bucket.
        for value in (1.0, 10.0, 100.0):
            hist.add(value)
        assert hist.counts == [1, 1, 1, 0]
        # Just above a bound is the next bucket; above the last bound is
        # the overflow bucket.
        hist.add(10.000001)
        hist.add(100.000001)
        assert hist.counts == [1, 1, 2, 1]
        default = Histogram()
        for bound in default.bounds:
            default.add(bound)
        default.add(default.bounds[-1] * 2)
        assert default.counts == [1] * (len(default.bounds) + 1)

    def test_quantile_monotone(self):
        hist = Histogram()
        for value in range(1, 1001):
            hist.add(float(value))
        q50 = hist.quantile(0.5)
        q90 = hist.quantile(0.9)
        assert q50 <= q90
        assert hist.quantile(0.0) <= q50

    def test_quantile_empty(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_stat_tracks_values(self):
        hist = Histogram()
        hist.add(3.0)
        hist.add(5.0)
        assert hist.stat.mean == pytest.approx(4.0)

    def test_quantile_single_sample(self):
        hist = Histogram(bounds=[1.0, 10.0, 100.0])
        hist.add(5.0)
        # One sample in the (1, 10] bucket: every quantile reports its
        # upper bound.
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(0.99) == 10.0

    def test_quantile_overflow_bucket_reports_observed_max(self):
        hist = Histogram(bounds=[1.0])
        hist.add(250.0)
        assert hist.quantile(0.99) == 250.0

    def test_quantile_known_distribution(self):
        hist = Histogram(bounds=[10.0, 20.0, 30.0])
        for value in [5.0] * 90 + [15.0] * 9 + [25.0]:
            hist.add(value)
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(0.95) == 20.0
        assert hist.quantile(1.0) == 30.0

    def test_merge_adds_buckets_and_stats(self):
        a = Histogram(bounds=[1.0, 10.0])
        b = Histogram(bounds=[1.0, 10.0])
        a.add(0.5)
        a.add(5.0)
        b.add(5.0)
        b.add(50.0)
        a.merge(b)
        assert a.counts == [1, 2, 1]
        assert a.total == 4
        assert a.stat.count == 4
        assert a.stat.max == 50.0

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=[1.0]).merge(Histogram(bounds=[2.0]))

    def test_merge_preserves_quantiles(self):
        split_a, split_b, whole = Histogram(), Histogram(), Histogram()
        for value in range(1, 501):
            split_a.add(float(value))
            whole.add(float(value))
        for value in range(501, 1001):
            split_b.add(float(value))
            whole.add(float(value))
        split_a.merge(split_b)
        for q in (0.5, 0.9, 0.99):
            assert split_a.quantile(q) == whole.quantile(q)


class TestRatios:
    def test_safe_ratio(self):
        assert safe_ratio(1, 2) == 0.5
        assert safe_ratio(1, 0) == 0.0
        assert safe_ratio(0, 0) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([2.0, 0.0, 8.0]) == pytest.approx(4.0)  # skips zeros

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_geometric_mean_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) * 0.999 <= gm <= max(values) * 1.001
