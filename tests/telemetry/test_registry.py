"""Registry primitives: counters, gauges, histograms, families.

The histogram quantile estimator is pinned against a sorted-list
oracle with hypothesis: the estimate must land in the same bucket as
the true rank-based quantile, so its error is bounded by that bucket's
(clamped) width.
"""

import bisect
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TelemetryError
from repro.telemetry import DEFAULT_BUCKETS, Histogram, Registry
from repro.telemetry.views import StatsView, counter_field, gauge_field


class TestCounter:
    def test_inc_accumulates(self):
        reg = Registry()
        ctr = reg.counter("hops", "hop count")
        ctr.inc()
        ctr.inc(3)
        assert ctr.value_at() == 4

    def test_negative_increment_rejected(self):
        ctr = Registry().counter("hops")
        with pytest.raises(TelemetryError):
            ctr.inc(-1)


class TestFamilies:
    def test_get_or_create_returns_same_family(self):
        reg = Registry()
        a = reg.counter("drops", "d", labels=("reason",))
        b = reg.counter("drops", "ignored", labels=("reason",))
        assert a is b
        a.child("hop-limit").inc()
        assert b.value_at("hop-limit") == 1

    def test_kind_conflict_raises(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(TelemetryError):
            reg.gauge("x")

    def test_label_conflict_raises(self):
        reg = Registry()
        reg.counter("x", labels=("a",))
        with pytest.raises(TelemetryError):
            reg.counter("x", labels=("b",))

    def test_wrong_label_arity_raises(self):
        family = Registry().counter("x", labels=("a", "b"))
        with pytest.raises(TelemetryError):
            family.child("only-one")

    def test_value_at_does_not_create_children(self):
        family = Registry().counter("x", labels=("a",))
        assert family.value_at("ghost", default=None) is None
        assert family.items() == []

    def test_collect_is_sorted_and_deterministic(self):
        reg = Registry()
        reg.counter("b").inc()
        reg.counter("a", labels=("k",)).child("z").inc()
        reg.counter("a", labels=("k",)).child("m").inc()
        names = [(s.name, tuple(s.labels.values())) for s in reg.collect()]
        assert names == [("a", ("m",)), ("a", ("z",)), ("b", ())]


class TestStatsViews:
    def test_counter_field_write_through(self):
        class S(StatsView):
            _group = "demo"
            drops = counter_field("drops")

        reg = Registry()
        s = S(registry=reg)
        s.drops += 2
        s.drops += 1
        assert s.drops == 3
        assert reg.get("demo_drops").value_at() == 3

    def test_gauge_field_default(self):
        class S(StatsView):
            _group = "demo"
            leader = gauge_field("leader", default=-1)

        s = S()
        assert s.leader == -1
        s.leader = 7
        assert s.leader == 7

    def test_private_registry_when_none_given(self):
        class S(StatsView):
            _group = "demo"
            n = counter_field("n")

        a, b = S(), S()
        a.n += 5
        assert b.n == 0


class TestHistogramBasics:
    def test_bounds_must_ascend(self):
        with pytest.raises(TelemetryError):
            Histogram([1.0, 0.5])

    def test_bounds_must_be_distinct(self):
        with pytest.raises(TelemetryError):
            Histogram([1.0, 1.0])

    def test_overflow_bucket(self):
        h = Histogram([1.0, 2.0])
        h.observe(99.0)
        assert h.bucket_counts() == [0, 0, 1]

    def test_empty_quantile_is_zero(self):
        assert Histogram([1.0]).quantile(0.5) == 0.0

    def test_quantile_range_checked(self):
        with pytest.raises(TelemetryError):
            Histogram([1.0]).quantile(1.5)


def true_quantile(values, q):
    """Rank-based oracle: the value at rank ceil(q*n) (1-based)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestHistogramQuantileOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=0.0,
                max_value=12.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=60,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_estimate_within_true_quantiles_bucket(self, values, q):
        h = Histogram(DEFAULT_BUCKETS)
        for v in values:
            h.observe(v)
        estimate = h.quantile(q)
        truth = true_quantile(values, q)
        lo, hi = min(values), max(values)
        # Clamped to the observed range...
        assert lo <= estimate <= hi
        # ...and inside the (clamped) bucket holding the true quantile.
        index = bisect.bisect_left(DEFAULT_BUCKETS, truth)
        bucket_lo = DEFAULT_BUCKETS[index - 1] if index > 0 else lo
        bucket_hi = (
            DEFAULT_BUCKETS[index] if index < len(DEFAULT_BUCKETS) else hi
        )
        assert max(bucket_lo, lo) - 1e-9 <= estimate <= min(bucket_hi, hi) + 1e-9

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_extreme_quantiles_are_exact(self, values):
        h = Histogram(DEFAULT_BUCKETS)
        for v in values:
            h.observe(v)
        assert h.quantile(0.0) == min(values)
        assert h.quantile(1.0) == max(values)
        assert h.count == len(values)
        assert h.sum == pytest.approx(sum(values))
