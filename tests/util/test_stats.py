"""Tests for statistics helpers."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
    RunningStat,
    confidence_interval_95,
    mean,
    stdev,
    t_critical_95,
)

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=50,
)


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev_matches_statistics_module(self):
        data = [1.0, 4.0, 9.0, 16.0]
        assert stdev(data) == pytest.approx(statistics.stdev(data))

    def test_stdev_single_sample_is_zero(self):
        assert stdev([5.0]) == 0.0

    def test_t_critical_small_df(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(10) == pytest.approx(2.228)

    def test_t_critical_large_df_is_normal(self):
        assert t_critical_95(100) == pytest.approx(1.96)

    def test_t_critical_invalid(self):
        with pytest.raises(ValueError):
            t_critical_95(0)


class TestConfidenceInterval:
    def test_single_sample_zero_width(self):
        assert confidence_interval_95([3.0]) == (3.0, 0.0)

    def test_identical_samples_zero_width(self):
        mu, half = confidence_interval_95([2.0, 2.0, 2.0])
        assert mu == 2.0
        assert half == 0.0

    def test_known_value(self):
        # n=4, stdev=1 -> half = 3.182 / 2
        data = [-1.0, 1.0, -1.0, 1.0]
        mu, half = confidence_interval_95(data)
        assert mu == 0.0
        s = statistics.stdev(data)
        assert half == pytest.approx(3.182 * s / 2.0)

    @given(samples)
    def test_interval_contains_mean(self, data):
        mu, half = confidence_interval_95(data)
        assert half >= 0
        assert mu == pytest.approx(sum(data) / len(data), abs=1e-6)


class TestRunningStat:
    def test_matches_batch_statistics(self):
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stat = RunningStat()
        for v in data:
            stat.add(v)
        assert stat.count == len(data)
        assert stat.mean == pytest.approx(statistics.mean(data))

    def test_empty(self):
        stat = RunningStat()
        assert stat.count == 0
        assert stat.mean == 0.0

    @given(samples)
    def test_online_equals_offline(self, data):
        stat = RunningStat()
        for v in data:
            stat.add(v)
        assert stat.mean == pytest.approx(statistics.mean(data), rel=1e-6, abs=1e-6)
