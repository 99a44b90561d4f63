"""Property tests for the bursty heavy-tailed workload.

Two contracts, checked with Hypothesis (derandomized — the suite must
stay deterministic):

* **determinism** — :func:`~repro.experiments.workload.
  emission_schedule` is a pure function of the RNG state: the same
  seed yields the identical schedule, and a different seed (almost
  surely) a different one;
* **calibration** — the empirical mean of the truncated-Pareto
  duration sampler converges to the closed-form
  :func:`~repro.experiments.workload.expected_pareto_duration`, so
  the offered load of the overload sweep is what the config says it
  is.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.experiments.workload import (
    ALARM_DEADLINE,
    CONTROL_DEADLINE,
    emission_schedule,
    expected_pareto_duration,
    pareto_duration,
)
from repro.qos import BurstyConfig, TrafficClass

PROFILE = settings(max_examples=60, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
shapes = st.floats(min_value=1.2, max_value=4.0)
scales = st.floats(min_value=0.05, max_value=1.0)


def configs():
    return st.builds(
        BurstyConfig,
        load_multiplier=st.sampled_from([1.0, 5.0, 20.0]),
        peak_rate_pps=st.sampled_from([1.0, 4.0, 12.0]),
    )


class TestScheduleDeterminism:
    @PROFILE
    @given(seeds, configs())
    def test_same_seed_same_schedule(self, seed, config):
        first = emission_schedule(random.Random(seed), config, 0.0, 6.0)
        second = emission_schedule(random.Random(seed), config, 0.0, 6.0)
        assert first == second

    @PROFILE
    @given(seeds, configs())
    def test_different_seed_different_schedule(self, seed, config):
        a = emission_schedule(random.Random(seed), config, 0.0, 6.0)
        b = emission_schedule(random.Random(seed + 1), config, 0.0, 6.0)
        assert a != b

    @PROFILE
    @given(seeds, configs())
    def test_schedule_is_sane(self, seed, config):
        """Times ordered in [begin, end); deadlines match the class."""
        begin, end = 2.0, 8.0
        schedule = emission_schedule(random.Random(seed), config, begin, end)
        times = [t for t, _, _ in schedule]
        assert times == sorted(times)
        assert all(begin <= t < end for t in times)
        for _, cls, deadline in schedule:
            if cls is TrafficClass.ALARM:
                assert deadline == ALARM_DEADLINE
            elif cls is TrafficClass.CONTROL:
                assert deadline == CONTROL_DEADLINE
            else:
                assert deadline is None

    @PROFILE
    @given(seeds)
    def test_load_multiplier_scales_the_offered_load(self, seed):
        """10x the multiplier gives (about) 10x the emissions."""
        base = BurstyConfig(load_multiplier=1.0)
        heavy = BurstyConfig(load_multiplier=10.0)
        low = len(emission_schedule(random.Random(seed), base, 0.0, 30.0))
        high = len(emission_schedule(random.Random(seed), heavy, 0.0, 30.0))
        # The on/off draw sequence differs once emission counts do, so
        # allow generous slack around the nominal 10x.
        assert high >= 4 * max(low, 1)


class TestParetoCalibration:
    @PROFILE
    @given(seeds, shapes, scales)
    def test_empirical_mean_matches_closed_form(self, seed, shape, scale):
        rng = random.Random(seed)
        cap = 5.0 * scale
        n = 4000
        mean = (
            sum(pareto_duration(rng, shape, scale, cap) for _ in range(n)) / n
        )
        expected = expected_pareto_duration(shape, scale, cap)
        # Truncation bounds the variance by (cap - scale)^2 / 4, so a
        # 6-sigma band keeps the derandomized examples stable.
        sigma = (cap - scale) / 2.0
        assert abs(mean - expected) <= 6.0 * sigma / math.sqrt(n) + 1e-9

    @PROFILE
    @given(seeds, shapes, scales)
    def test_durations_respect_scale_and_cap(self, seed, shape, scale):
        rng = random.Random(seed)
        cap = 3.0 * scale
        for _ in range(200):
            duration = pareto_duration(rng, shape, scale, cap)
            assert scale <= duration <= cap

    def test_expected_duration_degenerates_to_cap(self):
        """With cap == scale the distribution is a point mass."""
        assert expected_pareto_duration(1.5, 0.2, 0.2) == 0.2
