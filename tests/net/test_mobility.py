"""Tests for mobility models."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.util.geometry import Point, in_square


class TestStatic:
    def test_never_moves(self):
        m = StaticMobility(Point(3, 4))
        assert m.position(0.0) == Point(3, 4)
        assert m.position(1e6) == Point(3, 4)


class TestRandomWaypoint:
    def test_starts_at_start(self):
        m = RandomWaypoint(Point(10, 10), 100.0, 2.0, random.Random(1))
        assert m.position(0.0) == Point(10, 10)

    def test_zero_speed_is_static(self):
        m = RandomWaypoint(Point(5, 5), 100.0, 0.0, random.Random(1))
        assert m.position(1000.0) == Point(5, 5)

    def test_stays_in_area(self):
        m = RandomWaypoint(Point(50, 50), 100.0, 5.0, random.Random(7))
        for t in range(0, 1000, 7):
            assert in_square(m.position(float(t)), 100.0)

    def test_speed_bounded(self):
        m = RandomWaypoint(Point(50, 50), 100.0, 3.0, random.Random(3))
        prev = m.position(0.0)
        for t in range(1, 200):
            cur = m.position(float(t))
            assert prev.distance_to(cur) <= 3.0 + 1e-6
            prev = cur

    def test_monotone_queries(self):
        """Positions are consistent when queried at increasing times."""
        a = RandomWaypoint(Point(0, 0), 100.0, 2.0, random.Random(9))
        b = RandomWaypoint(Point(0, 0), 100.0, 2.0, random.Random(9))
        coarse = [a.position(float(t)) for t in (10, 20, 30)]
        fine = []
        for t in range(0, 31):
            p = b.position(float(t))
            if t in (10, 20, 30):
                fine.append(p)
        assert coarse == fine

    def test_backward_query_stays_in_area(self):
        """A look-back past the current leg's departure answers its origin.

        Regression: the interpolation used to run with a negative
        travelled distance and extrapolate behind the origin, hundreds
        of metres outside the square.
        """
        m = RandomWaypoint(Point(1, 1), 100.0, 5.0, random.Random(3))
        m.position(500.0)
        for t in (499.0, 470.0, 400.0, 100.0, 0.0):
            assert in_square(m.position(t), 100.0)
        assert m.position(0.0) == m.position(100.0)
        # Forward queries are unaffected by the look-back.
        fresh = RandomWaypoint(Point(1, 1), 100.0, 5.0, random.Random(3))
        assert m.position(500.0) == fresh.position(500.0)

    def test_deterministic_per_seed(self):
        a = RandomWaypoint(Point(0, 0), 100.0, 2.0, random.Random(5))
        b = RandomWaypoint(Point(0, 0), 100.0, 2.0, random.Random(5))
        assert a.position(17.3) == b.position(17.3)

    def test_eventually_moves(self):
        m = RandomWaypoint(Point(50, 50), 100.0, 2.0, random.Random(2))
        assert m.position(30.0) != Point(50, 50)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RandomWaypoint(Point(0, 0), -1.0, 2.0, random.Random(1))
        with pytest.raises(ValueError):
            RandomWaypoint(Point(0, 0), 10.0, -2.0, random.Random(1))
        with pytest.raises(ValueError):
            RandomWaypoint(
                Point(0, 0), 10.0, 1.0, random.Random(1), min_speed=2.0
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 10.0))
    def test_property_in_bounds(self, seed, speed):
        m = RandomWaypoint(Point(25, 25), 50.0, speed, random.Random(seed))
        for t in (0.0, 13.7, 100.0, 777.7):
            assert in_square(m.position(t), 50.0)
