"""Tests for 2-D geometry primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.geometry import Point, centroid

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_symmetric(self):
        a, b = Point(1, 2), Point(-4, 7)
        assert a.distance_to(b) == b.distance_to(a)

    def test_toward_partial(self):
        p = Point(0, 0).toward(Point(10, 0), 4)
        assert p == Point(4, 0)

    def test_toward_overshoot_clamps_to_target(self):
        assert Point(0, 0).toward(Point(1, 0), 100) == Point(1, 0)

    def test_toward_self_is_identity(self):
        p = Point(5, 5)
        assert p.toward(p, 3) == p

    def test_immutability(self):
        p = Point(0, 0)
        with pytest.raises(AttributeError):
            p.x = 1

    @given(finite, finite, finite, finite)
    def test_triangle_inequality(self, x1, y1, x2, y2):
        a, b, origin = Point(x1, y1), Point(x2, y2), Point(0, 0)
        assert a.distance_to(b) <= (
            a.distance_to(origin) + origin.distance_to(b) + 1e-6
        )

    @given(finite, finite, st.floats(min_value=0, max_value=1e3))
    def test_toward_moves_at_most_distance(self, x, y, d):
        start = Point(0, 0)
        target = Point(x, y)
        moved = start.toward(target, d)
        assert start.distance_to(moved) <= d + 1e-6 or moved == target


class TestHelpers:
    def test_centroid(self):
        c = centroid([Point(0, 0), Point(2, 0), Point(1, 3)])
        assert c == Point(1, 1)

    def test_centroid_empty(self):
        with pytest.raises(ValueError):
            centroid([])
