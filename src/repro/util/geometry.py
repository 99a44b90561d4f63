"""2-D geometry primitives used by the wireless substrate.

Positions live in a plane measured in metres.  :class:`Point` is an
immutable value type; mobility models produce new points rather than
mutating existing ones, which keeps position snapshots safe to share.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Tuple

#: Distances below this are treated as "already there": guards the
#: degenerate self-to-self step without exact float equality.
EPSILON = 1e-12


class Point(NamedTuple):
    """An immutable 2-D point (metres)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        """The point halfway between ``self`` and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def translated(self, dx: float, dy: float) -> "Point":
        """A copy shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def toward(self, target: "Point", distance: float) -> "Point":
        """The point ``distance`` metres from ``self`` along the ray to ``target``.

        If ``target`` is closer than ``distance`` (or equals ``self``),
        returns ``target`` — callers use this to step mobility without
        overshooting a waypoint.
        """
        remaining = self.distance_to(target)
        if remaining <= max(distance, EPSILON):
            return target
        frac = distance / remaining
        return Point(
            self.x + (target.x - self.x) * frac,
            self.y + (target.y - self.y) * frac,
        )

    def as_tuple(self) -> Tuple[float, float]:
        """``(x, y)`` tuple form (handy for numpy and plotting)."""
        return (self.x, self.y)


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return a.distance_to(b)


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``."""
    if lo > hi:
        raise ValueError(f"empty interval: [{lo}, {hi}]")
    return max(lo, min(hi, value))


def centroid(points: Iterable[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points."""
    pts = list(points)
    if not pts:
        raise ValueError("centroid of no points")
    return Point(
        sum(p.x for p in pts) / len(pts),
        sum(p.y for p in pts) / len(pts),
    )


def in_square(point: Point, side: float) -> bool:
    """Whether ``point`` lies inside the axis-aligned square [0, side]^2."""
    return 0.0 <= point.x <= side and 0.0 <= point.y <= side
