"""Node mobility models.

Positions are computed analytically from a waypoint leg rather than by
periodic position-update events: a leg stores (origin, target, speed,
departure time) and ``position(now)`` interpolates.  Legs roll over
lazily when queried past their arrival time, so idle nodes cost
nothing.

A trajectory is a function of the model's own draws alone: a
deployment hands each walker its node's draws of the keyed mobility
stream (:class:`repro.util.rng.KeyedStream`), so where a node is does
not depend on which other nodes were read, when, or in what order.
Models also declare a speed bound (``max_speed``, m/s): two reads
``dt`` apart are at most ``max_speed * dt`` apart, which lets callers
rule out a range test without reading the position.

A position is a value of ``(node, now)``.  Range checks ask for the
same handful of instants thousands of times (construction runs at one
``now``, a maintenance round at another), so :class:`RandomWaypoint`
remembers the last answer it gave and hands the same :class:`Point`
back while ``now`` does not change.  The memo is exact: one entry,
keyed on ``now`` itself, never on a time bucket.
"""

from __future__ import annotations

import math
import random
from typing import Protocol, Union

from repro.util.geometry import EPSILON, Point
from repro.util.rng import KeyedDraws


class MobilityModel(Protocol):
    """Anything that can report a position at a given time."""

    def position(self, now: float) -> Point:
        """Node position at simulated time ``now``.

        Must be monotone-safe: callers query at non-decreasing times,
        repeat an instant freely, and may look back; every answer lies
        inside the deployment area and repeating ``now`` repeats the
        answer.

        A model may also carry ``max_speed`` (m/s), a bound on how fast
        its answers move; one without it is treated as unbounded.
        """
        ...


class StaticMobility:
    """A node that never moves (actuators, anchored sensors)."""

    #: Spatial indexes skip re-bucketing nodes that declare themselves
    #: static (see :mod:`repro.net.spatial`); models without the
    #: attribute are treated as mobile.
    is_static = True
    max_speed = 0.0

    def __init__(self, position: Point) -> None:
        self._position = position

    def position(self, now: float) -> Point:
        return self._position


class RandomWaypoint:
    """The random-waypoint model used in the paper's evaluation.

    Each node repeatedly selects a uniform destination point in the
    square deployment area and moves toward it at a speed drawn
    uniformly from ``[min_speed, max_speed]`` m/s; on arrival it
    immediately picks the next waypoint (no pause time, matching the
    paper's setup).  ``max_speed == 0`` degenerates to a static node.

    Asking again for the instant just answered returns the identical
    ``Point`` object without touching the leg or the RNG.  A query
    earlier than the current leg's departure (legs already rolled past
    it are not kept) answers the leg's origin rather than extrapolating
    behind it.
    """

    def __init__(
        self,
        start: Point,
        area_side: float,
        max_speed: float,
        rng: Union[random.Random, KeyedDraws],
        min_speed: float = 0.0,
    ) -> None:
        """``rng`` gives the leg draws through ``uniform(a, b)``, three
        a leg (target x, target y, speed)."""
        if area_side <= 0:
            raise ValueError("area_side must be positive")
        if max_speed < 0 or min_speed < 0 or min_speed > max_speed:
            raise ValueError("invalid speed range")
        self._area_side = area_side
        self._min_speed = min_speed
        #: The speed bound: no leg is walked faster.
        self.max_speed = max_speed
        self._rng = rng
        self._origin = start
        self._target = start
        self._speed = 0.0
        self._depart_time = 0.0
        self._arrive_time = 0.0
        # Per-leg constants: the displacement and length of the leg.
        self._dx = 0.0
        self._dy = 0.0
        self._length = 0.0
        # The last (now, position) answered; NaN never equals a query.
        self._memo_now = math.nan
        self._memo_point = start
        if max_speed > 0:
            self._next_leg(start, 0.0)

    @property
    def is_static(self) -> bool:
        """``max_speed == 0`` degenerates to a static node."""
        return self.max_speed == 0

    def _next_leg(self, origin: Point, now: float) -> None:
        self._origin = origin
        self._target = Point(
            self._rng.uniform(0.0, self._area_side),
            self._rng.uniform(0.0, self._area_side),
        )
        # Redraw near-zero speeds: a [0, max] draw of exactly 0 would
        # strand the node forever on this leg.
        speed = self._rng.uniform(self._min_speed, self.max_speed)
        self._speed = max(speed, 1e-3 * self.max_speed)
        self._depart_time = now
        if self._speed <= 0.0:
            # max_speed so small the redraw floor underflows to 0.0
            # (subnormal): the node cannot make progress — pin it on
            # this leg forever instead of dividing by zero.  (A zero
            # speed travels nowhere, so position() answers the origin
            # without reading the leg constants.)
            self._target = origin
            self._arrive_time = math.inf
            return
        self._dx = self._target.x - origin.x
        self._dy = self._target.y - origin.y
        self._length = origin.distance_to(self._target)
        self._arrive_time = now + self._length / self._speed

    def position(self, now: float) -> Point:
        if now == self._memo_now:
            return self._memo_point
        if self.max_speed == 0:
            return self._origin
        while now >= self._arrive_time:
            self._next_leg(self._target, self._arrive_time)
        travelled = self._speed * (now - self._depart_time)
        origin = self._origin
        length = self._length
        if travelled <= 0.0:
            point = origin
        elif length <= travelled or length <= EPSILON:
            point = self._target
        else:
            # Point.toward's arithmetic, in its order, on the stored
            # leg constants: coordinates are bit-identical to it.
            frac = travelled / length
            point = Point(
                origin.x + self._dx * frac, origin.y + self._dy * frac
            )
        self._memo_now = now
        self._memo_point = point
        return point
