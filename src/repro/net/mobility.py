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
keyed on ``now`` itself, never on a time bucket.  It is readable
(``last_now``, ``last_point``), and with the speed bound it places a
node without a read: at ``now`` it is within ``max_speed * |now -
last_now|`` of ``last_point``.
"""

from __future__ import annotations

import math
import random
from typing import Protocol, Union

from repro.util.geometry import EPSILON, Point
from repro.util.rng import KeyedDraws

#: Slowest speed a random-waypoint leg is drawn at (m/s): the paper's
#: speeds are uniform from standstill up to the scenario's maximum.
MIN_SPEED = 0.0

#: ``Point``'s own constructor, less the Python frame of the
#: ``NamedTuple``'s ``__new__``: the same value, at half the cost.
_new_tuple = tuple.__new__


class MobilityModel(Protocol):
    """Anything that can report a position at a given time."""

    def position(self, now: float) -> Point:
        """Node position at simulated time ``now``.

        Must be monotone-safe: callers query at non-decreasing times,
        repeat an instant freely, and may look back; every answer lies
        inside the deployment area and repeating ``now`` repeats the
        answer.

        A model may also carry ``max_speed`` (m/s), a bound on how fast
        its answers move; one without it is treated as unbounded.  And
        it may keep its last answer readable, as ``last_point`` answered
        at ``last_now`` (NaN before the first); the medium then rules
        the node out of a range test when even ``max_speed`` cannot
        bring it in (:meth:`WirelessMedium.contention_at`).  One with
        either missing is always asked.
        """
        ...


class StaticMobility:
    """A node that never moves (actuators, anchored sensors)."""

    #: Spatial indexes skip re-bucketing nodes that declare themselves
    #: static (see :mod:`repro.net.spatial`); models without the
    #: attribute are treated as mobile.
    is_static = True
    max_speed = 0.0
    #: Any instant: a model that never moves answered ``last_point``
    #: at all of them.
    last_now = 0.0

    def __init__(self, position: Point) -> None:
        self.last_point = position

    def position(self, now: float) -> Point:
        return self.last_point


class RandomWaypoint:
    """The random-waypoint model used in the paper's evaluation.

    Each node repeatedly selects a uniform destination point in the
    square deployment area and moves toward it at a speed drawn
    uniformly from ``[MIN_SPEED, max_speed]`` m/s; on arrival it
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
    ) -> None:
        """``rng`` gives the leg draws through ``uniform(a, b)``, three
        a leg (target x, target y, speed)."""
        if area_side <= 0:
            raise ValueError("area_side must be positive")
        if max_speed < 0:
            raise ValueError("invalid speed range")
        self._area_side = area_side
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
        #: The last ``now`` answered and the answer; NaN never equals
        #: a query, and bounds no distance.
        self.last_now = math.nan
        self.last_point = start
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
        speed = self._rng.uniform(MIN_SPEED, self.max_speed)
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
        if now == self.last_now:
            return self.last_point
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
            # leg constants: coordinates are bit-identical to it.  The
            # Point is built without its Python-level ``__new__``.
            frac = travelled / length
            point = _new_tuple(
                Point, (origin.x + self._dx * frac, origin.y + self._dy * frac)
            )
        self.last_now = now
        self.last_point = point
        return point
