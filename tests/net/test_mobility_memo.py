"""Differential property: the memoised waypoint model == the old one.

:class:`ReferenceWaypoint` is ``RandomWaypoint`` as it stood before the
position memo: no per-leg constants, no memo, every query interpolated
from scratch through :meth:`Point.toward`.  It lives here as the
oracle.  Both models are driven with the same seed over the same
monotone query script — instants repeated, several leg roll-overs
crossed — and must agree *bit for bit*: every coordinate ``==`` (no
tolerance), the RNG left in the same state, and a repeated instant
answered with the identical object.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.net.mobility import RandomWaypoint
from repro.util.geometry import Point

PROFILE = settings(max_examples=200, deadline=None, derandomize=True)


class ReferenceWaypoint:
    """The pre-memo random-waypoint model (monotone queries only)."""

    def __init__(self, start, area_side, max_speed, rng, min_speed=0.0):
        self._area_side = area_side
        self._min_speed = min_speed
        self._max_speed = max_speed
        self._rng = rng
        self._origin = start
        self._target = start
        self._speed = 0.0
        self._depart_time = 0.0
        self._arrive_time = 0.0
        if max_speed > 0:
            self._next_leg(start, 0.0)

    def _next_leg(self, origin, now):
        self._origin = origin
        self._target = Point(
            self._rng.uniform(0.0, self._area_side),
            self._rng.uniform(0.0, self._area_side),
        )
        speed = self._rng.uniform(self._min_speed, self._max_speed)
        self._speed = max(speed, 1e-3 * self._max_speed)
        self._depart_time = now
        distance = origin.distance_to(self._target)
        if self._speed <= 0.0:
            self._target = origin
            self._arrive_time = math.inf
            return
        self._arrive_time = now + distance / self._speed

    def position(self, now):
        if self._max_speed == 0:
            return self._origin
        while now >= self._arrive_time:
            self._next_leg(self._target, self._arrive_time)
        elapsed = now - self._depart_time
        return self._origin.toward(self._target, self._speed * elapsed)


#: Steps between consecutive queries: zero repeats the instant, the
#: large ones jump over whole legs (a 100 m leg at 5 m/s lasts <= 30 s).
steps = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=20.0, max_value=400.0, allow_nan=False),
)

#: (min_speed, max_speed): the evaluation's [0, v], a positive floor,
#: the static degenerate case, and the subnormal ceiling whose redraw
#: floor ``1e-3 * max_speed`` underflows to 0.0 (the pinned leg).
speed_ranges = st.one_of(
    st.tuples(st.just(0.0), st.floats(0.1, 10.0)),
    st.floats(0.1, 10.0).flatmap(
        lambda top: st.tuples(st.floats(0.05, top), st.just(top))
    ),
    st.just((0.0, 0.0)),
    st.just((0.0, 5e-324)),
)


def both(seed, speeds, start=Point(25.0, 40.0), side=100.0):
    low, high = speeds
    rng_new, rng_old = random.Random(seed), random.Random(seed)
    new = RandomWaypoint(start, side, high, rng_new, min_speed=low)
    old = ReferenceWaypoint(start, side, high, rng_old, min_speed=low)
    return new, old, rng_new, rng_old


@PROFILE
@given(
    st.integers(0, 2**32 - 1),
    speed_ranges,
    st.lists(steps, min_size=1, max_size=40),
)
def test_memoised_model_is_bit_identical_to_the_reference(seed, speeds, script):
    new, old, rng_new, rng_old = both(seed, speeds)
    now = 0.0
    previous_now, previous_point = None, None
    for step in script:
        now += step
        got, want = new.position(now), old.position(now)
        assert (got.x, got.y) == (want.x, want.y)
        if now == previous_now:
            assert got is previous_point
        previous_now, previous_point = now, got
        # The memo never changes when the RNG is drawn from.
        assert rng_new.getstate() == rng_old.getstate()


def test_script_crosses_several_legs():
    """The property above is not vacuous: its long steps roll legs over."""
    new, old, rng_new, _ = both(7, (0.0, 5.0))
    before = rng_new.getstate()
    for now in (0.0, 150.0, 150.0, 300.0, 450.0):
        assert new.position(now) == old.position(now)
    assert rng_new.getstate() != before
    assert new.position(450.0) is new.position(450.0)


def test_subnormal_ceiling_can_pin_the_leg():
    """Seed 8's first speed draw rounds to 0.0: pinned at the start."""
    new, old, _, _ = both(8, (0.0, 5e-324))
    assert new._speed == 0.0 and new._arrive_time == math.inf
    for now in (0.0, 1.0, 1e9):
        assert new.position(now) == old.position(now) == Point(25.0, 40.0)
