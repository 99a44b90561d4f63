"""Tests for the CAN overlay."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dht.can import CanOverlay, Zone
from repro.errors import DHTError


class TestZone:
    def test_contains_half_open(self):
        z = Zone(0.0, 0.5, 0.0, 0.5)
        assert z.contains((0.0, 0.0))
        assert z.contains((0.49, 0.49))
        assert not z.contains((0.5, 0.25))

    def test_degenerate_rejected(self):
        with pytest.raises(DHTError):
            Zone(0.5, 0.5, 0.0, 1.0)

    def test_split_longer_side(self):
        wide = Zone(0.0, 1.0, 0.0, 0.5)
        left, right = wide.split()
        assert left.x1 == right.x0 == 0.5
        tall = Zone(0.0, 0.5, 0.0, 1.0)
        bottom, top = tall.split()
        assert bottom.y1 == top.y0 == 0.5

    def test_split_preserves_volume(self):
        z = Zone(0.0, 1.0, 0.0, 1.0)
        a, b = z.split()
        assert a.volume + b.volume == pytest.approx(z.volume)

    def test_adjacency(self):
        a = Zone(0.0, 0.5, 0.0, 1.0)
        b = Zone(0.5, 1.0, 0.0, 1.0)
        assert a.adjacent(b) and b.adjacent(a)

    def test_corner_touch_not_adjacent(self):
        a = Zone(0.0, 0.5, 0.0, 0.5)
        b = Zone(0.5, 1.0, 0.5, 1.0)
        assert not a.adjacent(b)

    def test_distance_to(self):
        z = Zone(0.0, 0.5, 0.0, 0.5)
        assert z.distance_to((0.25, 0.25)) == 0.0
        assert z.distance_to((0.8, 0.25)) == pytest.approx(0.3)


class TestJoinLeave:
    def test_first_join_owns_everything(self):
        can = CanOverlay()
        can.join(1, (0.3, 0.3))
        assert can.owner_of((0.9, 0.9)) == 1

    def test_join_splits_owner(self):
        can = CanOverlay()
        can.join(1, (0.2, 0.2))
        can.join(2, (0.8, 0.8))
        assert can.owner_of((0.8, 0.8)) == 2
        assert len(can) == 2

    def test_duplicate_join_rejected(self):
        can = CanOverlay()
        can.join(1, (0.1, 0.1))
        with pytest.raises(DHTError):
            can.join(1, (0.9, 0.9))

    def test_point_outside_square_rejected(self):
        can = CanOverlay()
        with pytest.raises(DHTError):
            can.join(1, (1.5, 0.5))

    def test_total_volume_invariant(self):
        can = CanOverlay()
        rng = random.Random(3)
        for i in range(20):
            can.join(i, (rng.random(), rng.random()))
        total = sum(
            z.volume for n in can.nodes() for z in can.zones_of(n)
        )
        assert total == pytest.approx(1.0)

    def test_leave_hands_over_zones(self):
        can = CanOverlay()
        can.join(1, (0.2, 0.2))
        can.join(2, (0.8, 0.8))
        can.leave(2)
        assert can.owner_of((0.8, 0.8)) == 1

    def test_leave_unknown_raises(self):
        with pytest.raises(DHTError):
            CanOverlay().leave(5)

    def test_leave_unknown_is_typed_not_bare_keyerror(self):
        # Regression: unknown ids must surface as the DHT's typed error,
        # never as the dict's bare KeyError.
        with pytest.raises(DHTError) as excinfo:
            CanOverlay().leave(41)
        assert not isinstance(excinfo.value, KeyError)
        assert "41" in str(excinfo.value)

    def test_leave_last_node_empties_overlay_cleanly(self):
        # Regression: removing the final member must not blow up on heir
        # search; the overlay goes empty and accepts a fresh first join.
        can = CanOverlay()
        can.join(1, (0.3, 0.3))
        can.leave(1)
        assert can.nodes() == []
        with pytest.raises(DHTError):
            can.owner_of((0.3, 0.3))
        can.join(2, (0.6, 0.6))
        assert can.owner_of((0.1, 0.9)) == 2

    def test_every_point_owned_after_churn(self):
        can = CanOverlay()
        rng = random.Random(11)
        for i in range(16):
            can.join(i, (rng.random(), rng.random()))
        for i in (3, 7, 11):
            can.leave(i)
        for _ in range(100):
            point = (rng.random(), rng.random())
            assert can.owner_of(point) in can.nodes()


class TestNeighborsRouting:
    def build(self, count=12, seed=5):
        can = CanOverlay()
        rng = random.Random(seed)
        for i in range(count):
            can.join(i, (rng.random(), rng.random()))
        return can, rng

    def test_neighbors_symmetric(self):
        can, _ = self.build()
        for n in can.nodes():
            for m in can.neighbors(n):
                assert n in can.neighbors(m)

    def test_route_reaches_owner(self):
        can, rng = self.build()
        for _ in range(30):
            point = (rng.random(), rng.random())
            src = rng.choice(can.nodes())
            path = can.route(src, point)
            assert path[0] == src
            assert path[-1] == can.owner_of(point)

    def test_route_hops_are_neighbors(self):
        can, rng = self.build()
        point = (rng.random(), rng.random())
        path = can.route(can.nodes()[0], point)
        for a, b in zip(path, path[1:]):
            assert b in can.neighbors(a)

    def test_route_from_owner_is_trivial(self):
        can, rng = self.build()
        point = (0.5, 0.5)
        owner = can.owner_of(point)
        assert can.route(owner, point) == [owner]

    def test_route_unknown_source(self):
        can, _ = self.build()
        with pytest.raises(DHTError):
            can.route(999, (0.5, 0.5))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_routing_always_terminates(self, seed):
        rng = random.Random(seed)
        can = CanOverlay()
        count = rng.randint(1, 25)
        for i in range(count):
            can.join(i, (rng.random(), rng.random()))
        point = (rng.random(), rng.random())
        path = can.route(rng.randrange(count), point)
        assert len(path) <= count
