"""Tests for nodes and the wireless medium."""

import pytest

from repro.errors import NetworkError
from repro.net.medium import WirelessMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node, NodeRole
from repro.util.geometry import Point


def make_node(node_id, x, y, rng=100.0, role=NodeRole.SENSOR, battery=None):
    return Node(
        node_id, role, StaticMobility(Point(x, y)), rng,
        battery_joules=battery,
    )


class TestNode:
    def test_roles(self):
        assert make_node(1, 0, 0).is_sensor
        assert make_node(2, 0, 0, role=NodeRole.ACTUATOR).is_actuator

    def test_range_checks(self):
        a = make_node(1, 0, 0, rng=100)
        b = make_node(2, 80, 0, rng=50)
        assert a.in_range_of(b, 0.0)        # a's range covers 80m
        assert not b.in_range_of(a, 0.0)    # b's doesn't
        assert not a.bidirectional_link(b, 0.0)

    def test_bidirectional_link(self):
        a = make_node(1, 0, 0, rng=100)
        b = make_node(2, 80, 0, rng=100)
        assert a.bidirectional_link(b, 0.0)

    def test_invalid_range(self):
        with pytest.raises(NetworkError):
            make_node(1, 0, 0, rng=0)

    def test_battery(self):
        n = make_node(1, 0, 0, battery=10.0)
        assert n.battery_fraction == 1.0
        n.drain(5.0)
        assert n.battery_fraction == 0.5
        assert n.usable
        n.drain(5.0)
        assert n.battery_exhausted
        assert not n.usable

    def test_unmetered_battery(self):
        n = make_node(1, 0, 0)
        n.drain(1e9)
        assert n.battery_fraction == 1.0
        assert not n.battery_exhausted

    def test_usable_flags(self):
        n = make_node(1, 0, 0)
        assert n.usable
        n.failed = True
        assert not n.usable
        n.failed = False
        assert n.usable


class TestMedium:
    def build(self):
        medium = WirelessMedium()
        # line: 0 -(80m)- 1 -(80m)- 2, plus far node 3
        medium.add_node(make_node(0, 0, 0))
        medium.add_node(make_node(1, 80, 0))
        medium.add_node(make_node(2, 160, 0))
        medium.add_node(make_node(3, 1000, 0))
        return medium

    def test_neighbors(self):
        medium = self.build()
        assert set(medium.neighbors(1, 0.0)) == {0, 2}
        assert medium.neighbors(3, 0.0) == ()

    def test_duplicate_id_rejected(self):
        medium = self.build()
        with pytest.raises(NetworkError):
            medium.add_node(make_node(0, 5, 5))

    def test_unknown_node(self):
        with pytest.raises(NetworkError):
            self.build().node(99)

    def test_neighbors_exclude_unusable(self):
        medium = self.build()
        medium.node(0).failed = True
        assert medium.neighbors(1, 0.0) == (2,)
        assert set(medium.neighbors(1, 0.0, require_usable=False)) == {0, 2}

    def test_cache_invalidation_across_buckets(self):
        medium = self.build()
        assert set(medium.neighbors(1, 0.0)) == {0, 2}
        medium.node(2).failed = True
        # Same bucket: cached (stale by design)...
        assert set(medium.neighbors(1, 0.01)) == {0, 2}
        # ...next bucket sees the change.
        assert medium.neighbors(1, 1.0) == (0,)

    def test_can_transmit(self):
        medium = self.build()
        assert medium.can_transmit(0, 1, 0.0)
        assert not medium.can_transmit(0, 2, 0.0)
        medium.node(1).failed = True
        assert not medium.can_transmit(0, 1, 0.0)

    def test_link_quality(self):
        medium = self.build()
        assert medium.link_quality(0, 1, 0.0) == pytest.approx(0.2)
        assert medium.link_quality(0, 3, 0.0) == 0.0

    def test_contention_counts_busy_radios(self):
        medium = self.build()
        assert medium.contention_at(1, 0.0) == 0
        medium.node(0).radio_busy_until = 10.0
        assert medium.contention_at(1, 0.0) == 1

    def test_len_and_contains(self):
        medium = self.build()
        assert len(medium) == 4
        assert 2 in medium
        assert 99 not in medium
