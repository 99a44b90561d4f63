"""Tests for nodes and the wireless medium."""

import math

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
        medium = WirelessMedium()
        medium.add_node(make_node(1, 0, 0, rng=100))
        medium.add_node(make_node(2, 80, 0, rng=50))
        assert medium.can_transmit(1, 2, 0.0)       # 1's range covers 80m
        assert not medium.can_transmit(2, 1, 0.0)   # 2's doesn't
        assert medium.neighbors(1, 0.0) == ()       # not a two-way link

    def test_bidirectional_link(self):
        medium = WirelessMedium()
        medium.add_node(make_node(1, 0, 0, rng=100))
        medium.add_node(make_node(2, 80, 0, rng=100))
        assert medium.neighbors(1, 0.0) == (2,)

    def test_invalid_range(self):
        with pytest.raises(NetworkError):
            make_node(1, 0, 0, rng=0)

    @pytest.mark.parametrize(
        "reach", [-1.0, math.nan, math.inf, -math.inf]
    )
    def test_range_that_is_not_finite_and_positive_rejected(self, reach):
        with pytest.raises(NetworkError, match="transmission_range"):
            make_node(1, 0, 0, rng=reach)

    @pytest.mark.parametrize(
        "joules", [0.0, -1.0, math.nan, math.inf, -math.inf]
    )
    def test_capacity_that_is_not_finite_and_positive_rejected(self, joules):
        # A zero capacity used to reach battery_fraction as a bare
        # ZeroDivisionError; NaN made every node look charged forever.
        with pytest.raises(NetworkError, match="battery_joules"):
            make_node(1, 0, 0, battery=joules)
        node = make_node(2, 0, 0, battery=10.0)
        with pytest.raises(NetworkError, match="battery_joules"):
            node.battery_joules = joules
        assert node.battery_joules == 10.0
        assert node.battery_fraction == 1.0

    def test_capacity_can_be_unmetered_again(self):
        node = make_node(1, 0, 0, battery=10.0)
        node.drain(20.0)
        assert not node.usable
        node.battery_joules = None
        assert node.usable and node.battery_fraction == 1.0

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

    @pytest.mark.parametrize("node_id", [-1, 1.5, True, False, "7", None])
    def test_id_that_is_no_bit_position_rejected(self, node_id):
        # A flood files each id as a bit of its masks: only a
        # non-negative int is one, and the refusal registers nothing.
        medium = self.build()
        with pytest.raises(NetworkError, match="non-negative int"):
            medium.add_node(make_node(node_id, 10, 0))
        assert len(medium.node_table) == 4 and medium.neighbors(0, 0.0) == (1,)

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
        assert len(medium.node_table) == 4
        assert 2 in medium.node_table
        assert 99 not in medium.node_table
