"""Unit tests for the spatial hash grid and its medium integration."""

import math
import random
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.errors import NetworkError
from repro.net import medium as medium_module
from repro.net import spatial
from repro.net.medium import WirelessMedium
from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.net.spatial import (
    CELL_SLACK,
    SpatialHashGrid,
    brute_force_within_range,
)
from repro.sim.core import Simulator
from repro.util.geometry import Point
from tests.net.oracle import brute_neighbors, grid_within

#: The auto cell side of a medium whose median range is 100 m.
MEDIAN_CELL = 100.0 * (1.0 + CELL_SLACK)


def make_node(node_id, x, y, rng=100.0, role=NodeRole.SENSOR):
    return Node(node_id, role, StaticMobility(Point(x, y)), rng)


def medium_of(cell_size=None):
    """A medium whose grid cells have side ``cell_size`` (None: auto)."""
    with mock.patch.object(medium_module, "CELL_SIZE", cell_size):
        return WirelessMedium()


class TestGridBasics:
    def test_insert_query_move(self):
        grid = SpatialHashGrid(10.0)
        grid.insert(1, Point(0, 0))
        grid.insert(2, Point(5, 5))
        grid.insert(3, Point(100, 100))
        assert grid.items() == [1, 2, 3]
        assert grid_within(grid, Point(0, 0), 10.0) == [1, 2]
        grid.move(2, Point(50, 50))
        assert grid_within(grid, Point(0, 0), 10.0) == [1]

    def test_invalid_cell_size(self):
        with pytest.raises(NetworkError):
            SpatialHashGrid(0.0)

    def test_duplicate_insert_rejected(self):
        grid = SpatialHashGrid(1.0)
        grid.insert(1, Point(0, 0))
        with pytest.raises(NetworkError):
            grid.insert(1, Point(1, 1))

    def test_unknown_move_rejected(self):
        grid = SpatialHashGrid(1.0)
        with pytest.raises(NetworkError):
            grid.move(7, Point(0, 0))

    def test_results_sorted_by_id(self):
        grid = SpatialHashGrid(50.0)
        for item_id in (9, 3, 7, 1):
            grid.insert(item_id, Point(item_id, 0))
        assert grid_within(grid, Point(0, 0), 50.0) == [
            1, 3, 7, 9,
        ]


class TestGridBoundaries:
    def test_point_on_cell_boundary_found(self):
        grid = SpatialHashGrid(10.0)
        grid.insert(1, Point(10.0, 0.0))   # exactly on the cell seam
        grid.insert(2, Point(10.0, 10.0))  # exactly on a cell corner
        assert grid_within(grid, Point(9.0, 1.0), 15.0) == [
            1, 2,
        ]

    def test_point_exactly_on_range_limit_included(self):
        grid = SpatialHashGrid(5.0)
        grid.insert(1, Point(30.0, 0.0))
        assert grid_within(grid, Point(0, 0), 30.0) == [1]
        assert grid_within(grid, Point(0, 0), 29.999999) == []

    def test_negative_coordinates(self):
        grid = SpatialHashGrid(10.0)
        grid.insert(1, Point(-25.0, -25.0))
        grid.insert(2, Point(25.0, 25.0))
        assert grid_within(grid, Point(-20.0, -20.0), 10.0) \
            == [1]

    def test_query_disk_larger_than_cell(self):
        # Correctness must not depend on radius <= cell size.
        grid = SpatialHashGrid(3.0)
        for i in range(10):
            grid.insert(i, Point(10.0 * i, 0.0))
        assert grid_within(grid, Point(0, 0), 45.0) == [
            0, 1, 2, 3, 4,
        ]


class TestGridMove:
    def test_move_within_cell_does_not_rebucket(self):
        grid = SpatialHashGrid(10.0)
        grid.insert(1, Point(1.0, 1.0))
        grid.move(1, Point(2.0, 2.0))
        assert grid_within(grid, Point(2.0, 2.0), 1.0) == [1]
        assert grid.stats.rebuckets == 0
        assert grid.stats.in_cell_moves == 1
        assert grid.position_of(1) == Point(2.0, 2.0)

    def test_move_across_cells_rebuckets(self):
        grid = SpatialHashGrid(10.0)
        grid.insert(1, Point(1.0, 1.0))
        grid.move(1, Point(25.0, 1.0))
        assert grid_within(grid, Point(25.0, 0.0), 5.0) == [1]
        assert grid_within(grid, Point(0.0, 0.0), 5.0) == []
        assert grid.stats.rebuckets == 1

    def test_occupancy_snapshot(self):
        grid = SpatialHashGrid(10.0)
        grid.insert(1, Point(1, 1))
        grid.insert(2, Point(2, 2))
        grid.insert(3, Point(55, 55))
        occ = grid.occupancy()
        assert occ.items == 3
        assert occ.occupied_cells == 2
        assert occ.max_per_cell == 2

    def test_empty_occupancy(self):
        occ = SpatialHashGrid(1.0).occupancy()
        assert occ.items == 0
        assert occ.max_per_cell == 0


def grid_of(cell, nodes):
    """A grid of ``nodes`` at their positions, with the node table and
    the wide ids a medium with that cell side would hand its pass."""
    grid = SpatialHashGrid(cell)
    for node in nodes:
        grid.insert(node.id, node.position(0.0))
    table = {node.id: node for node in nodes}
    wide = [
        node.id for node in nodes
        if node.transmission_range * (1.0 + CELL_SLACK) > cell
    ]
    return grid, table, wide


class TestMutualNeighbours:
    def test_both_ranges_decide_and_liveness_is_not_read(self):
        nodes = [
            make_node(0, 0, 0, rng=10.0),
            make_node(1, 3, 4, rng=5.0),       # 5 m: exactly its range
            make_node(2, 6, 8, rng=9.99),      # 10 m: its range falls short
            make_node(3, 0, 6, rng=50.0),
        ]
        nodes[3].failed = True
        grid, table, wide = grid_of(10.0, nodes)
        assert grid.mutual_neighbours(range(4), table, wide) == {
            0: [1, 3], 1: [0, 2, 3], 2: [1, 3], 3: [0, 1, 2],
        }
        assert grid.stats.queries == 4
        assert grid.stats.matches == 10    # listed, both ends counted

    def test_a_pass_over_some_ids_lists_what_the_whole_pass_does(self):
        rng = random.Random(5)
        nodes = [
            make_node(i, rng.uniform(0, 300), rng.uniform(0, 300),
                      rng=rng.choice([60.0, 100.0, 250.0]))
            for i in range(80)
        ]
        grid, table, wide = grid_of(100.0, nodes)
        whole = grid.mutual_neighbours(range(80), table, wide)
        assert grid.stats.candidates <= 80 * 79 // 2
        for node_id in range(80):
            assert grid.mutual_neighbours([node_id], table, wide) == {
                node_id: whole[node_id]
            }
        some = list(range(0, 80, 3))
        assert grid.mutual_neighbours(some, table, wide) == {
            node_id: whole[node_id] for node_id in some
        }

    def test_wide_pairs_beyond_the_cell_block(self):
        """250 m radios in 100 m cells: two and three cells apart."""
        nodes = [
            make_node(0, 50, 50, rng=250.0),
            make_node(1, 290, 50, rng=250.0),    # two cells on, 240 m
            make_node(2, 99, 300, rng=250.0),
            make_node(3, 340, 300, rng=250.0),   # three cells on, 241 m
            make_node(4, 290, 140, rng=100.0),   # the wide 1's only peer
        ]
        grid, table, wide = grid_of(MEDIAN_CELL, nodes)
        assert wide == [0, 1, 2, 3]
        assert grid.mutual_neighbours(range(5), table, wide) == {
            0: [1], 1: [0, 4], 2: [3], 3: [2], 4: [1],
        }

    def test_a_pair_two_cells_apart_at_a_rounded_range(self):
        """3.9999999999999996 sits in cell 0 and 8.0 in cell 2, yet
        their distance rounds to 4.0: the range, which the cell side
        equals.  The slack makes such radios wide, so it is found."""
        below = math.nextafter(4.0, 0.0)
        nodes = [make_node(0, below, 0, rng=4.0), make_node(1, 8, 0, rng=4.0)]
        grid, table, wide = grid_of(4.0, nodes)
        assert math.hypot(below - 8.0, 0.0) == 4.0
        assert wide == [0, 1]
        assert grid.mutual_neighbours([0, 1], table, wide) == {0: [1], 1: [0]}
        medium = medium_of(4.0)
        for node in nodes:
            medium.add_node(node)
        assert medium.neighbors(0, 0.0) == (1,) == brute_neighbors(medium, 0)


def rebuilt(grid):
    """A fresh grid holding every ``position_of`` of ``grid``."""
    fresh = SpatialHashGrid(grid.cell_size)
    for item_id in grid.items():
        fresh.insert(item_id, grid.position_of(item_id))
    return fresh


class TestBruteForceOracle:
    def test_matches_grid_on_random_points(self):
        rng = random.Random(7)
        grid = SpatialHashGrid(20.0)
        positions = {}
        for i in range(300):
            p = Point(rng.uniform(0, 200), rng.uniform(0, 200))
            positions[i] = p
            grid.insert(i, p)
        for _ in range(50):
            q = Point(rng.uniform(0, 200), rng.uniform(0, 200))
            r = rng.uniform(0, 60)
            assert grid_within(grid, q, r) == brute_force_within_range(
                positions, q, r
            )


def build_medium(cell_size=None):
    medium = medium_of(cell_size)
    # line: 0 -(80m)- 1 -(80m)- 2, plus far node 3
    medium.add_node(make_node(0, 0, 0))
    medium.add_node(make_node(1, 80, 0))
    medium.add_node(make_node(2, 160, 0))
    medium.add_node(make_node(3, 1000, 0))
    return medium


class TestMediumIndexIntegration:
    def test_grid_built_lazily(self):
        medium = build_medium()
        assert medium.spatial_grid is None
        medium.neighbors(0, 0.0)
        assert medium.spatial_grid is not None
        # Auto cell size = the median transmission range, stretched.
        assert medium.spatial_grid.cell_size == MEDIAN_CELL

    def test_explicit_cell_size(self):
        medium = build_medium(cell_size=40.0)
        medium.neighbors(0, 0.0)
        assert medium.spatial_grid.cell_size == 40.0

    def test_auto_cell_is_the_median_range_not_the_largest(self):
        medium = build_medium()
        medium.add_node(make_node(4, 80, 60, rng=250.0))
        medium.add_node(make_node(5, 500, 500, rng=30.0))
        medium.neighbors(0, 0.0)
        assert medium.spatial_grid.cell_size == MEDIAN_CELL
        assert WirelessMedium().index_stats() == {"refreshes": 0}

    def test_grid_and_brute_agree(self):
        for cell_size in (None, 7.0, 40.0, 250.0, 5000.0):
            medium = build_medium(cell_size=cell_size)
            medium.add_node(make_node(4, 80, 60, rng=250.0))
            medium.node(2).failed = True
            for node_id in range(5):
                for require_usable in (True, False):
                    found = medium.neighbors(node_id, 0.0, require_usable)
                    assert found == brute_neighbors(
                        medium, node_id, require_usable
                    )
            assert medium.neighbors(4, 0.0) == (0, 1)
            assert medium.neighbors(4, 0.0, require_usable=False) == (0, 1, 2)

    def test_bigger_radio_keeps_the_one_grid(self):
        """One build, cell = median range: a 250 m actuator added
        mid-run joins the grid it finds and changes no other node's
        neighbours beyond appearing in them."""
        medium = build_medium()
        before = {i: medium.neighbors(i, 0.0) for i in range(4)}
        grid = medium.spatial_grid
        assert grid.cell_size == MEDIAN_CELL
        medium.add_node(make_node(4, 80, 60, rng=250.0))
        assert medium.neighbors(4, 0.0) == (0, 1, 2)
        assert medium.spatial_grid is grid and grid.cell_size == MEDIAN_CELL
        assert medium.index_stats()["inserts"] == 5
        for i in range(4):
            found = medium.neighbors(i, 0.0)
            assert found == brute_neighbors(medium, i)
            assert tuple(n for n in found if n != 4) == before[i]

    def test_mobile_nodes_rebucket_lazily(self):
        medium = WirelessMedium()
        rng = random.Random(3)
        medium.add_node(make_node(0, 100, 100))
        medium.add_node(
            Node(
                1,
                NodeRole.SENSOR,
                RandomWaypoint(
                    start=Point(100, 100), area_side=200.0,
                    max_speed=5.0, rng=rng,
                ),
                100.0,
            )
        )
        assert medium.neighbors(0, 0.0) == (1,)
        grid = medium.spatial_grid
        stats_before = medium.index_stats()
        # Many buckets later the walker has been refreshed every bucket
        # but re-hashed only when it crossed a 100 m cell boundary.
        for step in range(1, 40):
            medium.neighbors(0, step * 0.25)
        stats_after = medium.index_stats()
        refreshed = stats_after["refreshes"] - stats_before["refreshes"]
        rebucketed = stats_after["rebuckets"] - stats_before["rebuckets"]
        assert refreshed == 39
        assert rebucketed < refreshed
        assert medium.spatial_grid is grid
        assert stats_after["inserts"] == 2

    def test_buckets_served_only_by_contention_leave_the_grid_consistent(self):
        """``contention_at`` reads exact positions and leaves the
        snapshot alone for as many buckets as nobody asks for a
        neighbour tuple; whatever is asked next must see the grid a
        fresh build gives."""
        medium = medium_of(25.0)
        rng = random.Random(5)
        for node_id in range(12):
            medium.add_node(
                Node(
                    node_id,
                    NodeRole.SENSOR,
                    RandomWaypoint(
                        start=Point(20.0 * node_id, 100.0), area_side=240.0,
                        max_speed=30.0, rng=rng,
                    ),
                    80.0,
                )
            )
        medium.neighbors(0, 0.0)
        settled = medium.index_stats()
        medium.node(3).radio_busy_until = 60.0
        for step in range(1, 81):
            medium.contention_at(step % 12, step * 0.25)
        grid = medium.spatial_grid
        assert medium.refreshes == settled["refreshes"]
        medium.neighbors(0, 20.0)
        fresh = rebuilt(grid)
        for node_id in range(12):
            here = grid.position_of(node_id)
            assert grid_within(grid, here, 80.0) == grid_within(
                fresh, here, 80.0
            )
            assert medium.neighbors(node_id, 20.0) == brute_neighbors(
                medium, node_id
            )
        stats = medium.index_stats()
        assert stats["refreshes"] == settled["refreshes"] + 1
        assert stats["in_cell_moves"] + stats["rebuckets"] == (
            settled["in_cell_moves"] + settled["rebuckets"] + 12
        )
        occupancy = fresh.occupancy()
        assert stats["occupied_cells"] == occupancy.occupied_cells
        assert stats["max_per_cell"] == occupancy.max_per_cell
        assert grid.occupancy() == occupancy

    def test_index_stats_count_the_rehash_they_cause(self):
        medium = medium_of(25.0)
        medium.add_node(
            Node(
                0,
                NodeRole.SENSOR,
                RandomWaypoint(
                    start=Point(100, 100), area_side=200.0,
                    max_speed=30.0, rng=random.Random(3),
                ),
                100.0,
            )
        )
        medium.neighbors(0, 0.0)
        before = medium.index_stats()
        medium.spatial_grid.move(0, medium.node(0).position(30.0))
        stats = medium.index_stats()
        assert stats["in_cell_moves"] + stats["rebuckets"] == (
            before["in_cell_moves"] + before["rebuckets"] + 1
        )
        assert stats == medium.index_stats()

    def test_index_stats_report_occupancy(self):
        medium = build_medium()
        medium.neighbors(0, 0.0)
        stats = medium.index_stats()
        assert stats["occupied_cells"] >= 2
        assert stats["max_per_cell"] >= 1
        assert stats["queries"] == 1


class Line:
    """A node moving along the x axis at ``speed`` m/s."""

    is_static = False

    def __init__(self, x0, speed):
        self.x0 = x0
        self.max_speed = speed

    def position(self, now):
        return Point(self.x0 + self.max_speed * now, 0.0)


class TestGeometryPerSnapshot:
    """A flood's pass computes every node's peers once per snapshot;
    liveness is still each tuple's, read when it is first asked for."""

    def test_liveness_is_read_at_first_use_not_at_the_pass(self):
        medium = build_medium()        # 0 -80m- 1 -80m- 2, 3 far away
        medium.node(2).failed = True
        medium.survey(0.0)
        medium.node(0).failed = True   # after the pass, before 1 asks
        medium.node(2).failed = False
        assert medium.neighbors(1, 0.0) == (2,)
        assert medium.neighbors(1, 0.0, require_usable=False) == (0, 2)
        medium.node(2).failed = True   # after 1 asked: its tuple holds
        assert medium.neighbors(1, 0.1) == (2,)

    def test_a_refresh_drops_the_geometry(self):
        medium = build_medium()
        medium.add_node(Node(4, NodeRole.SENSOR, Line(265.0, -100.0), 100.0))
        medium.survey(0.0)
        assert medium.neighbors(2, 0.0) == (1,)        # 4 is 105 m off
        # A node joining mid-bucket re-reads every position at once.
        medium.add_node(make_node(5, 80, 60))
        assert medium.neighbors(1, 0.2) == (0, 2, 5)
        assert medium.neighbors(2, 0.2) == (1, 4, 5)   # 4 is 85 m off now
        medium.survey(0.2)
        assert medium.neighbors(4, 0.2) == (2,)
        # So does a bucket roll.
        medium.survey(2.0)
        assert medium.neighbors(4, 2.0) == (0, 1, 2, 5)

    def test_a_flood_in_a_fresh_bucket_computes_each_pair_once(
        self, monkeypatch
    ):
        rng = random.Random(2)
        net = WirelessNetwork(Simulator(), random.Random(2))
        points = {}
        for node_id in range(120):
            point = Point(rng.uniform(0, 400), rng.uniform(0, 400))
            reach = 250.0 if node_id < 4 else 100.0
            net.add_node(
                Node(node_id, NodeRole.SENSOR, StaticMobility(point), reach)
            )
            points[node_id] = point
        # The pair each operand couple of a distance belongs to.
        pair_of = {
            (a.x - b.x, a.y - b.y): frozenset((i, j))
            for i, a in points.items()
            for j, b in points.items()
            if i != j
        }
        computed = []

        def hypot(dx, dy):
            computed.append(pair_of[dx, dy])
            return math.hypot(dx, dy)

        with monkeypatch.context() as patch:
            patch.setattr(
                spatial, "math", SimpleNamespace(hypot=hypot, floor=math.floor)
            )
            tree = net.flood(0, ttl=64)
            found = {node_id: net.neighbors(node_id) for node_id in points}
        assert len(tree) == 120
        assert len(computed) == len(set(computed))
        for node_id in points:
            assert found[node_id] == brute_neighbors(net.medium, node_id)


class TestAddNodeInvalidation:
    """Regression: a node added mid-bucket must be immediately visible.

    Before the spatial-index PR, ``add_node`` did not invalidate the
    neighbour cache, so a node added mid-bucket (e.g. vertex
    replacement in ``core/maintenance``) was invisible to neighbour
    queries until the next 0.25 s bucket.
    """

    @pytest.mark.parametrize("auto_cell", [True, False])
    def test_added_node_visible_same_bucket(self, auto_cell):
        medium = build_medium(cell_size=None if auto_cell else 40.0)
        assert set(medium.neighbors(1, 0.0)) == {0, 2}
        medium.add_node(make_node(4, 80, 60))
        # Same 0.25 s bucket, later instant: the new node must appear.
        assert set(medium.neighbors(1, 0.01)) == {0, 2, 4}
        assert set(medium.neighbors(4, 0.01)) == {0, 1, 2}

    @pytest.mark.parametrize("auto_cell", [True, False])
    def test_added_node_visible_at_same_instant(self, auto_cell):
        medium = build_medium(cell_size=None if auto_cell else 40.0)
        assert set(medium.neighbors(1, 0.0)) == {0, 2}
        medium.add_node(make_node(4, 80, 60))
        assert set(medium.neighbors(1, 0.0)) == {0, 2, 4}


class TestNeighborTuplesAreReadOnly:
    """Regression: ``neighbors`` hands out its cached sequence itself,
    so it must be one a caller cannot corrupt the cache through."""

    def test_same_immutable_object_within_a_bucket(self):
        medium = build_medium()
        first = medium.neighbors(1, 0.0)
        assert first == (0, 2) and isinstance(first, tuple)
        with pytest.raises((TypeError, AttributeError)):
            first.append(3)
        with pytest.raises(TypeError):
            first[0] = 3
        assert medium.neighbors(1, 0.2) is first
        assert medium.neighbors(1, 0.2, require_usable=False) is not first

    def test_new_bucket_and_new_node_recompute(self):
        medium = build_medium()
        first = medium.neighbors(1, 0.0)
        medium.node(0).failed = True
        assert medium.neighbors(1, 0.2) is first      # stale by design
        assert medium.neighbors(1, 0.25) == (2,)      # next bucket
        medium.add_node(make_node(4, 80, 60))
        assert medium.neighbors(1, 0.3) == (2, 4)     # registry change
