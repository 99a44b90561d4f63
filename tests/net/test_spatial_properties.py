"""Property-based equivalence: grid ``within_range`` == brute-force scan.

The spatial index is only allowed to *prune* — for every deployment,
query point and radius it must return exactly the unit-disk result the
O(n) scan returns, including items sitting exactly on a cell boundary
and exactly on the range limit.  All properties run derandomized
(fixed seed profile) with >= 200 examples so CI failures reproduce.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.net.medium import WirelessMedium
from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.node import Node, NodeRole
from repro.net.spatial import SpatialHashGrid, brute_force_within_range
from repro.util.geometry import Point
from tests.net.oracle import brute_neighbors

PROFILE = settings(max_examples=200, deadline=None, derandomize=True)

finite = st.floats(
    min_value=-500.0, max_value=500.0, allow_nan=False, allow_infinity=False
)


@st.composite
def deployments(draw):
    """A cell size plus positions, biased toward cell-boundary points.

    Half the coordinates are exact multiples of the cell size, so
    points land exactly on cell seams and corners — the places where a
    wrong floor/comparison would lose or duplicate items.
    """
    cell = draw(st.floats(min_value=0.5, max_value=120.0,
                          allow_nan=False, allow_infinity=False))
    aligned = st.integers(min_value=-6, max_value=6).map(lambda i: i * cell)
    coord = st.one_of(finite, aligned)
    points = draw(
        st.lists(st.tuples(coord, coord), min_size=0, max_size=60)
    )
    positions = {i: Point(x, y) for i, (x, y) in enumerate(points)}
    return cell, positions


@PROFILE
@given(deployments(), st.tuples(finite, finite),
       st.floats(min_value=0.0, max_value=700.0,
                 allow_nan=False, allow_infinity=False))
def test_within_range_matches_brute_force(deployment, query, radius):
    cell, positions = deployment
    grid = SpatialHashGrid(cell)
    for item_id, point in positions.items():
        grid.insert(item_id, point)
    q = Point(*query)
    assert grid.within_range(q, radius) == brute_force_within_range(
        positions, q, radius
    )


class FakePeer:
    def __init__(self, transmission_range, usable):
        self.transmission_range = transmission_range
        self.usable = usable


@PROFILE
@given(deployments(), st.tuples(finite, finite),
       st.floats(min_value=0.0, max_value=700.0,
                 allow_nan=False, allow_infinity=False),
       st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_peer_filtered_query_matches_brute_force(
    deployment, query, radius, peer_seed, usable_only
):
    """The neighbour-list form: each item's own range (sometimes the
    exact float distance, to hit the limit) and liveness, tested in the
    same pass."""
    cell, positions = deployment
    grid = SpatialHashGrid(cell)
    for item_id, point in positions.items():
        grid.insert(item_id, point)
    q = Point(*query)
    rng = random.Random(peer_seed)
    peers = {}
    for item_id, p in positions.items():
        exact = math.hypot(q.x - p.x, q.y - p.y)
        reach = rng.choice([exact, rng.uniform(0.0, 700.0)])
        peers[item_id] = FakePeer(reach, rng.random() < 0.7)
    assert grid.within_range(q, radius, peers, usable_only) == \
        brute_force_within_range(positions, q, radius, peers, usable_only)


@PROFILE
@given(deployments(), st.integers(min_value=0, max_value=10 ** 6))
def test_exact_range_limit_is_inclusive(deployment, pick_seed):
    """Radius set to the *exact float distance* of one stored point.

    The <= predicate must include that point, in both implementations,
    for arbitrary (not hand-picked) geometry.
    """
    cell, positions = deployment
    if not positions:
        return
    grid = SpatialHashGrid(cell)
    for item_id, point in positions.items():
        grid.insert(item_id, point)
    rng = random.Random(pick_seed)
    target = positions[rng.choice(list(positions))]
    q = Point(
        rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)
    )
    radius = math.hypot(q.x - target.x, q.y - target.y)
    grid_hits = grid.within_range(q, radius)
    assert grid_hits == brute_force_within_range(positions, q, radius)
    assert any(
        positions[item_id] == target for item_id in grid_hits
    )


@st.composite
def churn_ops(draw):
    """Interleaved insert/move/remove/query traffic."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(0, 30),
                          finite, finite),
                st.tuples(st.just("move"), st.integers(0, 30),
                          finite, finite),
                st.tuples(st.just("remove"), st.integers(0, 30),
                          finite, finite),
                st.tuples(st.just("query"), st.integers(0, 30),
                          finite, finite),
            ),
            min_size=1,
            max_size=80,
        )
    )


@PROFILE
@given(st.floats(min_value=0.5, max_value=80.0, allow_nan=False,
                 allow_infinity=False), churn_ops())
def test_churn_keeps_grid_and_oracle_in_lockstep(cell, ops):
    grid = SpatialHashGrid(cell)
    oracle = {}
    for op, item_id, x, y in ops:
        if op == "insert" and item_id not in oracle:
            grid.insert(item_id, Point(x, y))
            oracle[item_id] = Point(x, y)
        elif op == "move" and item_id in oracle:
            grid.move(item_id, Point(x, y))
            oracle[item_id] = Point(x, y)
        elif op == "remove" and item_id in oracle:
            grid.remove(item_id)
            del oracle[item_id]
        elif op == "query":
            q = Point(x, y)
            radius = abs(x) / 2.0 + 1.0
            assert grid.within_range(q, radius) == \
                brute_force_within_range(oracle, q, radius)
    q = Point(0.0, 0.0)
    assert grid.within_range(q, 600.0) == \
        brute_force_within_range(oracle, q, 600.0)
    assert len(grid) == len(oracle)
    fresh = SpatialHashGrid(cell)
    for item_id, point in oracle.items():
        fresh.insert(item_id, point)
    assert grid.occupancy() == fresh.occupancy()


@st.composite
def mobile_worlds(draw):
    """A mixed static/mobile deployment plus query times."""
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    n_static = draw(st.integers(min_value=1, max_value=8))
    n_mobile = draw(st.integers(min_value=1, max_value=8))
    max_speed = draw(st.floats(min_value=0.0, max_value=30.0,
                               allow_nan=False, allow_infinity=False))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=40.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=10,
        ).map(sorted)
    )
    return seed, n_static, n_mobile, max_speed, times


def _build_world(seed, n_static, n_mobile, max_speed):
    area = 300.0
    placer = random.Random(seed)
    medium = WirelessMedium()
    node_id = 0
    for _ in range(n_static):
        pos = Point(placer.uniform(0, area), placer.uniform(0, area))
        medium.add_node(
            Node(node_id, NodeRole.SENSOR, StaticMobility(pos), 100.0)
        )
        node_id += 1
    for _ in range(n_mobile):
        start = Point(placer.uniform(0, area), placer.uniform(0, area))
        mobility = RandomWaypoint(
            start=start, area_side=area, max_speed=max_speed,
            rng=random.Random(placer.randrange(10 ** 9)),
        )
        medium.add_node(Node(node_id, NodeRole.SENSOR, mobility, 100.0))
        node_id += 1
    return medium


@PROFILE
@given(mobile_worlds())
def test_mobile_neighbor_queries_match_brute_medium(world):
    """The medium's neighbour tuples equal a brute-force scan of its own
    snapshot at every waypoint time.

    The oracle reads the positions the grid holds, so any divergence is
    an index bug (a missed re-bucket, a cell left out of a query), not
    model noise.
    """
    seed, n_static, n_mobile, max_speed, times = world
    medium = _build_world(seed, n_static, n_mobile, max_speed)
    n = n_static + n_mobile
    for now in times:
        for node_id in range(n):
            assert medium.neighbors(node_id, now) == brute_neighbors(
                medium, node_id
            )
