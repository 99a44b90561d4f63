"""Property-based equivalence: the grid's answers == brute-force scans.

The spatial index is only allowed to *prune* — for every deployment,
query point and radius a grid pass must find exactly the unit-disk
result the O(n) scan returns, and every neighbour tuple the
medium builds from ``mutual_neighbours`` must equal the oracle's,
including items sitting exactly on a cell boundary and exactly on the
range limit.  All properties run derandomized
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
from tests.net.oracle import brute_neighbors, grid_within
from tests.net.test_spatial import medium_of

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
    assert grid_within(grid, q, radius) == brute_force_within_range(
        positions, q, radius
    )


@st.composite
def worlds(draw):
    """Nodes for a medium: a cell side (sometimes the auto one, often
    smaller than the ranges), positions biased to cell seams, ranges
    mixing the cell side, the paper's 100/250 m and exact pair
    distances, and some nodes failed or with a flat battery."""
    cell = draw(st.one_of(
        st.none(),
        st.floats(min_value=0.5, max_value=300.0,
                  allow_nan=False, allow_infinity=False),
    ))
    side = cell if cell is not None else 100.0
    aligned = st.integers(min_value=-4, max_value=4).map(lambda i: i * side)
    coord = st.one_of(st.floats(min_value=-300.0, max_value=300.0,
                                allow_nan=False, allow_infinity=False),
                      aligned)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    nodes = []
    for node_id, (x, y) in enumerate(points):
        other = points[rng.randrange(len(points))]
        exact = math.hypot(x - other[0], y - other[1])
        reach = rng.choice([
            side, 2.5 * side, 100.0, 250.0, rng.uniform(1.0, 400.0), exact,
        ])
        node = Node(
            node_id, NodeRole.SENSOR, StaticMobility(Point(x, y)),
            max(reach, 1e-3),
        )
        fault = rng.random()
        if fault < 0.15:
            node.failed = True
        elif fault < 0.3:
            node.battery_joules = node.consumed_joules = 1.0
        nodes.append(node)
    late = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
    survey_first = draw(st.booleans())
    return cell, nodes[:late + 1], nodes[late + 1:], survey_first


@PROFILE
@given(worlds())
def test_geometry_pass_matches_brute_force_in_random_worlds(world):
    """Every neighbour tuple equals the oracle's, both liveness modes,
    whether a flood's pass or single-node misses built the geometry,
    before and after nodes join mid-bucket."""
    cell, first, late, survey_first = world
    medium = medium_of(cell)
    for node in first:
        medium.add_node(node)

    def check(now):
        node_ids = medium.node_ids()
        if survey_first:
            medium.survey(now)
        for node_id in node_ids[::2]:
            medium.neighbors(node_id, now)  # misses: passes of one id
        medium.survey(now)  # a pass over the ids still missing
        for node_id in node_ids:
            for require_usable in (True, False):
                assert medium.neighbors(node_id, now, require_usable) == \
                    brute_neighbors(medium, node_id, require_usable)

    check(0.0)
    for node in late:
        medium.add_node(node)
    check(0.1)


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
    grid_hits = grid_within(grid, q, radius)
    assert grid_hits == brute_force_within_range(positions, q, radius)
    assert any(
        positions[item_id] == target for item_id in grid_hits
    )


@st.composite
def churn_ops(draw):
    """Interleaved insert/move/query traffic."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(0, 30),
                          finite, finite),
                st.tuples(st.just("move"), st.integers(0, 30),
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
        elif op == "query":
            q = Point(x, y)
            radius = abs(x) / 2.0 + 1.0
            assert grid_within(grid, q, radius) == \
                brute_force_within_range(oracle, q, radius)
    q = Point(0.0, 0.0)
    assert grid_within(grid, q, 600.0) == \
        brute_force_within_range(oracle, q, 600.0)
    assert len(grid.items()) == len(oracle)
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
