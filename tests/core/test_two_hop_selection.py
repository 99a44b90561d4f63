"""``EmbeddingProtocol._select_two_hop`` against the exhaustive scan.

The protocol picks the two-hop pair with the greatest key best-first,
asking the medium only about pairs whose bound can still win.  The
scan it replaced — every (s1, s2) pair asked, as the code stood before
the bound — lives on here as the oracle: same pair, same number of
``fallback_selections``, same state of the world's RNG afterwards, over
seeded random deployments that cover each regime the bound has to
handle (counted by ``test_the_draws_cover_every_regime``).  A last
test bounds the work, so an edit that quietly restores the scan fails
here and not only in the ledger.
"""

import collections
import random
from typing import List, Optional, Tuple

import pytest

from repro.core.embedding import EmbeddingProtocol
from repro.net.network import WirelessNetwork
from repro.sim.core import Simulator
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes


def exhaustive_select_two_hop(
    self, start_node: int, end_node: int, pool: List[int]
) -> Tuple[int, int]:
    """``_select_two_hop`` as it was before the bound, verbatim."""
    now = self.network.sim.now
    medium = self.network.medium
    start_side = [
        (
            s1,
            medium.node(s1).battery_fraction,
            medium.link_quality(start_node, s1, now),
        )
        for s1, _ in medium.reachable(start_node, pool, now)
    ]
    end_side = {
        s2: (
            medium.node(s2).battery_fraction,
            medium.link_quality(s2, end_node, now),
        )
        for s2, _ in medium.reachable(end_node, pool, now)
    }
    best: Optional[Tuple[float, float, int, int]] = None
    for s1, battery1, quality1 in start_side:
        others = [s2 for s2 in end_side if s2 != s1]
        for s2, _ in medium.reachable(s1, others, now):
            battery2, quality2 = end_side[s2]
            battery = battery1 + battery2
            quality = min(
                quality1, medium.link_quality(s1, s2, now), quality2
            )
            key = (battery, quality, -s1, -s2)
            if best is None or key > best:
                best = key
    if best is not None:
        return (-best[2], -best[3])
    # Fallback: geometric placement nearest the ideal relay points.
    self.stats.fallback_selections += 1
    return self._geometric_pair(start_node, end_node, pool)


BATTERIES = ("unmetered", "three-levels", "distinct")

World = collections.namedtuple("World", "sim network plan rng protocol")


def make_world(
    seed: int, sensors: int, side: float, speed: float, batteries: str
):
    """A deployment with its protocol, clock moved off zero when the
    sensors walk; the same arguments give the same world."""
    rng = random.Random(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(sensors, side, rng)
    build_nodes(
        network,
        plan,
        rng,
        sensor_max_speed=speed,
        battery_joules=None if batteries == "unmetered" else 100.0,
    )
    spent = random.Random(seed + 1)
    ids = [plan.actuator_count + j for j in range(sensors)]
    if batteries == "three-levels":     # many pairs tie on the sum
        for node_id in ids:
            network.node(node_id).drain(spent.choice((0.0, 25.0, 50.0)))
    elif batteries == "distinct":       # every run is one sensor
        levels = [90.0 * j / sensors for j in range(sensors)]
        spent.shuffle(levels)
        for node_id, joules in zip(ids, levels):
            network.node(node_id).drain(joules)
    if speed:
        sim.run_until(7.3)
    protocol = EmbeddingProtocol(network, plan, rng)
    return World(sim, network, plan, rng, protocol)


def endpoint_cases(world: World, picker: random.Random):
    """``(start, end, pool)`` triples: every actuator pair of every
    cell over the cell's pool (250 m radios; in a field of 570 m or
    more the quadrant actuators stand over 300 m apart, where every
    pair's quality is 0.0 and only the ids prune), then sensor
    endpoints (100 m radios) over all the sensors — a close pair, which
    puts the sensors between them on both sides, and the two sensors
    farthest apart, which no two-hop path joins in the larger fields.
    """
    _, network, plan, _, protocol = world
    cases = []
    for cell_spec in plan.cells:
        pool = protocol._cell_pool(cell_spec)
        a, b, c = cell_spec.actuator_indices
        for start, end in ((a, b), (b, c), (c, a)):
            cases.append((start, end, list(pool)))
    now = network.sim.now
    sensors = [plan.actuator_count + j for j in range(plan.sensor_count)]
    at = {s: network.node(s).position(now) for s in sensors}
    ends = []
    for _ in range(2):
        start = picker.choice(sensors)
        near = sorted(sensors, key=lambda s: at[s].distance_to(at[start]))
        ends.append((start, near[min(len(near) - 1, picker.randint(1, 12))]))
    ends.append((
        min(sensors, key=lambda s: at[s].x + at[s].y),
        max(sensors, key=lambda s: at[s].x + at[s].y),
    ))
    for start, end in ends:
        cases.append(
            (start, end, [s for s in sensors if s not in (start, end)])
        )
    return cases


def draw_world(seed: int):
    """The deployment seed ``seed`` draws: 60–800 sensors on 300–800 m,
    static or 3 m/s, each battery model in turn.  The dense small
    fields are the expensive ones for the oracle, so they get fewer
    sensors."""
    draw = random.Random(seed)
    side = draw.choice((300.0, 400.0, 500.0, 650.0, 800.0))
    most = {300.0: 250, 400.0: 400}.get(side, 800)
    return (
        draw.randint(60, most),
        side,
        draw.choice((0.0, 3.0)),
        BATTERIES[seed % 3],
    )


SEEDS = range(30)


@pytest.mark.parametrize("seed", SEEDS)
def test_same_pair_as_the_exhaustive_scan(seed):
    drawn = draw_world(seed)
    old, new = make_world(seed, *drawn), make_world(seed, *drawn)
    cases = endpoint_cases(old, random.Random(seed))
    assert cases == endpoint_cases(new, random.Random(seed))
    for step, (start, end, pool) in enumerate(cases):
        if old.sim.now and step % 3 == 0:
            # Fresh positions: the next selection makes first reads.
            for sim in (old.sim, new.sim):
                sim.run_until(sim.now + 0.7)
        expected = exhaustive_select_two_hop(
            old.protocol, start, end, list(pool)
        )
        got = new.protocol._select_two_hop(start, end, list(pool))
        context = (seed, drawn, start, end)
        assert got == expected, context
        assert (
            new.protocol.stats.fallback_selections
            == old.protocol.stats.fallback_selections
        ), context
        assert new.rng.getstate() == old.rng.getstate(), context


def regimes_of(world, start, end, pool, chosen) -> List[str]:
    """Which of the bound's regimes one selection exercised."""
    medium, now = world.network.medium, world.sim.now
    from_start = {s for s, _ in medium.reachable(start, pool, now)}
    from_end = {s for s, _ in medium.reachable(end, pool, now)}
    found = ["shared-sensor"] if from_start & from_end else []
    s1, s2 = chosen
    if not (
        s1 in from_start
        and s2 in from_end
        and medium.can_transmit(s1, s2, now)
    ):
        found.append("fallback")        # no pair reachable
    elif 0.0 == min(
        medium.link_quality(start, s1, now),
        medium.link_quality(s1, s2, now),
        medium.link_quality(s2, end, now),
    ):
        found.append("zero-margin")     # the id tie-break alone prunes
    else:
        found.append("quality")         # the ordinary case
    if len({medium.node(s).battery_fraction for s in from_end}) > 1:
        found.append("several-runs")
    return found


def test_the_draws_cover_every_regime():
    """The oracle comparison means little over cases that all look
    alike: count what the same draws exercise."""
    seen = collections.Counter()
    for seed in SEEDS:
        world = make_world(seed, *draw_world(seed))
        for start, end, pool in endpoint_cases(world, random.Random(seed)):
            chosen = world.protocol._select_two_hop(start, end, list(pool))
            seen.update(regimes_of(world, start, end, pool, chosen))
    for regime in (
        "fallback", "zero-margin", "quality", "shared-sensor", "several-runs"
    ):
        assert seen[regime] >= 20, seen


@pytest.mark.parametrize("side, share", [(500.0, 0.10), (800.0, 0.30)])
def test_the_pair_walk_asks_about_a_fraction_of_the_pairs(
    monkeypatch, side, share
):
    """How much of |start side| x |end side| the medium is asked about
    while 800 sensors are embedded.  On 500 m (``refer_build``'s field)
    quality prunes: 4 % measured, a tenth allowed.  On 800 m the
    quadrant actuators stand 400 m apart, every pair between them has
    quality 0.0 and only the ids in the bound prune: 11 % measured
    (98 % with a quality-only bound), three tenths allowed."""
    world = make_world(1000, 800, side, 0.0, "unmetered")
    medium, protocol = world.network.medium, world.protocol
    reachable, select = medium.reachable, protocol._select_two_hop
    selections = []     # per selection: the size of each reachable call
    calls = None        # the open selection's entry, None outside one

    def counting_reachable(src_id, dst_ids, now):
        out = reachable(src_id, dst_ids, now)
        if calls is not None:
            # The first two calls are the side scans; the rest walk.
            calls.append(len(out) if len(calls) < 2 else len(dst_ids))
        return out

    def counting_select(start_node, end_node, pool):
        nonlocal calls
        calls = []
        selections.append(calls)
        try:
            return select(start_node, end_node, pool)
        finally:
            calls = None

    monkeypatch.setattr(medium, "reachable", counting_reachable)
    monkeypatch.setattr(protocol, "_select_two_hop", counting_select)
    assert all(cell.is_complete for cell in protocol.run())
    pairs = sum(sizes[0] * sizes[1] for sizes in selections)
    asked = sum(sum(sizes[2:]) for sizes in selections)
    assert len(selections) == 16 and pairs > 100_000
    assert asked <= share * pairs, (asked, pairs)
