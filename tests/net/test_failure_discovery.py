"""Tests for the crash-rotation fault schedule and flood discovery."""

import random

import pytest

from repro.baselines.datree import DaTreeSystem
from repro.baselines.ddear import DDearSystem
from repro.chaos import CrashRotationFault, FaultSpec
from repro.net.discovery import FloodDiscovery
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.sim.core import Simulator
from repro.util.geometry import Point
from repro.wsan.deployment import DeploymentPlan
from repro.wsan.system import build_nodes


def build_grid(side=4, spacing=70.0, seed=1):
    """A side x side grid of sensors with 100 m range."""
    sim = Simulator()
    net = WirelessNetwork(sim, random.Random(seed))
    for i in range(side):
        for j in range(side):
            net.add_node(
                Node(
                    i * side + j,
                    NodeRole.SENSOR,
                    StaticMobility(Point(i * spacing, j * spacing)),
                    100.0,
                )
            )
    return sim, net


class TestCrashRotation:
    def test_rotation(self):
        sim, net = build_grid()
        injector = CrashRotationFault(
            net,
            random.Random(5),
            FaultSpec(kind="rotation", count=3, period=10.0),
            net.medium.node_ids,
        )
        injector.start()
        sim.run_until(5.0)
        first = set(injector._fail_times)
        assert len(first) == 3
        assert all(not net.node(n).usable for n in first)
        sim.run_until(15.0)
        second = set(injector._fail_times)
        assert len(second) == 3
        # The previous round was recovered.
        for n in first - second:
            assert net.node(n).usable

    def test_schedule_draws_the_seed_rng_sequence(self):
        """Every round is one ``sample`` from the *full* population.

        The rotation recovers the whole previous set before sampling,
        so the currently-failed filter never shrinks the population:
        the draws are those of the seed's fault injector, which is
        what keeps the ``config.faults`` figures bit-exact.
        """
        sim, net = build_grid()
        model = CrashRotationFault(
            net,
            random.Random(99),
            FaultSpec(kind="rotation", count=4, period=10.0),
            net.medium.node_ids,
        )
        model.start()
        oracle = random.Random(99)
        for horizon in (5.0, 15.0, 25.0, 35.0):
            sim.run_until(horizon)
            expected = oracle.sample(list(net.medium.node_ids()), 4)
            assert sorted(set(model._fail_times)) == sorted(expected)
        model.stop()

    def test_stop_recovers(self):
        sim, net = build_grid()
        injector = CrashRotationFault(
            net,
            random.Random(1),
            FaultSpec(kind="rotation", count=2),
            net.medium.node_ids,
        )
        injector.start()
        sim.run_until(1.0)
        assert set(injector._fail_times)
        injector.stop()
        assert not set(injector._fail_times)
        assert all(net.node(n).usable for n in net.medium.node_ids())

    def test_stop_without_recover_leaves_nodes_failed(self):
        sim, net = build_grid()
        injector = CrashRotationFault(
            net,
            random.Random(1),
            FaultSpec(kind="rotation", count=2),
            net.medium.node_ids,
        )
        injector.start()
        sim.run_until(1.0)
        broken = set(injector._fail_times)
        assert broken
        injector.stop(recover=False)
        assert set(injector._fail_times) == broken
        assert all(not net.node(n).usable for n in broken)
        sim.run_until(20.0)   # and no later round resurrects them
        assert all(not net.node(n).usable for n in broken)

    def test_count_capped_by_population(self):
        sim, net = build_grid(side=2)
        injector = CrashRotationFault(
            net,
            random.Random(1),
            FaultSpec(kind="rotation", count=100),
            net.medium.node_ids,
        )
        injector.start()
        sim.run_until(1.0)
        assert len(set(injector._fail_times)) == 4

    def test_rounds_counter(self):
        sim, net = build_grid()
        injector = CrashRotationFault(
            net,
            random.Random(1),
            FaultSpec(kind="rotation", count=1, period=5.0),
            net.medium.node_ids,
        )
        injector.start()
        sim.run_until(16.0)
        assert injector.rounds == 4   # t = 0, 5, 10, 15


class TestFloodDiscovery:
    @pytest.mark.parametrize(
        "targets,nearest,hops",
        [
            pytest.param([15], 15, 3, id="one-target"),
            pytest.param([15, 5], 5, 1, id="hop-nearest"),
            pytest.param([15, 12, 3], 3, 3, id="equal-hops-lowest-id"),
        ],
    )
    def test_discover(self, targets, nearest, hops):
        sim, net = build_grid()
        paths = []
        FloodDiscovery(net).discover(0, targets, ttl=10, on_path=paths.append)
        sim.run_until(5.0)
        assert len(paths) == 1
        path = paths[0]
        assert path[0] == 0 and path[-1] == nearest
        assert len(path) == hops + 1
        for a, b in zip(path, path[1:]):
            assert net.medium.can_transmit(a, b, sim.now)

    def test_unreachable_returns_none(self):
        sim, net = build_grid()
        for nb in net.neighbors(15):
            net.fail_node(nb)
        paths = []
        discovery = FloodDiscovery(net)
        discovery.discover(0, [15], ttl=10, on_path=paths.append)
        sim.run_until(5.0)
        assert paths == [None]

    def test_ttl_too_small_returns_none(self):
        sim, net = build_grid()
        paths = []
        FloodDiscovery(net).discover(0, [15], ttl=2, on_path=paths.append)
        sim.run_until(5.0)
        assert paths == [None]

    def test_discovery_charges_energy(self):
        sim, net = build_grid()
        FloodDiscovery(net).discover(0, [15], ttl=10, on_path=lambda p: None)
        sim.run_until(5.0)
        assert net.energy.grand_total() > 0

    def test_extract_path_static(self):
        tree = {0: (0, None), 1: (1, 0), 2: (2, 1)}
        assert FloodDiscovery.extract_path(tree, 2) == [0, 1, 2]
        assert FloodDiscovery.extract_path(tree, 9) is None

    def test_query_counter(self):
        sim, net = build_grid()
        d = FloodDiscovery(net)
        d.discover(0, [1], ttl=3, on_path=lambda p: None)
        d.discover(0, [1, 2], ttl=3, on_path=lambda p: None)
        assert d.queries == 2


@pytest.mark.parametrize("mirrored", [False, True], ids=["0-west", "0-east"])
@pytest.mark.parametrize("system", ["DaTree", "D-DEAR"])
def test_equally_near_actuators_the_lower_id_wins(system, mirrored):
    """Sensor 3 sits midway on a line between actuators 0 and 1, two
    hops from each: DaTree's repair re-parents it toward actuator 0,
    and D-DEAR's discovery finds the path to actuator 0, whichever side
    actuator 0 is on."""
    actuators = [Point(0.0, 0.0), Point(280.0, 0.0)]
    if mirrored:
        actuators.reverse()
    plan = DeploymentPlan(
        area_side=300.0,
        actuator_positions=actuators,
        sensor_positions=[Point(70.0, 0.0), Point(140.0, 0.0),
                          Point(210.0, 0.0)],
        cells=[],
    )
    rng = random.Random(1)
    sim = Simulator()
    net = WirelessNetwork(sim, rng)
    build_nodes(net, plan, rng, sensor_max_speed=0.0)
    source = 3
    tree = net.flood(source, ttl=8, size_bytes=48)
    assert tree[0][0] == tree[1][0] == 2
    if system == "DaTree":
        datree = DaTreeSystem(net, plan, rng)
        datree._adopt_new_parents(source, tree)
        chain = [source]
        while not net.node(chain[-1]).is_actuator:
            chain.append(datree._parent[chain[-1]])
        assert chain[-1] == 0
    else:
        paths = []
        ddear = DDearSystem(net, plan, rng)
        ddear._discovery.discover(
            source, ddear.actuator_ids, ttl=8, on_path=paths.append
        )
        sim.run_until(5.0)
        assert paths[0][0] == source and paths[0][-1] == 0
