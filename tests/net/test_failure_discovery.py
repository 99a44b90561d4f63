"""Tests for the crash-rotation fault schedule and flood discovery."""

import random

from repro.chaos.models import CrashRotationFault
from repro.net.discovery import FloodDiscovery
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.sim.core import Simulator
from repro.util.geometry import Point


def build_grid(side=4, spacing=70.0, seed=1):
    """A side x side grid of sensors with 100 m range."""
    from repro.net.mac import MacConfig

    sim = Simulator()
    net = WirelessNetwork(
        sim,
        random.Random(seed),
        mac_config=MacConfig(base_loss=0.0, contention_loss=0.0),
    )
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
            count=lambda: 3,
            eligible=lambda: net.medium.node_ids(),
            period=10.0,
        )
        injector.start()
        sim.run_until(5.0)
        first = injector.faulty_nodes
        assert len(first) == 3
        assert all(not net.node(n).usable for n in first)
        sim.run_until(15.0)
        second = injector.faulty_nodes
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
            count=lambda: 4,
            eligible=lambda: net.medium.node_ids(),
            period=10.0,
        )
        model.start()
        oracle = random.Random(99)
        for horizon in (5.0, 15.0, 25.0, 35.0):
            sim.run_until(horizon)
            expected = oracle.sample(list(net.medium.node_ids()), 4)
            assert sorted(model.faulty_nodes) == sorted(expected)
        model.stop()

    def test_stop_recovers(self):
        sim, net = build_grid()
        injector = CrashRotationFault(
            net, random.Random(1),
            count=lambda: 2,
            eligible=lambda: net.medium.node_ids(),
        )
        injector.start()
        sim.run_until(1.0)
        assert injector.faulty_nodes
        injector.stop()
        assert not injector.faulty_nodes
        assert all(net.node(n).usable for n in net.medium.node_ids())

    def test_stop_without_recover_leaves_nodes_failed(self):
        sim, net = build_grid()
        injector = CrashRotationFault(
            net, random.Random(1),
            count=lambda: 2,
            eligible=lambda: net.medium.node_ids(),
        )
        injector.start()
        sim.run_until(1.0)
        broken = injector.faulty_nodes
        assert broken
        injector.stop(recover=False)
        assert injector.faulty_nodes == broken
        assert all(not net.node(n).usable for n in broken)
        sim.run_until(20.0)   # and no later round resurrects them
        assert all(not net.node(n).usable for n in broken)

    def test_count_capped_by_population(self):
        sim, net = build_grid(side=2)
        injector = CrashRotationFault(
            net, random.Random(1),
            count=lambda: 100,
            eligible=lambda: net.medium.node_ids(),
        )
        injector.start()
        sim.run_until(1.0)
        assert len(injector.faulty_nodes) == 4

    def test_rounds_counter(self):
        sim, net = build_grid()
        injector = CrashRotationFault(
            net, random.Random(1),
            count=lambda: 1,
            eligible=lambda: net.medium.node_ids(),
            period=5.0,
        )
        injector.start()
        sim.run_until(16.0)
        assert injector.rounds == 4   # t = 0, 5, 10, 15


class TestFloodDiscovery:
    def test_discover_path(self):
        sim, net = build_grid()
        discovery = FloodDiscovery(net)
        paths = []
        discovery.discover_path(0, 15, ttl=10, on_path=paths.append)
        sim.run_until(5.0)
        assert len(paths) == 1
        path = paths[0]
        assert path[0] == 0 and path[-1] == 15
        for a, b in zip(path, path[1:]):
            assert net.medium.can_transmit(a, b, sim.now)

    def test_unreachable_returns_none(self):
        sim, net = build_grid()
        for nb in net.neighbors(15):
            net.fail_node(nb)
        paths = []
        discovery = FloodDiscovery(net)
        discovery.discover_path(0, 15, ttl=10, on_path=paths.append)
        sim.run_until(5.0)
        assert paths == [None]

    def test_ttl_too_small_returns_none(self):
        sim, net = build_grid()
        paths = []
        FloodDiscovery(net).discover_path(0, 15, ttl=2, on_path=paths.append)
        sim.run_until(5.0)
        assert paths == [None]

    def test_discover_nearest(self):
        sim, net = build_grid()
        paths = []
        FloodDiscovery(net).discover_nearest(
            0, targets=[15, 5], ttl=10, on_path=paths.append
        )
        sim.run_until(5.0)
        assert paths[0][-1] == 5   # 5 is closer in hops than 15

    def test_discovery_charges_energy(self):
        sim, net = build_grid()
        FloodDiscovery(net).discover_path(0, 15, ttl=10, on_path=lambda p: None)
        sim.run_until(5.0)
        assert net.energy.grand_total() > 0

    def test_extract_path_static(self):
        tree = {0: (0, None), 1: (1, 0), 2: (2, 1)}
        assert FloodDiscovery.extract_path(tree, 2) == [0, 1, 2]
        assert FloodDiscovery.extract_path(tree, 9) is None

    def test_query_counter(self):
        sim, net = build_grid()
        d = FloodDiscovery(net)
        d.discover_path(0, 1, ttl=3, on_path=lambda p: None)
        d.discover_nearest(0, [1], ttl=3, on_path=lambda p: None)
        assert d.queries == 2
