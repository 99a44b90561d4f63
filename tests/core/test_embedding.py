"""Tests for the Kautz graph embedding protocol (Section III-B)."""

import random

import pytest

from repro.core.embedding import (
    EmbeddingProtocol,
    connection_path,
    rotation_kids,
    sensor_bridge_endpoints,
)
from repro.core.system import ReferSystem
from repro.errors import EmbeddingError
from repro.kautz.strings import KautzString
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.sim.core import Simulator
from repro.util.rng import RngStreams
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes


def K(text, d=2):
    return KautzString.parse(text, d)


class TestKidMath:
    def test_rotation_kids(self):
        assert [str(k) for k in rotation_kids(2)] == ["012", "120", "201"]

    def test_rotation_kids_need_degree_2(self):
        with pytest.raises(EmbeddingError):
            rotation_kids(1)

    def test_paper_connection_paths(self):
        """The three K(2,3) actuator paths from Section III-B2."""
        assert [str(x) for x in connection_path(K("201"), K("012"))] == [
            "201", "010", "101", "012",
        ]
        assert [str(x) for x in connection_path(K("120"), K("201"))] == [
            "120", "202", "020", "201",
        ]
        assert [str(x) for x in connection_path(K("012"), K("120"))] == [
            "012", "121", "212", "120",
        ]

    def test_connection_path_is_valid_walk(self):
        path = connection_path(K("201"), K("012"))
        for a, b in zip(path, path[1:]):
            assert b in a.successors()

    def test_bridge_endpoints(self):
        s_i, s_j, last = sensor_bridge_endpoints(2)
        assert str(s_i) == "121"     # successor of smallest actuator KID
        assert str(s_j) == "020"     # predecessor of largest actuator KID
        assert str(last) == "021"

    def test_paper_bridge_path(self):
        s_i, s_j, _ = sensor_bridge_endpoints(2)
        assert [str(x) for x in connection_path(s_i, s_j)] == [
            "121", "210", "102", "020",
        ]


def scenario_build(seed, sensors, degree):
    """REFER built as ``run_scenario`` builds it for a 500 m scenario of
    ``seed``: ``(network, cells, embedding stats)``."""
    streams = RngStreams(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, streams.stream("mac"))
    plan = plan_deployment(sensors, 500.0, streams.stream("deployment"))
    build_nodes(
        network, plan, streams.stream("mobility"), sensor_max_speed=3.0
    )
    system = ReferSystem(
        network, plan, streams.stream("system"), degree=degree
    )
    system.build()
    return network, system.cells, system.embedding_stats


@pytest.fixture
def world():
    rng = random.Random(42)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(200, 500.0, rng)
    build_nodes(network, plan, rng, sensor_max_speed=0.0)
    return sim, network, plan, rng


class TestEmbeddingProtocol:
    def test_produces_complete_cells(self, world):
        sim, network, plan, rng = world
        cells = EmbeddingProtocol(network, plan, rng).run()
        assert len(cells) == 4
        assert all(cell.is_complete for cell in cells)

    def test_actuators_keep_one_kid_across_cells(self, world):
        sim, network, plan, rng = world
        cells = EmbeddingProtocol(network, plan, rng).run()
        for actuator in range(plan.actuator_count):
            kids = {
                str(cell.kid_of(actuator))
                for cell in cells
                if cell.holds(actuator)
            }
            assert len(kids) == 1

    def test_cell_actuator_kids_are_the_three_rotations(self, world):
        sim, network, plan, rng = world
        cells = EmbeddingProtocol(network, plan, rng).run()
        for cell in cells:
            assert {str(k) for k in cell.actuator_kids} == {
                "012", "120", "201",
            }

    def test_sensor_assigned_to_at_most_one_cell(self, world):
        sim, network, plan, rng = world
        cells = EmbeddingProtocol(network, plan, rng).run()
        seen = set()
        for cell in cells:
            for node_id in cell.sensor_member_ids:
                assert node_id not in seen
                seen.add(node_id)

    def test_embedded_links_are_physical_links(self):
        """Topology consistency, edge by edge: after a build that fell
        back nowhere, every Kautz edge on a construction path — the
        three rotation paths and the bridge — carries a frame in its
        forwarding direction (sender's range, at the build instant)."""
        paths = [
            connection_path(k, k.left_rotated()) for k in rotation_kids(2)
        ]
        paths.append(connection_path(*sensor_bridge_endpoints(2)[:2]))
        on_path = [(a, b) for path in paths for a, b in zip(path, path[1:])]
        checked = 0
        for sensors in (200, 800):
            for seed in (1, 2, 3):
                network, cells, stats = scenario_build(seed, sensors, 2)
                if stats.fallback_selections:
                    continue
                checked += 1
                medium, now = network.medium, network.sim.now
                for cell in cells:
                    for u, v in on_path:
                        assert medium.can_transmit(
                            cell.node_of(u), cell.node_of(v), now
                        ), (sensors, seed, cell.cid, str(u), str(v))
        assert checked == 6

    def test_higher_degree_breaks_no_more_edges_than_before(self):
        """K(3, 3) cells: the directed Kautz edges that cannot carry a
        frame at the build instant, summed over seeds 1-3, are no more
        than the embedding placed before every vertex off the two-hop
        paths was chosen by the edges it carries (141 + 164 + 181 at
        200 sensors, 4 + 5 + 7 at 800)."""
        before = {200: 141 + 164 + 181, 800: 4 + 5 + 7}
        for sensors, most in before.items():
            broken = 0
            for seed in (1, 2, 3):
                network, cells, _ = scenario_build(seed, sensors, 3)
                medium, now = network.medium, network.sim.now
                broken += sum(
                    not medium.can_transmit(
                        cell.node_of(kid), cell.node_of(succ), now
                    )
                    for cell in cells
                    for kid in cell.assigned_kids
                    for succ in kid.successors()
                )
            assert broken <= most, (sensors, broken)

    def test_charges_construction_energy(self, world):
        sim, network, plan, rng = world
        EmbeddingProtocol(network, plan, rng).run()
        assert network.energy.total(Phase.CONSTRUCTION) > 0
        assert network.energy.total(Phase.COMMUNICATION) == 0

    def test_stats_recorded(self, world):
        sim, network, plan, rng = world
        protocol = EmbeddingProtocol(network, plan, rng)
        protocol.run()
        assert protocol.stats.path_queries == 16   # 4 cells x (3 + 1)
        assert protocol.stats.starting_server in range(5)
        assert len(protocol.stats.actuator_colors) == 5

    def test_generic_fill_for_higher_degree(self, world):
        """Extension: K(3, 3) cells (36 vertices) also embed."""
        sim, network, plan, rng = world
        cells = EmbeddingProtocol(network, plan, rng, degree=3).run()
        assert all(cell.is_complete for cell in cells)
        assert all(cell.graph.node_count == 36 for cell in cells)
