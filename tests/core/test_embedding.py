"""Tests for the Kautz graph embedding protocol (Section III-B)."""

import random

import pytest

from repro.core.embedding import (
    EmbeddingProtocol,
    connection_path,
    rotation_kids,
    sensor_bridge_endpoints,
)
from repro.errors import EmbeddingError
from repro.kautz.strings import KautzString
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.sim.core import Simulator
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

    def test_embedded_links_are_physical_links(self, world):
        """Topology consistency: most Kautz edges are radio links."""
        sim, network, plan, rng = world
        cells = EmbeddingProtocol(network, plan, rng).run()
        total, live = 0, 0
        for cell in cells:
            for kid in cell.assigned_kids:
                for nb in cell.kautz_neighbors_of(kid):
                    if not cell.kid_assigned(nb):
                        continue
                    total += 1
                    if network.medium.can_transmit(
                        cell.node_of(kid), cell.node_of(nb), sim.now
                    ):
                        live += 1
        assert live / total > 0.9

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
