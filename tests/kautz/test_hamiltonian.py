"""Tests for Hamiltonian cycle construction in Kautz graphs."""

import pytest

from repro.kautz.graph import KautzGraph
from repro.kautz.hamiltonian import (
    eulerian_circuit,
    hamiltonian_cycle,
    is_hamiltonian_cycle,
)


class TestEulerianCircuit:
    @pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (2, 3)])
    def test_circuit_uses_every_edge_once(self, d, k):
        g = KautzGraph(d, k)
        circuit = eulerian_circuit(g)
        assert len(circuit) == g.node_count * g.degree + 1
        assert circuit[0] == circuit[-1]
        edges = list(zip(circuit, circuit[1:]))
        assert len(set(edges)) == g.node_count * g.degree
        for a, b in edges:
            assert b in a.successors()


class TestHamiltonianCycle:
    @pytest.mark.parametrize("d,k", [(1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_cycle_is_hamiltonian(self, d, k):
        g = KautzGraph(d, k)
        cycle = hamiltonian_cycle(g)
        assert is_hamiltonian_cycle(g, cycle)

    def test_k23_cell_cycle_length(self):
        # The paper's K(2,3) cell has 12 nodes; the embedding needs a
        # 12-cycle through them.
        g = KautzGraph(2, 3)
        cycle = hamiltonian_cycle(g)
        assert len(cycle) == 13


class TestVerifier:
    def test_rejects_short_sequence(self):
        g = KautzGraph(2, 2)
        cycle = hamiltonian_cycle(g)
        assert not is_hamiltonian_cycle(g, cycle[:-2] + [cycle[0]])

    def test_rejects_open_walk(self):
        g = KautzGraph(2, 2)
        cycle = hamiltonian_cycle(g)
        broken = list(cycle)
        broken[-1] = cycle[1]
        assert not is_hamiltonian_cycle(g, broken)

    def test_rejects_repeated_vertex(self):
        g = KautzGraph(2, 2)
        cycle = hamiltonian_cycle(g)
        repeated = [cycle[0]] + cycle[:-1]
        assert not is_hamiltonian_cycle(g, repeated)
