"""Unit tests for the K(d, k) digraph object."""

import random

import pytest

from repro.errors import KautzError
from repro.kautz.graph import KautzGraph, kautz_node_count
from repro.kautz.strings import KautzString


class TestCounts:
    @pytest.mark.parametrize(
        "d,k,n", [(2, 3, 12), (2, 2, 6), (3, 3, 36), (4, 4, 320), (1, 4, 2)]
    )
    def test_node_count_formula(self, d, k, n):
        assert kautz_node_count(d, k) == n
        assert KautzGraph(d, k).node_count == n

    def test_edge_count_formula(self):
        """``|E| = (d + 1) d^k`` (Lemma 3.1), counted over the labels'
        successors."""
        edges = sum(len(u.successors()) for u in KautzGraph(2, 3).nodes())
        assert edges == 24

    def test_enumeration_matches_count(self):
        g = KautzGraph(3, 3)
        assert len(list(g.nodes())) == g.node_count

    def test_enumeration_is_unique(self):
        g = KautzGraph(2, 4)
        nodes = list(g.nodes())
        assert len(set(nodes)) == len(nodes)

    def test_invalid_parameters(self):
        with pytest.raises(KautzError):
            KautzGraph(0, 3)
        with pytest.raises(KautzError):
            KautzGraph(2, 0)


def index_of(node):
    """The inverse of ``KautzGraph.node_at``: a label's rank among the
    labels of its graph, in lexicographic order."""
    index, prev = node.letters[0], node.letters[0]
    for letter in node.letters[1:]:
        index = index * node.degree + (letter if letter < prev else letter - 1)
        prev = letter
    return index


class TestIndexing:
    @pytest.mark.parametrize("d,k", [(2, 3), (3, 2), (4, 3), (1, 5)])
    def test_node_at_index_of_roundtrip(self, d, k):
        g = KautzGraph(d, k)
        for i in range(g.node_count):
            assert index_of(g.node_at(i)) == i

    def test_node_at_out_of_range(self):
        g = KautzGraph(2, 3)
        with pytest.raises(KautzError):
            g.node_at(12)
        with pytest.raises(KautzError):
            g.node_at(-1)


class TestAdjacency:
    def test_successor_edges_valid(self):
        g = KautzGraph(2, 3)
        for node in g.nodes():
            for succ in node.successors():
                assert succ in g
                assert succ.letters[:-1] == node.letters[1:]
                assert succ.last != node.last

    def test_has_edge_negative(self):
        a = KautzString.parse("012", 2)
        b = KautzString.parse("201", 2)
        assert b not in a.successors()

    def test_predecessors_are_inverse_of_successors(self):
        g = KautzGraph(2, 3)
        for node in g.nodes():
            for pred in node.predecessors():
                assert node in pred.successors()

    def test_in_degree_equals_out_degree_equals_d(self):
        g = KautzGraph(3, 2)
        for node in g.nodes():
            assert len(node.successors()) == 3
            assert len(node.predecessors()) == 3

    def test_total_edges(self):
        g = KautzGraph(3, 2)
        assert sum(len(u.successors()) for u in g.nodes()) == 4 * 3 ** 2

    def test_no_self_loops(self):
        g = KautzGraph(2, 2)
        for u in g.nodes():
            assert u not in u.successors()

    def test_membership(self):
        g = KautzGraph(2, 3)
        assert KautzString.parse("012", 2) in g
        assert KautzString.parse("01", 2) not in g
        assert KautzString.parse("012", 3) not in g


class TestGlobalMeasures:
    @pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_measured_diameter_equals_k(self, d, k):
        assert KautzGraph(d, k).measured_diameter() == k

    def test_bfs_distance_self(self):
        g = KautzGraph(2, 3)
        node = g.node_at(0)
        assert g.bfs_distance(node, node) == 0

    def test_bfs_distance_neighbor(self):
        g = KautzGraph(2, 3)
        node = g.node_at(0)
        succ = node.successors()[0]
        assert g.bfs_distance(node, succ) == 1

    def test_random_node_in_graph(self):
        g = KautzGraph(3, 3)
        rng = random.Random(5)
        for _ in range(50):
            assert g.random_node(rng) in g
