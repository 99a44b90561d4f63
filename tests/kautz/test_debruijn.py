"""Tests for the de Bruijn comparison graph (Proposition 3.1)."""

import pytest

from repro.errors import KautzError
from repro.kautz.debruijn import DeBruijnGraph, smallest_debruijn_for
from repro.kautz.graph import KautzGraph, kautz_node_count


class TestStructure:
    def test_counts(self):
        g = DeBruijnGraph(2, 3)
        assert g.node_count == 8
        assert g.edge_count == 16
        assert len(list(g.nodes())) == 8

    def test_successors_include_self_loops(self):
        g = DeBruijnGraph(2, 2)
        assert (0, 0) in g.successors((0, 0))   # de Bruijn has loops

    def test_predecessor_successor_inverse(self):
        g = DeBruijnGraph(3, 2)
        for node in g.nodes():
            for succ in g.successors(node):
                assert node in g.predecessors(succ)

    def test_invalid_parameters(self):
        with pytest.raises(KautzError):
            DeBruijnGraph(0, 2)


class TestDistanceAndDiameter:
    @pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2)])
    def test_measured_diameter_equals_k(self, d, k):
        assert DeBruijnGraph(d, k).measured_diameter() == k

    def test_distance_formula_matches_bfs(self):
        g = DeBruijnGraph(2, 3)
        from collections import deque

        for u in g.nodes():
            dist = {u: 0}
            queue = deque([u])
            while queue:
                cur = queue.popleft()
                for succ in g.successors(cur):
                    if succ not in dist:
                        dist[succ] = dist[cur] + 1
                        queue.append(succ)
            for v in g.nodes():
                assert g.distance(u, v) == dist[v], (u, v)


class TestProposition31Measured:
    """Kautz fits more nodes than de Bruijn at the same (d, k) —
    measured on the real graphs, not just the formulas."""

    @pytest.mark.parametrize("d,k", [(2, 3), (3, 3), (4, 2)])
    def test_kautz_denser_at_same_diameter(self, d, k):
        kautz = KautzGraph(d, k)
        debruijn = DeBruijnGraph(d, k)
        assert kautz.measured_diameter() == debruijn.measured_diameter() == k
        assert kautz.node_count > debruijn.node_count

    def test_smallest_debruijn_for(self):
        assert smallest_debruijn_for(100, 2) == 7    # 2^7 = 128
        assert smallest_debruijn_for(8, 2) == 3
        with pytest.raises(KautzError):
            smallest_debruijn_for(0, 2)

    def test_kautz_needs_no_more_diameter(self):
        from repro.kautz.analysis import kautz_diameter_for

        for n in (50, 100, 400):
            for d in (2, 3, 4):
                assert kautz_diameter_for(n, d) <= smallest_debruijn_for(n, d)
