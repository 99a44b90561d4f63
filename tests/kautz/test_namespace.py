"""Tests for the L(U, V) overlap metric and Kautz distance."""

import pytest
from hypothesis import given

from repro.errors import KautzError
from repro.kautz.graph import KautzGraph
from repro.kautz.namespace import kautz_distance, overlap, shortest_path
from repro.kautz.strings import KautzString

from tests.kautz.test_strings import kautz_strings


def K(text, d=2):
    return KautzString.parse(text, d)


class TestOverlap:
    def test_paper_example_120_201(self):
        # Section III-B: distance between 120 and 201 is 3 - 2 = 1.
        assert overlap(K("120"), K("201")) == 2
        assert kautz_distance(K("120"), K("201")) == 1

    def test_self_overlap_is_k(self):
        assert overlap(K("120"), K("120")) == 3
        assert kautz_distance(K("120"), K("120")) == 0

    def test_zero_overlap(self):
        assert overlap(K("010"), K("121")) == 0
        assert kautz_distance(K("010"), K("121")) == 3

    def test_overlap_length_one(self):
        assert overlap(K("012"), K("201")) == 1

    def test_incompatible_strings_raise(self):
        with pytest.raises(KautzError):
            overlap(K("01", 2), K("012", 2))
        with pytest.raises(KautzError):
            overlap(K("012", 2), K("012", 3))

    def test_overlap_is_maximal(self):
        # 1212 vs 2121: suffixes 212, 21... longest suffix=prefix is 3.
        u = KautzString((1, 2, 1, 2), 2)
        v = KautzString((2, 1, 2, 1), 2)
        assert overlap(u, v) == 3

    @given(kautz_strings(max_degree=3, max_k=4))
    def test_overlap_self_property(self, s):
        assert overlap(s, s) == s.k


class TestDistanceAgainstBfs:
    """k - L(U, V) must equal the true hop distance in the digraph."""

    @pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2)])
    def test_distance_matches_bfs_exhaustively(self, d, k):
        g = KautzGraph(d, k)
        nodes = list(g.nodes())
        for u in nodes:
            for v in nodes:
                assert kautz_distance(u, v) == g.bfs_distance(u, v), (u, v)

    def test_distance_bounded_by_diameter(self):
        g = KautzGraph(3, 3)
        nodes = list(g.nodes())
        for u in nodes[:10]:
            for v in nodes:
                assert kautz_distance(u, v) <= 3


class TestShortestPath:
    def test_paper_example_shift_sequence(self):
        # Paper: 12345 -> 23450 -> 34501 in a degree-5 alphabet.
        u = KautzString((1, 2, 3, 4, 5), 5)
        v = KautzString((3, 4, 5, 0, 1), 5)
        path = shortest_path(u, v)
        assert [str(p) for p in path] == ["12345", "23450", "34501"]

    def test_path_endpoints(self):
        u, v = K("012"), K("201")
        path = shortest_path(u, v)
        assert path[0] == u
        assert path[-1] == v

    def test_path_length_is_distance(self):
        u, v = K("012"), K("201")
        assert len(shortest_path(u, v)) - 1 == kautz_distance(u, v)

    def test_path_edges_are_graph_edges(self):
        g = KautzGraph(2, 3)
        for u in g.nodes():
            for v in g.nodes():
                path = shortest_path(u, v)
                for a, b in zip(path, path[1:]):
                    assert b in a.successors()

    def test_trivial_path(self):
        u = K("012")
        assert shortest_path(u, u) == [u]

    @given(kautz_strings(max_degree=3, max_k=4))
    def test_path_to_random_destination_is_valid(self, s):
        # route from s to its reversal-ish partner: use shifted variants
        for succ in s.successors():
            path = shortest_path(s, succ)
            assert len(path) == 2
