"""Tests for Theorem 3.8: the d disjoint paths and their lengths.

This file is the empirical proof that the reproduction implements the
paper's central theorem correctly, including the Figure 2 examples and
exhaustive verification against the real digraph.
"""

import itertools

import pytest

from repro.errors import KautzError
from repro.kautz.disjoint import (
    PathCase,
    _canonical_completion,
    disjoint_paths,
    predicted_length_accuracy,
    successor_table,
    verify_node_disjoint,
)
from repro.kautz.graph import KautzGraph
from repro.kautz.namespace import kautz_distance, overlap
from repro.kautz.strings import KautzString


def K(text, d):
    return KautzString.parse(text, d)


class TestPaperFigure2a:
    """K(4,4), U=0123, V=2301: the paper's worked example."""

    U = K("0123", 4)
    V = K("2301", 4)

    def test_overlap_is_two(self):
        assert overlap(self.U, self.V) == 2

    def test_successor_cases(self):
        rows = {str(r.successor): r for r in successor_table(self.U, self.V)}
        assert rows["1230"].case is PathCase.SHORTEST
        assert rows["1230"].predicted_length == 2     # k - l = 4 - 2
        assert rows["1232"].case is PathCase.VIA_V1
        assert rows["1232"].predicted_length == 4     # k
        assert rows["1234"].case is PathCase.OTHER
        assert rows["1234"].predicted_length == 5     # k + 1
        assert rows["1231"].case is PathCase.CONFLICT
        assert rows["1231"].predicted_length == 6     # k + 2

    def test_table_sorted_by_length(self):
        lengths = [r.predicted_length for r in successor_table(self.U, self.V)]
        assert lengths == sorted(lengths)

    def test_conflict_node_forwards_to_2310(self):
        # Proposition 3.7: 1231 must forward to 2310.
        paths = disjoint_paths(self.U, self.V)
        conflict_path = next(p for p in paths if str(p[1]) == "1231")
        assert str(conflict_path[2]) == "2310"

    def test_four_disjoint_paths(self):
        paths = disjoint_paths(self.U, self.V)
        assert len(paths) == 4
        assert verify_node_disjoint(paths)

    def test_realised_lengths_match_theorem(self):
        for row, actual in predicted_length_accuracy(self.U, self.V):
            assert actual == row.predicted_length

    def test_paths_are_simple_kautz_walks(self):
        g = KautzGraph(4, 4)
        for path in disjoint_paths(self.U, self.V):
            assert (path[0], path[-1]) == (self.U, self.V)
            assert len(set(path)) == len(path)
            assert all(b in a.successors() for a, b in zip(path, path[1:]))


class TestPaperFigure2b:
    """K(4,4), U=0123, V1=2311...: the pair with u_{k-l} == v_{l+1}.

    The paper's Figure 2(b) uses V1 with v_3 = 1 = u_2 so that the
    condition u_{k-l} != v_{l+1} fails and no conflict path exists.
    """

    U = K("0123", 4)
    V = K("2314", 4)   # l = 2; v_{l+1} = v_3 = 1 = u_{k-l} = u_2

    def test_condition_fails(self):
        l = overlap(self.U, self.V)
        assert l == 2
        assert self.U.letters[4 - l - 1] == self.V.letters[l] == 1

    def test_no_conflict_case(self):
        cases = {r.case for r in successor_table(self.U, self.V)}
        assert PathCase.CONFLICT not in cases

    def test_in_digit_partition(self):
        # With no conflict, one shortest + maybe via_v1 + rest length k+1.
        rows = successor_table(self.U, self.V)
        shortest = [r for r in rows if r.case is PathCase.SHORTEST]
        assert len(shortest) == 1
        assert shortest[0].predicted_length == 2

    def test_paths_disjoint(self):
        paths = disjoint_paths(self.U, self.V)
        assert len(paths) == 4
        assert verify_node_disjoint(paths)


class TestFigure1Example:
    """The K(2,3) cell of Figure 1: node 102 routes to 201 avoiding 020."""

    def test_alternative_next_hop_is_021(self):
        u, v = K("102", 2), K("201", 2)
        ranked = [
            row.successor
            for row in successor_table(u, v)
            if row.successor != K("020", 2)
        ]
        assert str(ranked[0]) == "021"


class TestSuccessorTableStructure:
    @pytest.mark.parametrize("d,k", [(2, 3), (3, 3), (4, 2), (2, 4)])
    def test_table_has_d_rows_covering_all_successors(self, d, k):
        g = KautzGraph(d, k)
        nodes = list(g.nodes())
        for u, v in itertools.islice(
            ((a, b) for a in nodes for b in nodes if a != b), 300
        ):
            rows = successor_table(u, v)
            assert len(rows) == d
            assert {r.successor for r in rows} == set(u.successors())

    def test_exactly_one_shortest_row(self):
        g = KautzGraph(3, 3)
        nodes = list(g.nodes())
        for u, v in itertools.islice(
            ((a, b) for a in nodes for b in nodes if a != b), 300
        ):
            shortest = [
                r for r in successor_table(u, v)
                if r.case is PathCase.SHORTEST
            ]
            assert len(shortest) == 1
            assert shortest[0].predicted_length == kautz_distance(u, v)

    def test_self_pair_raises(self):
        u = K("012", 2)
        with pytest.raises(KautzError):
            successor_table(u, u)

    def test_incompatible_pair_raises(self):
        with pytest.raises(KautzError):
            successor_table(K("012", 2), K("012", 3))

    def test_at_most_one_conflict_row(self):
        g = KautzGraph(4, 3)
        nodes = list(g.nodes())
        for u, v in itertools.islice(
            ((a, b) for a in nodes for b in nodes if a != b), 500
        ):
            conflicts = [
                r for r in successor_table(u, v)
                if r.case is PathCase.CONFLICT
            ]
            assert len(conflicts) <= 1


class TestDisjointPathsExhaustive:
    """The theorem's existence claim: d node-disjoint paths for all pairs."""

    @pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_all_pairs_have_d_disjoint_paths(self, d, k):
        g = KautzGraph(d, k)
        nodes = list(g.nodes())
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                paths = disjoint_paths(u, v)
                assert len(paths) == d
                assert verify_node_disjoint(paths)

    @pytest.mark.parametrize("d,k", [(2, 3), (3, 3)])
    def test_paths_are_real_walks(self, d, k):
        g = KautzGraph(d, k)
        nodes = list(g.nodes())
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                for path in disjoint_paths(u, v):
                    for a, b in zip(path, path[1:]):
                        assert b in a.successors()

    def test_shortest_path_is_first(self):
        g = KautzGraph(3, 3)
        nodes = list(g.nodes())
        for u, v in itertools.islice(
            ((a, b) for a in nodes for b in nodes if a != b), 200
        ):
            paths = disjoint_paths(u, v)
            assert len(paths[0]) - 1 == kautz_distance(u, v)


class TestPredictedLengths:
    """Theorem 3.8 length predictions, with the documented deviation.

    Across all pairs the realised disjoint-path length equals the
    predicted one except for pairs with very large overlap (2l >= k),
    where a canonical completion would revisit U and the disjoint
    realisation shifts a case-(3) path to k + 2 (and, symmetrically,
    can shorten a case-(4) path to k - 1).  DESIGN.md "Theorem 3.8
    corner cases" documents this.
    """

    @pytest.mark.parametrize("d,k", [(2, 3), (3, 3), (4, 3), (2, 4)])
    def test_lengths_match_or_are_documented_deviation(self, d, k):
        g = KautzGraph(d, k)
        nodes = list(g.nodes())
        mismatch_rows = 0
        total_rows = 0
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                for row, actual in predicted_length_accuracy(u, v):
                    total_rows += 1
                    if actual == row.predicted_length:
                        continue
                    mismatch_rows += 1
                    # Every deviation is the documented one:
                    assert row.case in (PathCase.VIA_V1, PathCase.OTHER)
                    assert 2 * overlap(u, v) >= k
                    assert abs(actual - row.predicted_length) == 2
        # Deviations are rare (<= 4% of rows even in the smallest graphs;
        # measured: 2.3% in K(2,3), 3.3% in K(2,4), 0.5% in K(3,3)).
        assert mismatch_rows <= 0.04 * total_rows

    def test_non_shortest_paths_longer_than_shortest(self):
        g = KautzGraph(3, 3)
        nodes = list(g.nodes())
        for u, v in itertools.islice(
            ((a, b) for a in nodes for b in nodes if a != b), 300
        ):
            paths = disjoint_paths(u, v)
            shortest = len(paths[0])
            assert all(len(p) >= shortest for p in paths)


class TestDegenerateLabels:
    """The module-docstring degenerate cases and the BFS fallback.

    Each case gets a concrete pair exercising it, and the fallback gets
    a sweep proving that every pair whose canonical completion is an
    invalid Kautz walk still realises d node-disjoint paths.
    """

    def test_zero_overlap_has_no_conflict_and_one_shortest(self):
        # l == 0: cases (2)/(3) coincide and u_{k-l} == u_k is not a
        # legal out-digit — one length-k entry, d-1 length-(k+1) entries.
        u, v = K("010", 2), K("121", 2)
        assert overlap(u, v) == 0
        rows = successor_table(u, v)
        assert [r.case for r in rows] == [PathCase.SHORTEST, PathCase.OTHER]
        assert [r.predicted_length for r in rows] == [3, 4]
        paths = disjoint_paths(u, v)
        assert len(paths) == 2
        assert verify_node_disjoint(paths)

    def test_conflict_digit_equal_last_letter_emits_no_conflict_row(self):
        # u_{k-l} == u_k: the conflict successor would repeat the last
        # letter, so no case-(1) entry exists.
        u, v = K("121", 2), K("212", 2)
        l = overlap(u, v)
        assert l == 2
        assert u.letters[3 - l - 1] == u.letters[2]
        cases = [r.case for r in successor_table(u, v)]
        assert PathCase.CONFLICT not in cases
        paths = disjoint_paths(u, v)
        assert len(paths) == 2
        assert verify_node_disjoint(paths)

    def test_v1_equal_shortest_digit_merges_cases_two_and_three(self):
        # v_1 == v_{l+1} with l >= 1: cases (2) and (3) coincide — the
        # shortest classification wins and no via_v1 row appears.
        u, v = K("210", 2), K("101", 2)
        l = overlap(u, v)
        assert l == 2
        assert v.letters[0] == v.letters[l]
        cases = [r.case for r in successor_table(u, v)]
        assert PathCase.VIA_V1 not in cases
        assert PathCase.SHORTEST in cases
        paths = disjoint_paths(u, v)
        assert len(paths) == 2
        assert verify_node_disjoint(paths)

    @pytest.mark.parametrize("d,k", [(2, 3), (2, 4), (3, 3)])
    def test_bfs_fallback_pairs_still_yield_disjoint_paths(self, d, k):
        # Sweep every pair whose canonical completion is invalid (the
        # only situation where the bounded BFS takes over) and check
        # the realised paths are still d, node-disjoint and real walks.
        g = KautzGraph(d, k)
        nodes = list(g.nodes())
        fallback_pairs = 0
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                if all(
                    _canonical_completion(u, v, row) is not None
                    for row in successor_table(u, v)
                ):
                    continue
                fallback_pairs += 1
                paths = disjoint_paths(u, v)
                assert len(paths) == d
                assert verify_node_disjoint(paths)
                for path in paths:
                    for a, b in zip(path, path[1:]):
                        assert b in a.successors()
        # The degenerate pattern must actually occur, or this test
        # exercises nothing.
        assert fallback_pairs > 0

    def test_known_fallback_pair_routes_through_bfs(self):
        # K(2,3) U=012 V=121: the canonical completion through 120 is
        # an invalid walk, so its path must come from the BFS fallback
        # — and still start at U through that successor.
        u, v = K("012", 2), K("121", 2)
        bad_rows = [
            row
            for row in successor_table(u, v)
            if _canonical_completion(u, v, row) is None
        ]
        assert any(str(row.successor) == "120" for row in bad_rows)
        paths = disjoint_paths(u, v)
        assert verify_node_disjoint(paths)
        via = {str(p[1]) for p in paths}
        assert via == {str(r.successor) for r in successor_table(u, v)}
