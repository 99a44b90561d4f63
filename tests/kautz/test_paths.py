"""Tests for simple-path enumeration."""

import pytest

from repro.errors import KautzError
from repro.kautz.disjoint import disjoint_paths
from repro.kautz.namespace import kautz_distance
from repro.kautz.paths import (
    count_simple_paths,
    longest_simple_path,
    simple_paths,
)
from repro.kautz.strings import KautzString


def K(text, d=2):
    return KautzString.parse(text, d)


class TestSimplePaths:
    def test_paths_are_simple_and_valid(self):
        for path in simple_paths(K("012"), K("201"), max_length=6):
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert b in a.successors()
            assert path[0] == K("012") and path[-1] == K("201")

    def test_shortest_path_included(self):
        u, v = K("012"), K("201")
        lengths = [
            len(p) - 1 for p in simple_paths(u, v, max_length=6)
        ]
        assert min(lengths) == kautz_distance(u, v)

    def test_trivial_pair(self):
        u = K("012")
        paths = list(simple_paths(u, u, max_length=3))
        assert paths == [[u]]

    def test_max_length_zero(self):
        assert list(simple_paths(K("012"), K("201"), 0)) == []

    def test_incompatible_rejected(self):
        with pytest.raises(KautzError):
            list(simple_paths(K("012", 2), K("012", 3), 3))
        with pytest.raises(KautzError):
            list(simple_paths(K("012"), K("201"), -1))

    def test_disjoint_paths_are_among_simple_paths(self):
        u, v = K("0123", 4), K("2301", 4)
        enumerated = {
            tuple(p) for p in simple_paths(u, v, max_length=6)
        }
        for path in disjoint_paths(u, v):
            assert tuple(path) in enumerated

    def test_count(self):
        u, v = K("012"), K("201")
        assert count_simple_paths(u, v, 6) == len(
            list(simple_paths(u, v, 6))
        )


class TestLongestPath:
    def test_longer_than_shortest(self):
        u, v = K("012"), K("201")
        longest = longest_simple_path(u, v, max_length=8)
        assert longest is not None
        assert len(longest) - 1 > kautz_distance(u, v)

    def test_embedding_paths_are_length_k(self):
        """The embedding's actuator connection paths (length 3 in
        K(2,3)) exist among the simple paths of that length."""
        from repro.core.embedding import connection_path

        path = connection_path(K("201"), K("012"))
        candidates = [
            p
            for p in simple_paths(K("201"), K("012"), 3)
            if len(p) == 4
        ]
        assert path in candidates

    def test_unreachable_with_budget_returns_none(self):
        u, v = K("010"), K("121")   # distance 3
        assert longest_simple_path(u, v, max_length=2) is None

    def test_default_budget_is_hamiltonian_bound(self):
        u, v = K("01", 2), K("12", 2)   # K(2,2): 6 nodes
        longest = longest_simple_path(u, v)
        assert longest is not None
        assert len(longest) <= 6
