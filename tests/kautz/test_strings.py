"""Unit tests for Kautz string labels (Definition 1)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidKautzString
from repro.kautz.strings import KautzString


def kautz_strings(max_degree=4, max_k=5):
    """Hypothesis strategy producing valid KautzString values."""

    @st.composite
    def strat(draw):
        degree = draw(st.integers(min_value=1, max_value=max_degree))
        k = draw(st.integers(min_value=1, max_value=max_k))
        letters = [draw(st.integers(min_value=0, max_value=degree))]
        for _ in range(k - 1):
            choice = draw(st.integers(min_value=0, max_value=degree - 1))
            letters.append(choice if choice < letters[-1] else choice + 1)
        return KautzString(tuple(letters), degree)

    return strat()


class TestConstruction:
    def test_valid_string(self):
        s = KautzString((0, 1, 2), 2)
        assert s.k == 3
        assert s.degree == 2

    def test_rejects_repeated_adjacent(self):
        with pytest.raises(InvalidKautzString):
            KautzString((0, 0, 1), 2)

    def test_rejects_letter_out_of_alphabet(self):
        with pytest.raises(InvalidKautzString):
            KautzString((0, 3), 2)

    def test_rejects_negative_letter(self):
        with pytest.raises(InvalidKautzString):
            KautzString((0, -1), 2)

    def test_rejects_empty(self):
        with pytest.raises(InvalidKautzString):
            KautzString((), 2)

    def test_rejects_bad_degree(self):
        with pytest.raises(InvalidKautzString):
            KautzString((0, 1), 0)

    def test_parse_roundtrip(self):
        s = KautzString.parse("120", 2)
        assert s.letters == (1, 2, 0)
        assert str(s) == "120"

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidKautzString):
            KautzString.parse("1!0", 2)

    def test_nonadjacent_repeats_allowed(self):
        s = KautzString((0, 1, 0, 1), 1)
        assert s.k == 4


class TestAccessors:
    def test_first_last(self):
        s = KautzString((1, 2, 0), 2)
        assert s.first == 1
        assert s.last == 0

    def test_iteration_and_indexing(self):
        s = KautzString((1, 2, 0), 2)
        assert list(s) == [1, 2, 0]
        assert s[1] == 2
        assert len(s) == 3

    def test_str_uses_base36(self):
        s = KautzString((10, 0), 10)
        assert str(s) == "a0"

    def test_equality_and_hash(self):
        a = KautzString((0, 1), 2)
        b = KautzString((0, 1), 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != KautzString((0, 1), 3)


class TestShift:
    def test_shift_drops_first_appends_last(self):
        s = KautzString((0, 1, 2), 2)
        assert s.shift(0) == KautzString((1, 2, 0), 2)

    def test_shift_rejects_repeat(self):
        s = KautzString((0, 1, 2), 2)
        with pytest.raises(InvalidKautzString):
            s.shift(2)

    def test_unshift(self):
        s = KautzString((1, 2, 0), 2)
        assert s.unshift(0) == KautzString((0, 1, 2), 2)

    def test_successor_count_is_degree(self):
        s = KautzString((0, 1, 2), 3)
        assert len(s.successors()) == 3

    def test_predecessor_count_is_degree(self):
        s = KautzString((0, 1, 2), 3)
        assert len(s.predecessors()) == 3

    def test_successor_letters_exclude_last(self):
        s = KautzString((0, 1), 2)
        assert s.successor_letters() == [0, 2]

    @given(kautz_strings())
    def test_shift_unshift_inverse(self, s):
        for succ in s.successors():
            assert succ.unshift(s.first) == s

    @given(kautz_strings())
    def test_successors_are_valid_and_distinct(self, s):
        succs = s.successors()
        assert len(set(succs)) == s.degree
        for succ in succs:
            assert succ.k == s.k


class TestRotation:
    def test_left_rotated(self):
        s = KautzString((0, 1, 2), 2)
        assert s.left_rotated() == KautzString((1, 2, 0), 2)

    def test_left_rotation_invalid_when_ends_match_start(self):
        s = KautzString((0, 1, 0), 2)
        with pytest.raises(InvalidKautzString):
            s.left_rotated()


class TestRandom:
    def test_random_strings_are_valid(self):
        rng = random.Random(7)
        for _ in range(200):
            s = KautzString.random(3, 4, rng)
            assert s.k == 4
            assert s.degree == 3

    def test_random_is_deterministic_per_seed(self):
        a = KautzString.random(3, 4, random.Random(42))
        b = KautzString.random(3, 4, random.Random(42))
        assert a == b

    def test_random_rejects_bad_diameter(self):
        with pytest.raises(InvalidKautzString):
            KautzString.random(2, 0, random.Random(1))
