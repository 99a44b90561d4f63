"""Unit tests for Kautz string labels (Definition 1)."""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidKautzString
from repro.kautz import strings
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
        assert list(s.letters) == [1, 2, 0]
        assert s.letters[1] == 2
        assert s.k == 3

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


class TestLetterTypes:
    """Letters become the label's key, so they must hash and print."""

    def test_a_list_of_letters_is_the_tuple_label(self):
        label = KautzString([0, 1, 2], 2)
        assert label.letters == (0, 1, 2)
        assert type(label.letters) is tuple
        assert label == KautzString((0, 1, 2), 2)
        assert {KautzString((0, 1, 2), 2): "x"}[label] == "x"

    def test_a_float_letter_is_refused(self):
        KautzString((0, 1, 2), 2)  # the int label exists already
        with pytest.raises(InvalidKautzString):
            KautzString((0, 1, 2.0), 2)

    def test_a_float_degree_is_refused(self):
        with pytest.raises(InvalidKautzString):
            KautzString((0, 1), 2.0)

    def test_integer_like_letters_print(self):
        label = KautzString((True, 0), 1)
        assert label.letters == (1, 0)
        assert str(label) == "10"
        assert repr(label) == "KautzString(10, d=1)"


class TestOneObjectPerLabel:
    """``KautzString(letters, degree)`` is the one object of its label."""

    def test_every_constructor_path_gives_the_same_object(self):
        label = KautzString((1, 2, 0), 2)
        assert KautzString((1, 2, 0), 2) is label
        assert KautzString([1, 2, 0], 2) is label
        assert KautzString(iter((1, 2, 0)), 2) is label
        assert KautzString(letters=(1, 2, 0), degree=2) is label
        assert KautzString.parse("120", 2) is label
        assert KautzString((0, 1, 2), 2).shift(0) is label
        assert KautzString((2, 0, 1), 2).unshift(1) is label
        assert KautzString((0, 1, 2), 2).left_rotated() is label
        assert any(s is label for s in KautzString((0, 1, 2), 2).successors())
        assert any(p is label for p in KautzString((2, 0, 2), 2).predecessors())

    def test_random_gives_the_interned_object(self):
        rng = random.Random(3)
        for _ in range(50):
            label = KautzString.random(3, 4, rng)
            assert KautzString(label.letters, 3) is label

    def test_replace_copy_and_pickle_give_the_same_object(self):
        label = KautzString((0, 2, 1), 2)
        assert dataclasses.replace(label) is label
        assert dataclasses.replace(label, letters=[0, 2, 1]) is label
        assert dataclasses.replace(label, degree=3) is KautzString((0, 2, 1), 3)
        assert copy.copy(label) is label
        assert copy.deepcopy(label) is label
        assert copy.deepcopy([label, label])[1] is label
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(label, protocol)) is label

    @given(kautz_strings())
    def test_hash_is_the_hash_of_its_fields(self, label):
        assert hash(label) == hash((label.letters, label.degree))
        assert KautzString(list(label.letters), label.degree) is label

    def test_a_failed_construction_leaves_nothing_behind(self):
        size = len(strings._LABELS)
        for letters, degree in [((0, 0, 1), 2), ((0, 3), 2), ((0, 1.5), 2),
                                ((), 2), ((0, 1), 0)]:
            with pytest.raises(InvalidKautzString):
                KautzString(letters, degree)
            assert len(strings._LABELS) == size
            with pytest.raises(InvalidKautzString):
                KautzString(letters, degree)
        label = KautzString((0, 1, 0), 2)
        assert KautzString((0, 1, 0), 2) is label

    def test_labels_of_different_degrees_never_alias(self):
        low, high = KautzString((0, 1), 1), KautzString((0, 1), 2)
        assert low is not high
        assert low != high
        assert low.degree == 1 and high.degree == 2
        assert {low: "low", high: "high"}[KautzString((0, 1), 2)] == "high"

    def test_no_arguments_is_an_error(self):
        with pytest.raises(TypeError):
            KautzString()

    def test_a_label_pickled_without_reduce_still_equals_and_hashes(
        self, monkeypatch
    ):
        """A pickle from a process whose labels had no ``__reduce__``
        (``copyreg.__newobj__`` plus the field state) loads as a label
        of its own that compares and hashes like the interned one."""
        label = KautzString((1, 0, 2), 2)
        hash(label)  # the cached hash travels in the state too
        with monkeypatch.context() as patched:
            patched.delattr(KautzString, "__reduce__")
            old = pickle.dumps(label, 2)
        loaded = pickle.loads(old)
        assert loaded is not label  # built by the old path, not ours
        assert loaded == label and label == loaded
        assert hash(loaded) == hash(label)
        assert {label: "x"}[loaded] == "x"
        assert str(loaded) == "102"
