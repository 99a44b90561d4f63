"""Tests for consistent hashing."""

from hypothesis import given, strategies as st

from repro.util import hashing
from repro.util.hashing import consistent_hash


class TestConsistentHash:
    def test_stable(self):
        assert consistent_hash("abc") == consistent_hash("abc")

    def test_distinct_keys_differ(self):
        assert consistent_hash("abc") != consistent_hash("abd")

    def test_range(self, monkeypatch):
        for bits in (8, 16, 64):
            monkeypatch.setattr(hashing, "SPACE_BITS", bits)
            assert 0 <= consistent_hash("key") < 2**bits

    @given(st.text(max_size=50))
    def test_deterministic_for_any_text(self, key):
        assert consistent_hash(key) == consistent_hash(key)
