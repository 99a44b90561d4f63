"""Tests for (CID, KID) identities."""

from repro.core.ids import ReferId
from repro.kautz.strings import KautzString


class TestReferId:
    def test_str_matches_paper_notation(self):
        rid = ReferId(5, KautzString.parse("201", 2))
        assert str(rid) == "(5,201)"

    def test_equality_and_hash(self):
        a = ReferId(1, KautzString.parse("012", 2))
        b = ReferId(1, KautzString.parse("012", 2))
        assert a == b
        assert hash(a) == hash(b)

    def test_immutable(self):
        import pytest

        rid = ReferId(1, KautzString.parse("012", 2))
        with pytest.raises(AttributeError):
            rid.cid = 2
