"""Tests for the campaign checkpoint journal."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CampaignError, ConfigError
from repro.experiments.journal import CampaignJournal, spec_fingerprint

FP = spec_fingerprint("grid", 1)


def _journal(path, **kwargs):
    return CampaignJournal(str(path), FP, **kwargs)


def _cut_tail(path, size):
    """Kill the coordinator mid-append: the last ``size`` bytes never
    reached the file."""
    data = path.read_bytes()
    path.write_bytes(data[:-size])


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
payloads = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=4)),
    max_size=6,
)


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.text(
                    alphabet="abcdef0123456789:", min_size=1, max_size=12
                ),
                payloads,
            ),
            max_size=8,
            unique_by=lambda entry: entry[0],
        )
    )
    def test_replay_equals_recorded(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("journal") / "j.jsonl"
        with _journal(path) as journal:
            for key, payload in entries:
                journal.record_done(key, f"spec-{key}", payload)
        replayed = _journal(path, resume=True)
        expected = {key: (f"spec-{key}", payload) for key, payload in entries}
        assert replayed.entries == expected
        for key, payload in entries:
            assert replayed.completed(key, f"spec-{key}") == payload
        replayed.close()


class TestTornTail:
    def test_truncated_last_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with _journal(path) as journal:
            journal.record_done("k1", "s1", {"v": 1})
            journal.record_done("k2", "s2", {"v": 2})
        text = path.read_text(encoding="utf-8")
        # Kill the coordinator mid-append: the k2 line loses its tail.
        path.write_text(text[: text.rindex('"v": 2')], encoding="utf-8")
        replayed = _journal(path, resume=True)
        assert replayed.completed("k1", "s1") == {"v": 1}
        assert replayed.completed("k2", "s2") is None
        replayed.close()

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with _journal(path) as journal:
            journal.record_done("k1", "s1", {"v": 1})
            journal.record_done("k2", "s2", {"v": 2})
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:10]  # not the final line: real damage
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CampaignError, match="corrupt at line 2"):
            _journal(path, resume=True)

    def test_torn_tail_twice_in_a_row(self, tmp_path):
        """Each resume cuts the torn line off before appending, so a
        resumed journal survives a second kill."""
        path = tmp_path / "j.jsonl"
        with _journal(path) as journal:
            journal.record_done("k1", "s-k1", {"v": "k1"})
            journal.record_done("k2", "s-k2", {"v": "k2"})
        for torn, new in (("k2", "k3"), ("k3", "k4")):
            _cut_tail(path, 20)
            with _journal(path, resume=True) as journal:
                assert journal.completed(torn, f"s-{torn}") is None
                journal.record_done(torn, f"s-{torn}", {"v": torn})
                journal.record_done(new, f"s-{new}", {"v": new})
        replayed = _journal(path, resume=True)
        for key in ("k1", "k2", "k3", "k4"):
            assert replayed.completed(key, f"s-{key}") == {"v": key}
        replayed.close()
        assert path.read_text(encoding="utf-8").count("\n") == 5

    def test_torn_header_starts_fresh(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _journal(path).close()
        _cut_tail(path, 5)
        with _journal(path, resume=True) as journal:
            assert journal.entries == {}
            journal.record_done("k1", "s1", {"v": 1})
        replayed = _journal(path, resume=True)
        assert replayed.completed("k1", "s1") == {"v": 1}
        replayed.close()

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with _journal(path) as journal:
            journal.record_done("k1", "s1", {"v": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")
            handle.write(json.dumps({"type": "job", "key": "k2",
                                     "spec_hash": "s2", "payload": {}})
                         + "\n")
        with pytest.raises(CampaignError):
            _journal(path, resume=True)


class TestFingerprint:
    def test_fingerprint_is_stable_and_discriminating(self):
        assert spec_fingerprint("a", 1) == spec_fingerprint("a", 1)
        assert spec_fingerprint("a", 1) != spec_fingerprint("a", 2)

    def test_mismatched_fingerprint_raises_config_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with _journal(path) as journal:
            journal.record_done("k1", "s1", {"v": 1})
        with pytest.raises(ConfigError):
            CampaignJournal(
                str(path), spec_fingerprint("grid", 2), resume=True
            )

    def test_mismatched_spec_hash_raises_config_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with _journal(path) as journal:
            journal.record_done("k1", "s1", {"v": 1})
        replayed = _journal(path, resume=True)
        with pytest.raises(ConfigError):
            replayed.completed("k1", "other-spec")
        replayed.close()

    def test_unknown_version_raises(self, tmp_path):
        """An older journal (version 1) is refused and re-runs."""
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps(
                {"type": "campaign", "version": 1, "fingerprint": FP}
            )
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(CampaignError, match="re-run"):
            _journal(path, resume=True)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"type": "job"}) + "\n", encoding="utf-8")
        with pytest.raises(CampaignError):
            _journal(path, resume=True)


class TestLifecycle:
    def test_fresh_start_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with _journal(path) as journal:
            journal.record_done("k1", "s1", {"v": 1})
        with _journal(path) as journal:
            assert journal.entries == {}
        replayed = _journal(path, resume=True)
        assert replayed.entries == {}
        replayed.close()

    def test_resume_without_file_starts_fresh(self, tmp_path):
        journal = _journal(tmp_path / "missing.jsonl", resume=True)
        assert journal.entries == {}
        journal.record_done("k", "s", {})
        journal.close()
        journal.close()  # idempotent


class TestTraceHashVerification:
    """Two completions of one job must agree on their trace fingerprint."""

    def test_record_done_accepts_the_same_trace_hash(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with _journal(path) as journal:
            journal.record_done("k", "s", {"v": 1, "trace_hash": "aa" * 32})
            journal.record_done("k", "s", {"v": 2, "trace_hash": "aa" * 32})
        replayed = _journal(path, resume=True)
        # The first completion is the one reused.
        first = {"v": 1, "trace_hash": "aa" * 32}
        assert replayed.completed("k", "s") == first
        replayed.close()

    def test_record_done_tolerates_missing_trace_hashes(self, tmp_path):
        """Untraced payloads (trace_hash None/absent) never conflict."""
        path = tmp_path / "j.jsonl"
        with _journal(path) as journal:
            journal.record_done("k", "s", {"trace_hash": None})
            journal.record_done("k", "s", {"trace_hash": "aa" * 32})
            journal.record_done("k", "s", {})
        _journal(path, resume=True).close()

    def test_replay_rejects_conflicting_done_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with _journal(path) as journal:
            journal.record_done("k", "s", {"trace_hash": "aa" * 32})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "type": "job", "key": "k", "spec_hash": "s",
                "payload": {"trace_hash": "bb" * 32},
            }) + "\n")
        with pytest.raises(CampaignError, match="divergence"):
            _journal(path, resume=True)
