"""The campaign checkpoint journal: crash-safe JSONL ledger of completions.

A :class:`CampaignJournal` records every job the campaign runner
accepted — key, spec hash and payload blob — as one JSON line, appended
and flushed the moment the result is accepted.  Killing the coordinator
therefore loses at most the line being written; resuming replays the
journal, reuses every recorded payload, and re-executes only the
remainder.  Only completions are recorded: a job that failed the
campaign simply runs again on resume.  Because the campaign merge is
keyed on job keys (never on completion order), a resumed campaign is
byte-identical to an uninterrupted one.

Robustness rules, in order:

* **version** — the header carries :data:`JOURNAL_VERSION`, which also
  covers the payload layout; a journal of another version raises
  :class:`~repro.errors.CampaignError` and must be re-run;
* **config fingerprint** — the header carries a hash of the campaign
  grid (kind, base scenario, seeds, axes); resuming against a journal
  written for a different grid raises a typed
  :class:`~repro.errors.ConfigError` instead of silently merging stale
  results, and each job line additionally carries its own spec hash;
* **torn tail cut off** — every line ends in a newline, so bytes after
  the last one are a write the coordinator died in; replay cuts the
  file back to the end of the last intact line before appending (a
  file without an intact header starts afresh), so a resumed journal
  survives any number of further kills.  A malformed intact line is
  real damage and raises :class:`~repro.errors.CampaignError`;
* **no wall clock** — lines are content-addressed, not timestamped,
  so journals of identical campaigns are byte-comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Tuple

from repro.errors import CampaignError, ConfigError

JOURNAL_VERSION = 3

_JOB_KEYS = {"type", "key", "spec_hash", "payload"}


def spec_fingerprint(*parts: object) -> str:
    """A stable hex fingerprint of an arbitrary repr-able spec tuple.

    Relies on ``repr`` of the (frozen, stdlib-typed) config dataclasses
    being deterministic; the same grid always fingerprints the same.
    """
    text = repr(tuple(parts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CampaignJournal:
    """Append-only JSONL ledger of one campaign's job completions.

    ``resume=False`` starts a fresh ledger (an existing file is
    truncated — the journal is a checkpoint, not an archive);
    ``resume=True`` replays an existing ledger first and then appends
    to it.  A missing file under ``resume=True`` degrades to a fresh
    start so driver loops can pass ``--resume`` unconditionally.
    """

    def __init__(
        self, path: str, fingerprint: str, *, resume: bool = False
    ) -> None:
        self.path = str(path)
        self.fingerprint = fingerprint
        #: ``key -> (spec hash, payload)`` of every replayed completion.
        self.entries: Dict[str, Tuple[str, dict]] = {}
        if resume and os.path.exists(self.path) and self._replay():
            self._handle = open(self.path, "a", encoding="utf-8")
        else:
            self._handle = open(self.path, "w", encoding="utf-8")
            self._write_line(
                {
                    "type": "campaign",
                    "version": JOURNAL_VERSION,
                    "fingerprint": self.fingerprint,
                }
            )

    # -- replay --------------------------------------------------------------

    def _corrupt(self, number: int, detail: str) -> CampaignError:
        return CampaignError(
            f"journal {self.path!r} is corrupt at line {number}: {detail}"
        )

    def _replay(self) -> bool:
        """Load every intact line and cut the torn tail off the file;
        False when there is no intact header to resume from."""
        with open(self.path, "rb") as handle:
            data = handle.read()
        intact = data[: data.rfind(b"\n") + 1]
        records = []
        for number, line in enumerate(intact.splitlines(), 1):
            try:
                record = json.loads(line)
            except ValueError:
                raise self._corrupt(number, "not JSON") from None
            if not isinstance(record, dict):
                raise self._corrupt(number, "not an object")
            records.append(record)
        if not records:
            return False
        header = records[0]
        if header.get("type") != "campaign":
            raise self._corrupt(1, "not a campaign header")
        if header.get("version") != JOURNAL_VERSION:
            raise CampaignError(
                f"journal {self.path!r} has version "
                f"{header.get('version')!r}, expected {JOURNAL_VERSION}: "
                "older journals cannot be resumed, re-run the campaign"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise ConfigError(
                "campaign journal fingerprint mismatch: the journal was "
                "written for a different campaign grid (base config, seeds "
                "or axes changed); refusing to merge stale results from "
                f"{self.path!r}"
            )
        for number, record in enumerate(records[1:], 2):
            if record.get("type") != "job" or set(record) != _JOB_KEYS:
                raise self._corrupt(
                    number, f"not a job line: {sorted(record)}"
                )
            key, spec_hash, payload = (
                record["key"], record["spec_hash"], record["payload"]
            )
            if not (
                isinstance(key, str)
                and isinstance(spec_hash, str)
                and isinstance(payload, dict)
            ):
                raise self._corrupt(
                    number,
                    "key and spec hash must be strings, payload an object",
                )
            # A hand-concatenated journal can hold two completions of
            # one job: the first is kept, and the second must agree on
            # its trace fingerprint (repro.telemetry.tracing), or the
            # two runs diverged and merging either would hide it.
            _, first = self.entries.setdefault(key, (spec_hash, payload))
            old, new = first.get("trace_hash"), payload.get("trace_hash")
            if old and new and old != new:
                raise CampaignError(
                    f"journal {self.path!r} records two completions of job "
                    f"{key!r} with different trace fingerprints ({old!s:.12}"
                    f"... vs {new!s:.12}...): the runs diverged; localise "
                    "the fork with python -m repro.devtools.divergence"
                )
        os.truncate(self.path, len(intact))
        return True

    # -- append --------------------------------------------------------------

    def _write_line(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def record_done(self, key: str, spec_hash: str, payload: dict) -> None:
        """Checkpoint one accepted job result."""
        self._write_line(
            dict(type="job", key=key, spec_hash=spec_hash, payload=payload)
        )

    def completed(self, key: str, spec_hash: str) -> Optional[dict]:
        """The recorded payload for ``key`` (None when not recorded).

        A recorded entry whose spec hash disagrees with the current
        job's is stale — the grid fingerprint should have caught a grid
        change, so a mismatch here means key collision or hand-edited
        journal; refuse rather than merge the wrong run.
        """
        if key not in self.entries:
            return None
        recorded_spec, payload = self.entries[key]
        if recorded_spec != spec_hash:
            raise ConfigError(
                f"journal entry for job {key!r} was recorded for a "
                "different job spec; refusing to reuse it"
            )
        return payload

    def close(self) -> None:
        """Flush and close the append handle (idempotent)."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
