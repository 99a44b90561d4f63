"""Deterministic trace capture: rolling-hash event streams.

Every correctness claim in this repo — refactor vs pinned digests,
parallel vs serial campaigns, kill-and-resume — rests on byte-identical
determinism, but a broken golden only says "snapshots differ" with no
pointer to *where* two runs forked.  A :class:`TraceStream` records a
compact digest of every semantically ordered occurrence of a run:

* **scheduler dispatches** — ``(event time, event seq, callback
  label)``, hooked by :meth:`repro.sim.core.Simulator.set_trace`;
* **RNG draws** — stream name plus the primitive drawn
  (``random``/``getrandbits`` — every public ``random.Random`` method
  funnels through those two), hooked by
  :meth:`repro.util.rng.RngStreams.set_trace`; of a
  :class:`~repro.util.rng.KeyedStream` that is the one draw of its
  key — *when* a keyed draw is evaluated is not an ordered occurrence;
* **packet lifecycle transitions** — generate/tx/rx/hop-fail/detour/
  deliver/drop, forwarded from the flight recorder
  (:meth:`repro.telemetry.flight.FlightRecorder.set_tap`);
* **registry deltas** — a content hash of the full metrics snapshot,
  taken at every checkpoint boundary.

Events fold into one rolling SHA-256; at configurable sim-time
**checkpoints** the stream snapshots the digest, so two traced runs
can be compared checkpoint-by-checkpoint and a divergence localised to
one window without retaining the full event history.  Recording is a
few list appends on the hot path: events buffer as tuples and fold
into the hash in batches at each checkpoint boundary (and on
``fingerprint()``), as one text blob of ``kind|label|detail`` lines
followed by the packed binary event times.  The batch boundaries
follow the checkpoint grid, so fingerprints are comparable exactly
between runs traced with the same ``checkpoint_interval``.  An optional
*capture window* (``TracingConfig.capture``) retains full events for a
chosen trace-sequence range — the second pass of the divergence
debugger (:mod:`repro.devtools.divergence`), the one tool that says
where two runs forked.

Tracing is off by default and byte-transparent when disabled: the
hooks are ``None`` checks on the hot paths, no events are scheduled,
no randomness is drawn, and no wall clock is read — a traced run's
metrics are byte-identical to an untraced one of the same seed.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigError

#: Exact binary encoding of event times for the rolling hash — one
#: little-endian double per event, bit-for-bit, with none of the cost
#: of ``repr`` round-tripping.
_PACK_TIME = struct.Struct("<d").pack

__all__ = [
    "TracingConfig",
    "TraceStream",
    "TraceEvent",
    "Checkpoint",
    "action_label",
    "first_divergence",
]


@dataclass(frozen=True)
class TracingConfig:
    """What the trace stream records (hashable; part of the memo key)."""

    #: Sim seconds between checkpoint digests.
    checkpoint_interval: float = 1.0
    #: Retain *full* events whose trace sequence number falls in
    #: ``[capture[0], capture[1])`` — the divergence debugger's second
    #: pass over the first mismatched checkpoint window.
    capture: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not 0 < self.checkpoint_interval < math.inf:
            raise ConfigError("checkpoint_interval must be positive and finite")
        if self.capture is not None:
            lo, hi = self.capture
            if lo < 0 or hi < lo:
                raise ConfigError(
                    f"capture window {self.capture!r} is not a valid "
                    "[lo, hi) sequence range"
                )


class TraceEvent(NamedTuple):
    """One digested occurrence (sim time only, no host state)."""

    seq: int       # global trace sequence number, 0-based
    time: float    # sim time of the occurrence
    kind: str      # "dispatch" | "rng" | "flight"
    label: str     # callback qualname / stream name / lifecycle kind
    detail: str    # event seq / draw value / packet uid+endpoints


class Checkpoint(NamedTuple):
    """The stream state at one sim-time boundary."""

    index: int
    time: float           # the boundary (multiple of the interval)
    events_seen: int      # events folded *before* this boundary
    digest: str           # rolling hash over those events (hex)
    registry_digest: str  # content hash of the metrics snapshot ("" if unbound)


def action_label(action: object) -> str:
    """A deterministic label for a scheduled callback.

    Bound methods and lambdas carry ``__qualname__``;
    ``functools.partial`` is unwrapped; anything else labels by type.
    """
    qualname = getattr(action, "__qualname__", None)
    if qualname is not None:
        return qualname
    func = getattr(action, "func", None)
    if func is not None:
        return action_label(func)
    return type(action).__name__


class TraceStream:
    """A rolling-hash digest of one run's ordered occurrences."""

    def __init__(self, config: Optional[TracingConfig] = None) -> None:
        if config is None:
            config = TracingConfig()
        self._hash = hashlib.sha256()
        self._captured: List[Tuple[int, float, str, str, str]] = []
        self._pending: List[Tuple[int, float, str, str, str]] = []
        self._checkpoints: List[Checkpoint] = []
        self._seq = 0
        #: Sim time of the latest recorded event (``close`` without a
        #: bound clock ends the run there).
        self._last_time = 0.0
        self._interval = config.checkpoint_interval
        self._next_boundary = self._interval
        self._capture = config.capture
        self._clock: Optional[Callable[[], float]] = None
        #: Sim time of the latest dispatch — the timestamp RNG draws
        #: record.  Every sim-time draw happens inside a dispatched
        #: action, so this equals the bound clock without paying a
        #: call per draw; pre-run (construction) draws stamp 0.0,
        #: which is also what the clock would say.
        self._now = 0.0
        self._registry = None
        self._closed = False
        # Packet uids come from a process-global counter, so their
        # absolute values differ between two runs in one process even
        # when the runs are semantically identical.  The trace maps
        # each uid to a dense run-local id in first-seen order, which
        # IS deterministic.
        self._uid_map: dict = {}

    # -- wiring ------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """End-of-run timestamp source (:meth:`close`, which reads it
        once and drops it); the runner binds the simulator clock."""
        self._clock = clock

    def bind_registry(self, registry) -> None:
        """Snapshot ``registry`` (``as_dict()``) at every checkpoint."""
        self._registry = registry

    # -- recording ---------------------------------------------------------

    def record(self, time: float, kind: str, label: str, detail: str = "") -> None:
        """Fold one occurrence into the stream (the generic entry point).

        Hot path: the event buffers as a tuple; hashing happens in
        batches (:meth:`_flush`) at checkpoint boundaries.
        """
        while time >= self._next_boundary:
            self._emit_checkpoint(self._next_boundary)
            self._next_boundary += self._interval
        seq = self._seq
        self._seq = seq + 1
        self._last_time = time
        event = (seq, time, kind, label, detail)
        self._pending.append(event)
        capture = self._capture
        if capture is not None and capture[0] <= seq < capture[1]:
            self._captured.append(event)

    def _flush(self) -> None:
        """Fold the buffered events into the rolling hash.

        One text blob of ``kind|label|detail`` lines followed by the
        packed event times — sequence numbers are implicit in the
        order, and the time bytes are exact, so any reordering,
        relabelling or retiming of any event changes the digest.
        """
        pending = self._pending
        if not pending:
            return
        pack = _PACK_TIME
        self._hash.update(
            "".join(
                [f"{kind}|{label}|{detail}\n" for _, _, kind, label, detail
                 in pending]
            ).encode("utf-8")
        )
        self._hash.update(b"".join([pack(event[1]) for event in pending]))
        pending.clear()

    def dispatch(self, time: float, seq: int, action: object) -> None:
        """One scheduler dispatch (called by ``Simulator.step``)."""
        label = getattr(action, "__qualname__", None)
        if label is None:
            label = action_label(action)
        self._now = time
        self.record(time, "dispatch", label, str(seq))

    def rng_draw(self, name: str, method: str, value: object) -> None:
        """One primitive draw on the named RNG stream."""
        self.record(self._now, "rng", name, f"{method}={value!r}")

    def lifecycle(
        self,
        uid: int,
        time: float,
        kind: str,
        src: Optional[int],
        dst: Optional[int],
        info: str,
    ) -> None:
        """One packet lifecycle transition (the flight-recorder tap).

        ``uid`` is digested as a dense run-local id (first-seen order),
        never the raw process-global value — see ``_uid_map``.
        """
        uid_map = self._uid_map
        local = uid_map.get(uid)
        if local is None:
            local = uid_map[uid] = len(uid_map)
        self.record(
            time, "flight", kind, f"uid={local} src={src} dst={dst} {info}"
        )

    def close(self) -> None:
        """Emit the trailing checkpoint at end-of-run (idempotent), at
        the bound clock's time (without one, the last event's)."""
        if self._closed:
            return
        self._closed = True
        clock = self._clock
        self._clock = None
        time = clock() if clock is not None else self._last_time
        while time >= self._next_boundary:
            self._emit_checkpoint(self._next_boundary)
            self._next_boundary += self._interval
        self._emit_checkpoint(time)

    def _emit_checkpoint(self, boundary: float) -> None:
        self._flush()
        self._checkpoints.append(
            Checkpoint(
                index=len(self._checkpoints),
                time=boundary,
                events_seen=self._seq,
                digest=self._hash.hexdigest(),
                registry_digest=self._registry_digest(),
            )
        )

    def _registry_digest(self) -> str:
        registry = self._registry
        if registry is None:
            return ""
        snapshot = sorted(
            (name, sorted((repr(k), repr(v)) for k, v in values.items()))
            for name, values in registry.as_dict().items()
        )
        return hashlib.sha256(repr(snapshot).encode("utf-8")).hexdigest()

    # -- querying ----------------------------------------------------------

    @property
    def events_seen(self) -> int:
        """Total occurrences folded so far."""
        return self._seq

    @property
    def checkpoints(self) -> Tuple[Checkpoint, ...]:
        return tuple(self._checkpoints)

    def fingerprint(self) -> str:
        """The rolling hash over everything recorded so far (hex)."""
        self._flush()
        return self._hash.hexdigest()

    def captured(self) -> Tuple[TraceEvent, ...]:
        """Full events retained by the configured capture window."""
        return tuple(TraceEvent(*event) for event in self._captured)


def first_divergence(
    left: Tuple[TraceEvent, ...], right: Tuple[TraceEvent, ...]
) -> Optional[Tuple[int, Optional[TraceEvent], Optional[TraceEvent]]]:
    """The first position where two event sequences disagree.

    Returns ``(index, left_event, right_event)`` — one side ``None``
    when that sequence ended early — or ``None`` when the sequences are
    identical.
    """
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return index, a, b
    if len(left) != len(right):
        index = min(len(left), len(right))
        return (
            index,
            left[index] if index < len(left) else None,
            right[index] if index < len(right) else None,
        )
    return None

