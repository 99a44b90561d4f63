"""The packet flight recorder: per-packet span tracing.

Every packet's journey — generate, enqueue, per-hop tx/rx, ARQ
retries, Theorem 3.8 detours, delivery, drop, or a baseline's source
retransmission, which hands the journey on to the copy's — is recorded
as a sequence of :class:`FlightEvent`\\ s keyed by the packet ``uid``.  All
timestamps are **sim time**; nothing here reads a wall clock, so a
recorded flight is byte-reproducible across runs of the same seed.

Memory is ring-bounded: at most :data:`FLIGHT_CAPACITY` packets are
retained and the oldest journey is evicted first, while aggregate
counters (events recorded, journeys evicted) survive eviction.

The recorder is queryable (:meth:`events`, :meth:`journey`) and
exportable as JSONL (one line per packet, via
:mod:`repro.telemetry.export`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import TelemetryError

__all__ = ["FlightRecorder", "FlightEvent", "Journey", "DROP_REASONS"]

#: Packets the recorder retains (the oldest journey is evicted first).
FLIGHT_CAPACITY = 4096

#: The drop-reason taxonomy.  A system that gives up on a packet
#: hands one of these to its ``on_dropped(packet, reason)`` callback;
#: ``MetricsCollector.on_dropped`` raises on any other.
DROP_REASONS: Tuple[str, ...] = (
    "no-cell-member",      # no reachable/entry member for the cell at all
    "no-entry-relay",      # wake-on-demand relay search found nobody
    "entry-failed",        # every ranked entry member refused the packet
    "relay-replaced",      # maintenance reassigned the relay mid-flight
    "hop-limit",           # TTL-style max_hops exhausted
    "no-successor",        # Theorem 3.8 table and fallback both empty
    "fallback-hop-failed", # the last-resort physical hop failed too
    "tier-stall",          # no reachable next actuator on the CAN tier
    "tier-hop-failed",     # an inter-cell actuator hop failed
    "path-hop-failed",     # a fixed-path relay hop failed (baselines)
    "retries-exhausted",   # end-to-end retransmission budget spent (baselines)
    "no-route",            # no path or member toward an actuator (baselines)
    "deadline_expired",    # QoS: frame outlived its class deadline
    "admission_rejected",  # QoS: source token bucket refused the packet
    "backpressure_shed",   # QoS: full lane / congested next hop
)

#: Hop-level failure causes recorded by the network layer and handed
#: to ``on_failed(packet, cause)``.  The QoS scheduler's refusals
#: surface as hop failures too, carrying their drop reason as the cause.
HOP_FAIL_CAUSES: Tuple[str, ...] = (
    "src-unusable", "link-break", "mac-loss", "dst-unusable",
    "deadline_expired", "backpressure_shed",
)


class FlightEvent(NamedTuple):
    """One point in a packet's journey (sim time only)."""

    time: float
    kind: str         # generate|copy|enqueue|tx|rx|hop-fail|arq-retry|detour|deliver|drop|retransmit
    src: Optional[int]
    dst: Optional[int]
    info: str = ""


class Journey(NamedTuple):
    """Summary of one packet's recorded flight."""

    uid: int
    events: Tuple[FlightEvent, ...]

    @property
    def outcome(self) -> str:
        """``delivered``/``dropped``/``retransmitted``/``in-flight``
        (``retransmitted``: the journey goes on as the copy's)."""
        for event in reversed(self.events):
            if event.kind == "deliver":
                return "delivered"
            if event.kind == "drop":
                return "dropped"
            if event.kind == "retransmit":
                return "retransmitted"
        return "in-flight"

    @property
    def tx_nodes(self) -> Tuple[int, ...]:
        """Transmitting node of every hop attempt, in order — matches
        ``Packet.hops`` exactly (the network records both)."""
        return tuple(e.src for e in self.events if e.kind == "tx")

    @property
    def hop_spans(self) -> Tuple[Tuple[float, float, int, int], ...]:
        """Successful hops as ``(t_tx, t_rx, src, dst)`` spans.

        Each rx closes the latest open tx with the same (src, dst);
        spans therefore nest inside the journey's [generate, deliver]
        envelope and appear in arrival order.
        """
        open_tx: Dict[Tuple[int, int], float] = {}
        spans: List[Tuple[float, float, int, int]] = []
        for event in self.events:
            if event.kind == "tx":
                open_tx[(event.src, event.dst)] = event.time
            elif event.kind == "rx":
                started = open_tx.pop((event.src, event.dst), None)
                if started is not None:
                    spans.append((started, event.time, event.src, event.dst))
        return tuple(spans)


class FlightRecorder:
    """Ring-buffered per-packet event recorder.

    :data:`FLIGHT_CAPACITY` bounds the number of *packets* retained
    (each with its full event list); the counters below are lifetime
    totals.
    """

    def __init__(self) -> None:
        # Each journey is a FLAT list of scalars, 5 slots per event
        # (time, kind, src, dst, info).  Scalars are GC-untracked, so
        # the recorder's retained state adds only the journey lists
        # themselves to the collector's workload — storing one tuple
        # per event measurably slows the whole simulation down by
        # promoting tens of thousands of container objects into the
        # older generations, whose collections scan the full heap.
        # FlightEvent construction is deferred to query time.
        self._journeys: "OrderedDict[int, List[object]]" = OrderedDict()
        self.events_recorded = 0
        self.journeys_started = 0
        self.journeys_evicted = 0
        # Optional lifecycle tap (repro.telemetry.tracing): every
        # recorded event is also forwarded as
        # tap(uid, time, kind, src, dst, info).  None keeps the hot
        # path at a single attribute check.
        self._tap = None

    def set_tap(self, tap) -> None:
        """Forward every recorded event to ``tap`` as well (the trace
        stream's :meth:`~repro.telemetry.tracing.TraceStream.lifecycle`
        hook); ``None`` removes it."""
        self._tap = tap

    # -- recording ---------------------------------------------------------

    def _start(self, uid: int) -> List[object]:
        """Open ``uid``'s journey (the recording methods look a journey
        up themselves and come here on its first event only)."""
        journeys = self._journeys
        events = journeys[uid] = []
        self.journeys_started += 1
        while len(journeys) > FLIGHT_CAPACITY:
            journeys.popitem(last=False)
            self.journeys_evicted += 1
        return events

    def record(
        self,
        uid: int,
        time: float,
        kind: str,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        info: str = "",
    ) -> None:
        """Append one event to ``uid``'s journey."""
        events = self._journeys.get(uid)
        if events is None:
            events = self._start(uid)
        events += (time, kind, src, dst, info)
        self.events_recorded += 1
        if self._tap is not None:
            self._tap(uid, time, kind, src, dst, info)

    # convenience wrappers used by the instrumented layers -----------------

    def generated(
        self,
        uid: int,
        time: float,
        source: int,
        destination: Optional[int] = None,
    ) -> None:
        """The workload emitted the packet at ``source``."""
        self.record(uid, time, "generate", src=source, dst=destination)

    def hop_tx(
        self, uid: int, time: float, src: int, dst: int, queued: bool
    ) -> None:
        """One hop transmission started (``queued``: radio was busy).

        This and :meth:`hop_rx` run once per hop of every packet — the
        recorder's hot path — so they inline :meth:`record`.
        """
        events = self._journeys.get(uid)
        if events is None:
            events = self._start(uid)
        if queued:
            events += (time, "enqueue", src, dst, "")
            self.events_recorded += 2
        else:
            self.events_recorded += 1
        events += (time, "tx", src, dst, "")
        tap = self._tap
        if tap is not None:
            if queued:
                tap(uid, time, "enqueue", src, dst, "")
            tap(uid, time, "tx", src, dst, "")

    def hop_rx(self, uid: int, time: float, src: int, dst: int) -> None:
        """The hop's frame arrived and was charged at the receiver."""
        events = self._journeys.get(uid)
        if events is None:
            events = self._start(uid)
        events += (time, "rx", src, dst, "")
        self.events_recorded += 1
        if self._tap is not None:
            self._tap(uid, time, "rx", src, dst, "")

    def hop_fail(
        self, uid: int, time: float, src: int, dst: Optional[int], cause: str
    ) -> None:
        """The hop conclusively failed (see :data:`HOP_FAIL_CAUSES`)."""
        self.record(uid, time, "hop-fail", src=src, dst=dst, info=cause)

    def arq_retry(
        self, uid: int, time: float, src: int, dst: int, attempt: int
    ) -> None:
        """The ARQ layer is retransmitting the hop (attempt >= 1)."""
        self.record(uid, time, "arq-retry", src=src, dst=dst,
                    info=f"attempt={attempt}")

    def detour(
        self, uid: int, time: float, at: int, via: str, rank: int
    ) -> None:
        """Theorem 3.8 path switch: relay ``at`` took the ``rank``-th
        shortest disjoint path through successor ``via``."""
        self.record(uid, time, "detour", src=at, info=f"{via}#{rank}")

    def retransmitted(self, uid: int, copy_uid: int, time: float) -> None:
        """End of ``uid``'s journey: its sender resent it as the new
        packet ``copy_uid``.  The original's last event names the copy
        (``retransmit``, ``as=<copy>``) and the copy's first names the
        original (``copy``, ``of=<uid>``)."""
        self.record(uid, time, "retransmit", info=f"as={copy_uid}")
        self.record(copy_uid, time, "copy", info=f"of={uid}")

    def delivered(
        self, uid: int, time: float, destination: Optional[int], hops: Tuple[int, ...]
    ) -> None:
        """End of journey: the packet reached its destination."""
        self.record(uid, time, "deliver", dst=destination,
                    info=",".join(str(h) for h in hops))

    def dropped(self, uid: int, time: float, reason: str) -> None:
        """End of journey: the packet was abandoned (see taxonomy).  An
        empty ``reason`` raises :class:`~repro.errors.TelemetryError`
        naming ``uid``."""
        if not reason:
            raise TelemetryError(
                f"packet {uid} dropped without a named reason"
            )
        self.record(uid, time, "drop", info=reason)

    # -- querying ----------------------------------------------------------

    @staticmethod
    def _inflate(flat: List[object]) -> Tuple[FlightEvent, ...]:
        """Rebuild :class:`FlightEvent`\\ s from one flat journey list."""
        return tuple(
            FlightEvent(*flat[i:i + 5]) for i in range(0, len(flat), 5)
        )

    def journeys(self) -> List[Journey]:
        """Every retained journey, oldest packet first."""
        return [
            Journey(uid=uid, events=self._inflate(events))
            for uid, events in self._journeys.items()
        ]
