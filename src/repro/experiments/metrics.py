"""Run metrics (Section IV).

* **Throughput** — bytes of QoS-guaranteed data (delivered within the
  :data:`QOS_DEADLINE`) received by actuators per measured second.
* **Delay** — mean latency of the QoS-guaranteed packets.
* **Energy** — read from the network's phase-split ledger by the
  runner, not collected here.

Every packet event of a run — generated, delivered, dropped — is one
row of a :class:`PacketLedger`, warm-up included.  The numbers fold
from it at the end of the run (:meth:`PacketLedger.fold`); only
packets *created* after the warm-up window count towards them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import TelemetryError
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.telemetry.flight import DROP_REASONS, FlightRecorder
from repro.telemetry.registry import Registry
from repro.util.stats import RunningStat

#: The paper's QoS deadline, seconds: a delivery counts towards
#: throughput and delay only if it arrives within it.
QOS_DEADLINE = 0.6

#: Delivery-latency buckets (seconds): sub-millisecond MAC times up
#: through multi-second detour tails, with 0.6 s (the paper's QoS
#: deadline) an exact bound so the histogram splits cleanly on it.
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.4, 0.6,
    1.0, 2.0, 5.0,
)

#: Report/export order of the QoS traffic classes.
_CLASS_ORDER = ("alarm", "control", "bulk")

#: Ledger event codes: a packet generated, delivered, or dropped for
#: ``DROP_REASONS[code - DROPPED]``.
GENERATED, DELIVERED, DROPPED = 0, 1, 2
_DROP_CODES = {reason: DROPPED + i for i, reason in enumerate(DROP_REASONS)}

#: Ledger class codes: the index into ``_CLASS_ORDER``, -1 unmarked.
_CLASS_CODES = {cls: i for i, cls in enumerate(_CLASS_ORDER)}

#: A ledger row's deadline when the packet has none: no latency exceeds it.
_NO_DEADLINE = float("nan")


@dataclass(frozen=True)
class ClassStat:
    """Measured-window funnel of one QoS traffic class."""

    traffic_class: str
    generated: int
    delivered: int
    deadline_missed: int
    dropped: int

    @property
    def delivered_in_deadline(self) -> int:
        """Deliveries that met the packet's own class deadline."""
        return self.delivered - self.deadline_missed

    @property
    def delivery_ratio(self) -> float:
        """In-deadline deliveries over generated (the QoS headline)."""
        if self.generated == 0:
            return 0.0
        return self.delivered_in_deadline / self.generated

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of *delivered* packets that arrived too late."""
        if self.delivered == 0:
            return 0.0
        return self.deadline_missed / self.delivered


@dataclass(frozen=True)
class LedgerFold:
    """What one run's packet ledger adds up to.

    The counts, bytes and delay cover the measured window (packets
    created at or after warm-up); the window counts cover every row.
    """

    generated: int
    delivered_total: int
    delivered_qos: int
    dropped: int
    qos_bytes: int
    #: Latencies of the in-deadline deliveries, in delivery order.
    delay: RunningStat
    #: Per-class funnels in class priority order; empty when no packet
    #: carried a traffic class.
    class_stats: Tuple[ClassStat, ...]
    #: Generated and delivered rows by creation-time window index
    #: (empty unless the fold was given a window width).
    window_generated: Dict[int, int]
    window_delivered: Dict[int, int]

    def throughput_bps(self, measured_seconds: float) -> float:
        """QoS-guaranteed bits per second over the measured window."""
        if measured_seconds <= 0:
            raise ValueError("measured_seconds must be positive")
        return self.qos_bytes * 8.0 / measured_seconds


class PacketLedger:
    """One run's packet events as append-only columns, one row each.

    A row is an event, not a packet: a baseline's retransmitted copy
    has a uid of its own, and its delivery is one more delivered row.
    """

    def __init__(self) -> None:
        self.code = array("b")
        #: Three floats a row: the packet's ``created_at``, the event's
        #: sim time (``created_at`` for a generation) and the packet's
        #: relative deadline (NaN when it has none).  One array, not
        #: three: a run's peak memory grows half as much.
        self.times = array("d")
        self.traffic_class = array("b")
        self.size_bytes = array("i")

    def append(self, code: int, packet: Packet, at: float) -> None:
        self.code.append(code)
        deadline = packet.deadline
        self.times.extend((
            packet.created_at, at,
            _NO_DEADLINE if deadline is None else deadline,
        ))
        self.traffic_class.append(_CLASS_CODES.get(packet.traffic_class, -1))
        self.size_bytes.append(packet.size_bytes)

    def fold(
        self, warmup_end: float, window: Optional[float] = None
    ) -> LedgerFold:
        """Add the rows up, in row order, into a :class:`LedgerFold`;
        with ``window``, also count generated and delivered rows by
        ``int(created_at / window)``."""
        delivered_qos = qos_bytes = 0
        delay = RunningStat()
        # class code (-1: unmarked) ->
        # [generated, delivered, dropped, deadline_missed]
        funnels = [[0, 0, 0, 0] for _ in range(len(_CLASS_ORDER) + 1)]
        window_generated: Dict[int, int] = {}
        window_delivered: Dict[int, int] = {}
        times = iter(self.times)
        for code, (created, at, deadline), cls, size in zip(
            self.code, zip(times, times, times), self.traffic_class,
            self.size_bytes,
        ):
            if window is not None and code <= DELIVERED:
                counts = window_delivered if code else window_generated
                index = int(created / window)
                counts[index] = counts.get(index, 0) + 1
            if created < warmup_end:
                continue
            funnel = funnels[cls]
            funnel[code if code < DROPPED else DROPPED] += 1
            if code == DELIVERED:
                latency = at - created
                if latency > deadline:
                    funnel[3] += 1
                if latency <= QOS_DEADLINE:
                    delivered_qos += 1
                    qos_bytes += size
                    delay.add(latency)
        generated, delivered, dropped, _ = map(sum, zip(*funnels))
        return LedgerFold(
            generated, delivered, delivered_qos, dropped, qos_bytes, delay,
            tuple(
                ClassStat(cls, gen, dlv, late, drp)
                for cls, (gen, dlv, drp, late) in zip(_CLASS_ORDER, funnels)
                if gen or dlv or drp
            ),
            window_generated, window_delivered,
        )


class MetricsCollector:
    """Records every packet event as a :class:`PacketLedger` row.

    :meth:`fold` adds the ledger up; :meth:`publish` folds it into a
    registry.  The ``flight`` hooks observe every packet too: the
    flight recorder gets the generate/deliver/drop span ends.
    """

    def __init__(
        self,
        sim: Simulator,
        warmup_end: float,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self._sim = sim
        self._warmup_end = warmup_end
        self._flight = flight
        self.ledger = PacketLedger()

    # -- packet hooks --------------------------------------------------------

    def on_generated(self, packet: Packet) -> None:
        self.ledger.append(GENERATED, packet, packet.created_at)
        if self._flight is not None:
            self._flight.generated(
                packet.uid, packet.created_at, packet.source,
                packet.destination,
            )

    def on_delivered(self, packet: Packet) -> None:
        now = self._sim.now
        self.ledger.append(DELIVERED, packet, now)
        if self._flight is not None:
            self._flight.delivered(
                packet.uid, now, packet.destination, tuple(packet.hops),
            )

    def on_dropped(self, packet: Packet, reason: str) -> None:
        """Record a packet given up on for ``reason``, which must be an
        entry of :data:`~repro.telemetry.flight.DROP_REASONS`, or
        :class:`~repro.errors.TelemetryError` is raised naming its uid."""
        code = _DROP_CODES.get(reason)
        if code is None:
            raise TelemetryError(
                f"packet {packet.uid} dropped for {reason!r}, which is not "
                "a named drop reason"
            )
        self.ledger.append(code, packet, self._sim.now)
        if self._flight is not None:
            self._flight.dropped(packet.uid, self._sim.now, reason)

    def publish(self, registry: Registry) -> None:
        """Fold every row, warm-up included (the exported counters say
        "all"), into ``registry``: ``packets_generated`` /
        ``packets_delivered`` counters, a ``packets_dropped`` family
        labelled by drop reason, a delivery-latency histogram and, for
        marked packets, the ``qos_class_*`` families.

        Held children (``MetricFamily.held``) appear at their first
        row, so a run that never drops exports no ``packets_dropped``
        sample; a ``qos_class_*`` family is created at its first marked
        row, so runs without QoS traffic export none.  Latencies are
        observed in row order, the order the packets arrived in.
        """
        generated = registry.counter(
            "packets_generated", "workload packets created (all, incl. warm-up)"
        ).held()
        delivered = registry.counter(
            "packets_delivered", "packets that reached an actuator (all)"
        ).held()
        dropped = registry.counter(
            "packets_dropped",
            "packets dropped, by routing drop reason (all)",
            labels=("reason",),
        ).held()
        latency = registry.histogram(
            "delivery_latency_seconds",
            "end-to-end latency of delivered packets (all)",
            buckets=_LATENCY_BUCKETS,
        ).held()
        classes: Dict[str, dict] = {}

        def class_family(which: str) -> dict:
            """The held children of ``qos_class_<which>``, keyed by
            class (``dropped``: by ``(class, reason)``)."""
            held = classes.get(which)
            if held is None:
                if which == "latency_seconds":
                    family = registry.histogram(
                        "qos_class_latency_seconds",
                        "end-to-end latency of delivered QoS-marked "
                        "packets, by traffic class (all)",
                        labels=("class",),
                        buckets=_LATENCY_BUCKETS,
                    )
                else:
                    family = registry.counter(
                        f"qos_class_{which}",
                        f"QoS-marked packets {which}, by traffic class (all)",
                        labels=(
                            ("class", "reason") if which == "dropped"
                            else ("class",)
                        ),
                    )
                held = classes[which] = family.held()
            return held

        ledger = self.ledger
        times = iter(ledger.times)
        for code, (created, at, deadline), cls in zip(
            ledger.code, zip(times, times, times), ledger.traffic_class,
        ):
            if code == GENERATED:
                generated[()].inc()
            elif code == DELIVERED:
                wait = at - created
                delivered[()].inc()
                latency[()].observe(wait)
            else:
                reason = DROP_REASONS[code - DROPPED]
                dropped[reason].inc()
            if cls < 0:
                continue
            name = _CLASS_ORDER[cls]
            if code == GENERATED:
                class_family("generated")[name].inc()
            elif code == DELIVERED:
                class_family("delivered")[name].inc()
                class_family("latency_seconds")[name].observe(wait)
                if wait > deadline:
                    class_family("deadline_missed")[name].inc()
            else:
                class_family("dropped")[name, reason].inc()

    def fold(self, window: Optional[float] = None) -> LedgerFold:
        """The ledger added up over this run's measured window."""
        return self.ledger.fold(self._warmup_end, window)
