"""Run metrics (Section IV).

* **Throughput** — bytes of QoS-guaranteed data (delivered within the
  0.6 s deadline) received by actuators per measured second.
* **Delay** — mean latency of the QoS-guaranteed packets.
* **Energy** — read from the network's phase-split ledger by the
  runner, not collected here.

Only packets *created* after the warm-up window count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.probe import ResilienceProbe
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.registry import Registry
from repro.util.stats import RunningStat

#: Delivery-latency buckets (seconds): sub-millisecond MAC times up
#: through multi-second detour tails, with 0.6 s (the paper's QoS
#: deadline) an exact bound so the histogram splits cleanly on it.
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.4, 0.6,
    1.0, 2.0, 5.0,
)

#: Report/export order of the QoS traffic classes.
_CLASS_ORDER = ("alarm", "control", "bulk")


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


class MetricsCollector:
    """Counts generated/delivered/dropped packets and QoS latencies.

    An optional :class:`ResilienceProbe` sees every packet event
    *before* the warm-up filter — a fault's pre-event baseline may sit
    inside warm-up, so the probe needs the full record.  The optional
    ``registry``/``flight`` hooks likewise observe every packet
    (warm-up included; the exported counters say so): the registry
    gains ``packets_generated``/``packets_delivered`` counters, a
    ``packets_dropped`` family labelled by the drop reason the router
    stamped into ``packet.meta``, and a delivery-latency histogram;
    the flight recorder gets the generate/deliver/drop span ends.
    """

    def __init__(
        self,
        sim: Simulator,
        qos_deadline: float,
        warmup_end: float,
        probe: Optional[ResilienceProbe] = None,
        registry: Optional[Registry] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self._sim = sim
        self._qos_deadline = qos_deadline
        self._warmup_end = warmup_end
        self._probe = probe
        self._flight = flight
        self.generated = 0
        self.delivered_total = 0
        self.delivered_qos = 0
        self.dropped = 0
        self.qos_bytes = 0
        self.delay = RunningStat()
        self.all_delay = RunningStat()
        # Held children (``MetricFamily.held``): a child still appears
        # at its first use, so a run that never drops exports no
        # ``packets_dropped`` sample.
        self._generated_ctr = None
        self._delivered_ctr = None
        self._dropped_family = None
        self._latency_hist = None
        # Per-traffic-class funnel (measured window): class ->
        # [generated, delivered, deadline_missed, dropped].  Registry
        # families are created lazily on the first *marked* packet, so
        # runs without QoS traffic export exactly the metrics they
        # always did.
        self._registry = registry
        self._class_counts: Dict[str, List[int]] = {}
        self._class_families: Dict[str, dict] = {}
        self._class_latency_hist = None
        if registry is not None:
            self._generated_ctr = registry.counter(
                "packets_generated", "workload packets created (all, incl. warm-up)"
            ).held()
            self._delivered_ctr = registry.counter(
                "packets_delivered", "packets that reached an actuator (all)"
            ).held()
            self._dropped_family = registry.counter(
                "packets_dropped",
                "packets dropped, by routing drop reason (all)",
                labels=("reason",),
            ).held()
            self._latency_hist = registry.histogram(
                "delivery_latency_seconds",
                "end-to-end latency of delivered packets (all)",
                buckets=_LATENCY_BUCKETS,
            ).held()

    def _measured(self, packet: Packet) -> bool:
        return packet.created_at >= self._warmup_end

    # -- per-class funnel ----------------------------------------------------

    def _class_slot(self, traffic_class: str) -> List[int]:
        slot = self._class_counts.get(traffic_class)
        if slot is None:
            slot = self._class_counts[traffic_class] = [0, 0, 0, 0]
        return slot

    def _class_family(self, which: str) -> dict:
        """The held children of ``qos_class_<which>``, keyed by class
        (``dropped``: by ``(class, reason)``)."""
        held = self._class_families.get(which)
        if held is None:
            labels = ("class", "reason") if which == "dropped" else ("class",)
            held = self._class_families[which] = self._registry.counter(
                f"qos_class_{which}",
                f"QoS-marked packets {which}, by traffic class (all)",
                labels=labels,
            ).held()
        return held

    def _class_latency(self) -> dict:
        """The held children of ``qos_class_latency_seconds``; the
        family is created lazily on the first marked delivery (like the
        ``qos_class_*`` counters, so unmarked runs export exactly the
        metrics they always did)."""
        held = self._class_latency_hist
        if held is None:
            held = self._class_latency_hist = self._registry.histogram(
                "qos_class_latency_seconds",
                "end-to-end latency of delivered QoS-marked packets, "
                "by traffic class (all)",
                labels=("class",),
                buckets=_LATENCY_BUCKETS,
            ).held()
        return held

    def class_stats(self) -> Tuple[ClassStat, ...]:
        """Measured-window per-class funnels, in class priority order.

        Empty when the workload emitted no QoS-marked traffic.
        """
        return tuple(
            ClassStat(cls, *self._class_counts[cls])
            for cls in _CLASS_ORDER
            if cls in self._class_counts
        )

    def on_generated(self, packet: Packet) -> None:
        if self._probe is not None:
            self._probe.on_generated(packet)
        if self._generated_ctr is not None:
            self._generated_ctr[()].inc()
        if self._flight is not None:
            self._flight.generated(
                packet.uid, packet.created_at, packet.source,
                packet.destination,
            )
        if self._measured(packet):
            self.generated += 1
        cls = packet.traffic_class
        if cls is not None:
            if self._registry is not None:
                self._class_family("generated")[cls].inc()
            if self._measured(packet):
                self._class_slot(cls)[0] += 1

    def on_delivered(self, packet: Packet) -> None:
        if self._probe is not None:
            self._probe.on_delivered(packet)
        latency = packet.latency(self._sim.now)
        if self._delivered_ctr is not None:
            self._delivered_ctr[()].inc()
            self._latency_hist[()].observe(latency)
        if self._flight is not None:
            self._flight.delivered(
                packet.uid, self._sim.now, packet.destination,
                tuple(packet.hops),
            )
        cls = packet.traffic_class
        if cls is not None:
            missed = (
                packet.deadline is not None and latency > packet.deadline
            )
            if self._registry is not None:
                self._class_family("delivered")[cls].inc()
                self._class_latency()[cls].observe(latency)
                if missed:
                    self._class_family("deadline_missed")[cls].inc()
            if self._measured(packet):
                slot = self._class_slot(cls)
                slot[1] += 1
                if missed:
                    slot[2] += 1
        if not self._measured(packet):
            return
        self.delivered_total += 1
        self.all_delay.add(latency)
        if latency <= self._qos_deadline:
            self.delivered_qos += 1
            self.qos_bytes += packet.size_bytes
            self.delay.add(latency)

    def on_dropped(self, packet: Packet) -> None:
        if self._probe is not None:
            self._probe.on_dropped(packet)
        reason = packet.meta.get("drop_reason") or "unknown"
        if self._dropped_family is not None:
            self._dropped_family[reason].inc()
        if self._flight is not None:
            self._flight.dropped(packet.uid, self._sim.now, reason)
        if self._measured(packet):
            self.dropped += 1
        cls = packet.traffic_class
        if cls is not None:
            if self._registry is not None:
                self._class_family("dropped")[cls, reason].inc()
            if self._measured(packet):
                self._class_slot(cls)[3] += 1

    # -- summaries ----------------------------------------------------------

    def throughput_bps(self, measured_seconds: float) -> float:
        """QoS-guaranteed bits per second over the measured window."""
        if measured_seconds <= 0:
            raise ValueError("measured_seconds must be positive")
        return self.qos_bytes * 8.0 / measured_seconds

    @property
    def mean_delay(self) -> float:
        return self.delay.mean

    @property
    def delivery_ratio(self) -> float:
        if self.generated == 0:
            return 0.0
        return self.delivered_qos / self.generated
