"""Recovery-time instrumentation.

:class:`ResilienceProbe` buckets the workload's generated/delivered
packets into :data:`PROBE_WINDOW`-second sim-time windows (a packet
is attributed to the window it was *created* in, so each window's
delivery ratio is well defined even with in-flight tails).  Against a
chaos event log it reports, per fault injection, the pre-fault
baseline ratio, the trough during the fault, and the **time to
recovery** — how many windows pass before the ratio re-enters a band
around the baseline.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.models import FaultEvent
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.telemetry.registry import Registry
from repro.util.stats import RunningStat

#: Width of one delivery-ratio window, sim seconds.
PROBE_WINDOW = 1.0

#: Windows before a fault whose aggregate ratio is its baseline.
BASELINE_WINDOWS = 3

#: How far below its baseline a window's ratio may sit and still count
#: as recovered.
RECOVERY_BAND = 0.1

#: Latency buckets for detection/repair histograms: sub-second through
#: multi-round detector horizons (seconds, ascending).
_LATENCY_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
)


@dataclass(frozen=True)
class WindowSample:
    """Delivery accounting for one probe window."""

    start: float
    generated: int
    delivered: int

    @property
    def ratio(self) -> float:
        return self.delivered / self.generated if self.generated else 0.0


@dataclass(frozen=True)
class FaultRecovery:
    """Recovery analysis around one fault-injection event."""

    event: FaultEvent
    baseline: float              # delivery ratio before the fault
    trough: float                # worst windowed ratio until recovery
    recovery_windows: Optional[int]   # windows until back in band (None: never)
    recovery_time_s: Optional[float]  # recovery_windows * window seconds

    @property
    def recovered(self) -> bool:
        return self.recovery_windows is not None


@dataclass(frozen=True)
class ResilienceSummary:
    """All fault recoveries of one run, plus aggregates."""

    window: float
    records: Tuple[FaultRecovery, ...]
    #: Mean sim-seconds from fault injection to the failure detector's
    #: condemnation verdict (0.0 when no recovery stack ran).
    detection_latency_s: float = 0.0
    #: Mean sim-seconds from fault injection to structural repair
    #: (vertex reassigned / CAN zone handed over).
    repair_latency_s: float = 0.0

    @property
    def fault_count(self) -> int:
        return len(self.records)

    @property
    def recovered_fraction(self) -> float:
        if not self.records:
            return 1.0
        hits = sum(1 for r in self.records if r.recovered)
        return hits / len(self.records)

    @property
    def mean_recovery_s(self) -> float:
        """Mean time-to-recovery over the recovered faults (0 if none)."""
        times = [
            r.recovery_time_s for r in self.records if r.recovery_time_s is not None
        ]
        return sum(times) / len(times) if times else 0.0

    @property
    def mean_trough(self) -> float:
        if not self.records:
            return 1.0
        return sum(r.trough for r in self.records) / len(self.records)


class ResilienceProbe:
    """Windowed delivery-ratio sampler around fault events.

    Wire it into the metrics path (``MetricsCollector(probe=...)``);
    unlike the collector it counts *every* packet, warm-up included,
    because the pre-fault baseline may fall inside warm-up.
    """

    def __init__(
        self, sim: Simulator, registry: Optional[Registry] = None
    ) -> None:
        self._sim = sim
        self._generated: Dict[int, int] = defaultdict(int)
        self._delivered: Dict[int, int] = defaultdict(int)
        self._detection = RunningStat()
        self._repair = RunningStat()
        self._detection_hist = None
        self._repair_hist = None
        if registry is not None:
            self._detection_hist = registry.histogram(
                "recovery_detection_latency_seconds",
                "fault injection to condemnation verdict",
                buckets=_LATENCY_BUCKETS,
            )
            self._repair_hist = registry.histogram(
                "recovery_repair_latency_seconds",
                "fault injection to structural repair",
                buckets=_LATENCY_BUCKETS,
            )

    # -- packet hooks --------------------------------------------------------

    def on_generated(self, packet: Packet) -> None:
        self._generated[self._index(packet.created_at)] += 1

    def on_delivered(self, packet: Packet) -> None:
        self._delivered[self._index(packet.created_at)] += 1

    # -- recovery-stack hooks ------------------------------------------------

    def on_detected(self, latency: float) -> None:
        """A failure detector condemned a faulted node ``latency``
        sim-seconds after the chaos model broke it."""
        latency = max(0.0, latency)
        self._detection.add(latency)
        if self._detection_hist is not None:
            self._detection_hist.observe(latency)

    def on_repaired(self, latency: float) -> None:
        """A structural repair (vertex reassignment or CAN takeover)
        landed ``latency`` sim-seconds after the fault."""
        latency = max(0.0, latency)
        self._repair.add(latency)
        if self._repair_hist is not None:
            self._repair_hist.observe(latency)

    def _index(self, when: float) -> int:
        return int(when / PROBE_WINDOW)

    # -- sampling ------------------------------------------------------------

    def samples(self) -> List[WindowSample]:
        """Every window that saw traffic, in time order."""
        return [
            WindowSample(
                start=index * PROBE_WINDOW,
                generated=self._generated[index],
                delivered=self._delivered.get(index, 0),
            )
            for index in sorted(self._generated)
        ]

    # -- recovery analysis ---------------------------------------------------

    def recovery_report(
        self, events: Sequence[FaultEvent]
    ) -> ResilienceSummary:
        """Time-to-recovery for every injection in ``events``.

        For each ``inject`` event: the baseline is the aggregate ratio
        of the :data:`BASELINE_WINDOWS` windows preceding it (1.0 when
        no prior traffic exists); recovery is the first window at or
        after the event whose ratio climbs back above ``baseline -``
        :data:`RECOVERY_BAND`.  The trough is the worst windowed ratio
        from the event until recovery (or until traffic ends, if
        recovery never comes).
        """
        indices = sorted(self._generated)
        records: List[FaultRecovery] = []
        for event in events:
            if event.kind != "inject":
                continue
            at = self._index(event.time)
            before = [
                i for i in indices if at - BASELINE_WINDOWS <= i < at
            ]
            if before:
                gen = sum(self._generated[i] for i in before)
                dlv = sum(self._delivered.get(i, 0) for i in before)
                baseline = dlv / gen if gen else 1.0
            else:
                baseline = 1.0
            target = max(0.0, baseline - RECOVERY_BAND)
            after = [i for i in indices if i >= at]
            recovery_windows: Optional[int] = None
            trough = 1.0
            for i in after:
                sample_ratio = (
                    self._delivered.get(i, 0) / self._generated[i]
                )
                trough = min(trough, sample_ratio)
                if sample_ratio >= target:
                    recovery_windows = i - at
                    break
            if not after:
                # No traffic after the fault: nothing observable broke.
                recovery_windows = 0
                trough = baseline
            records.append(
                FaultRecovery(
                    event=event,
                    baseline=baseline,
                    trough=trough,
                    recovery_windows=recovery_windows,
                    recovery_time_s=(
                        recovery_windows * PROBE_WINDOW
                        if recovery_windows is not None
                        else None
                    ),
                )
            )
        return ResilienceSummary(
            window=PROBE_WINDOW,
            records=tuple(records),
            detection_latency_s=self._detection.mean,
            repair_latency_s=self._repair.mean,
        )
