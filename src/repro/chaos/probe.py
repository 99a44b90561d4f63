"""Recovery-time instrumentation.

:class:`ResilienceProbe` reads the workload's generated/delivered
packets in :data:`PROBE_WINDOW`-second sim-time windows (a packet
is attributed to the window it was *created* in, so each window's
delivery ratio is well defined even with in-flight tails).  Against a
chaos event log it reports, per fault injection, the pre-fault
baseline ratio, the trough during the fault, and the **time to
recovery** — how many windows pass before the ratio, having left a
band around the baseline, re-enters it.

Detection and repair latencies are the recovery stack's own record
(:class:`~repro.recovery.orchestrator.RecoveryReport`); the probe
measures delivery only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.chaos.models import FaultEvent

#: Width of one delivery-ratio window, sim seconds.
PROBE_WINDOW = 1.0

#: Windows before a fault whose aggregate ratio is its baseline.
BASELINE_WINDOWS = 3

#: How far below its baseline a window's ratio may sit and still count
#: as recovered.
RECOVERY_BAND = 0.1


@dataclass(frozen=True)
class FaultRecovery:
    """Recovery analysis around one fault-injection event."""

    event: FaultEvent
    baseline: float              # delivery ratio before the fault
    trough: float                # worst windowed ratio until recovery
                                 # (over the whole horizon if no dip)
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
    """Windowed delivery-ratio analysis around fault events.

    It reads two maps that a run's packet ledger folds
    (``PacketLedger.fold(warmup_end, PROBE_WINDOW)``): window index to
    the packets *created* in that window, and to those of them
    delivered.  Unlike the measured-window metrics they count every
    packet, warm-up included, because the pre-fault baseline may fall
    inside warm-up.
    """

    def __init__(
        self, generated: Mapping[int, int], delivered: Mapping[int, int]
    ) -> None:
        self._generated = generated
        self._delivered = delivered

    # -- recovery analysis ---------------------------------------------------

    def recovery_report(
        self, events: Sequence[FaultEvent]
    ) -> ResilienceSummary:
        """Time-to-recovery for every injection in ``events``.

        For each ``inject`` event: the baseline is the aggregate ratio
        of the :data:`BASELINE_WINDOWS` windows preceding it (1.0 when
        no prior traffic exists).  Its horizon runs from its own window
        up to (not including) the next later injection's window, or to
        the end of traffic, so an earlier fault never claims a later
        fault's dip.  The damage may land a window after the fault, so
        recovery is the first window back above ``baseline -``
        :data:`RECOVERY_BAND` *after* the first window below it; a
        fault whose horizon never leaves the band recovers in 0
        windows.  The trough is the worst windowed ratio from the
        event until recovery (the whole horizon when there is no dip
        or no recovery).
        """
        indices = sorted(self._generated)
        injected = sorted(
            int(event.time / PROBE_WINDOW)
            for event in events if event.kind == "inject"
        )
        records: List[FaultRecovery] = []
        for event in events:
            if event.kind != "inject":
                continue
            at = int(event.time / PROBE_WINDOW)
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
            until = next((w for w in injected if w > at), None)
            horizon = [
                i for i in indices
                if i >= at and (until is None or i < until)
            ]
            recovery_windows: Optional[int] = 0
            trough = 1.0 if horizon else baseline
            for i in horizon:
                ratio = self._delivered.get(i, 0) / self._generated[i]
                if ratio < target:
                    recovery_windows = None   # out of band: a dip
                elif recovery_windows is None:
                    recovery_windows = i - at
                    break
                trough = min(trough, ratio)
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
        return ResilienceSummary(window=PROBE_WINDOW, records=tuple(records))
