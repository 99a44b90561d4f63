"""The recovery orchestrator: verdicts in, repair actions out.

:class:`RecoveryOrchestrator` owns the three recovery layers for one
REFER run and wires them to the stack:

* it builds the :class:`~repro.recovery.detector.FailureDetector` and
  feeds it watch pairs — every assigned Kautz vertex is probed by one
  of its (rotating, non-condemned) Kautz neighbours each round, and
  every actuator additionally by the next live actuator in id order;
* detector verdicts drive repair: a condemned actuator's CAN zones are
  handed over by the :class:`~repro.recovery.healer.CanHealer` (and
  rejoin on absolution), while condemned sensors are consumed by
  ``TopologyMaintenance`` (installed via ``set_detector``) on its next
  round;
* the ARQ layer is installed between the router and the MAC;
* cell-membership observers close the loop on time-to-repair: the span
  from fault (audit clock) or condemnation to the reassignment /
  takeover that repaired it.

:meth:`report` condenses a run into a frozen
:class:`RecoveryReport` — detection fidelity (false positives, missed
faults, time-to-detect), ARQ and CAN repair counters — which the
resilience campaign surfaces per fault class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.models import FaultEvent
from repro.net.network import WirelessNetwork
from repro.recovery.arq import ArqLink
from repro.recovery.detector import FailureDetector, VerdictEvent
from repro.recovery.healer import CanHealer
from repro.util.stats import RunningStat

__all__ = ["RecoveryOrchestrator", "RecoveryReport"]

#: Fault models whose ``inject`` events actually break nodes (battery
#: depletion degrades without killing; link bursts carry no nodes).
_NODE_KILLING_MODELS = (
    "crash-rotation",
    "permanent-crash",
    "actuator-outage",
    "regional-blackout",
)


@dataclass(frozen=True)
class RecoveryReport:
    """Detection/repair outcome of one recovery-enabled run."""

    probes_sent: int
    replies: int
    misses: int
    condemnations: int
    absolutions: int
    false_positives: int
    #: Watched nodes a chaos fault killed that were never condemned
    #: during the outage (outages shorter than the detection horizon
    #: count — the detector did miss them).
    missed_faults: int
    mean_time_to_detect_s: float
    mean_time_to_repair_s: float
    arq_attempts: int
    arq_retransmissions: int
    arq_recovered: int
    arq_duplicates_suppressed: int
    arq_exhausted: int
    can_takeovers: int
    can_rejoins: int
    can_rehomed_keys: int

    @property
    def false_positive_rate(self) -> float:
        """False positives per condemnation (0 when none condemned)."""
        if not self.condemnations:
            return 0.0
        return self.false_positives / self.condemnations


class RecoveryOrchestrator:
    """Builds, wires and reports the recovery layers for one run."""

    def __init__(
        self,
        network: WirelessNetwork,
        system,
        detector_rng: random.Random,
        arq_rng: random.Random,
        audit_clock: Optional[Callable[[int], Optional[float]]] = None,
    ) -> None:
        """``system`` is a built :class:`~repro.core.system.ReferSystem`
        (duck-typed: ``cells``, ``plan``, ``router``, ``maintenance``);
        ``audit_clock`` is the chaos fail-time hook used only for
        instrumentation."""
        self._network = network
        self._system = system
        self._audit_clock = audit_clock
        self._round = 0
        self._actuators = tuple(range(system.plan.actuator_count))
        #: node -> reference time for the pending repair (fault time
        #: when the audit clock knows it, else condemnation time).
        self._pending_repairs: Dict[int, float] = {}
        self.repair_latency = RunningStat()

        self.detector = FailureDetector(
            network,
            detector_rng,
            pairs=self._watch_pairs,
            audit_usable=self._ground_truth_usable,
            audit_clock=audit_clock,
        )
        self.detector.add_listener(self._on_verdict)

        router = system.router
        self.arq = ArqLink(network, arq_rng)
        router.set_reliable_link(self.arq)

        self.healer = CanHealer(system.plan, registry=network.registry)
        router.set_can_healer(self.healer)

        system.maintenance.set_detector(self.detector)
        for cell in system.cells:
            cell.add_observer(self._membership_changed)

    # -- lifecycle ---------------------------------------------------------

    def start(self, initial_delay: float = 0.0) -> None:
        self.detector.start(initial_delay)

    def stop(self) -> None:
        """Stop the detector and unregister from the cells: nothing
        the system holds refers to this orchestrator afterwards, and
        :meth:`report` still reads every layer's stats."""
        self.detector.stop()
        for cell in self._system.cells:
            cell.remove_observer(self._membership_changed)

    # -- watch-pair schedule ----------------------------------------------

    def _watch_pairs(self) -> List[Tuple[int, int]]:
        """This round's (monitor, target) list.

        Each assigned vertex is watched by one of its assigned Kautz
        neighbours, rotating round-robin so a dead or partitioned
        monitor cannot silently starve a target of probes.  Actuators
        get a second watcher: the next non-condemned actuator in id
        order (the CAN tier watches itself).
        """
        index = self._round
        self._round += 1
        pairs: List[Tuple[int, int]] = []
        covered: set = set()
        for cell in self._system.cells:
            for kid in cell.assigned_kids:
                target = cell.node_of(kid)
                if target in covered:
                    continue
                monitors = sorted(
                    cell.node_of(nb)
                    for nb in cell.kautz_neighbors_of(kid)
                    if cell.kid_assigned(nb)
                )
                monitors = [
                    m
                    for m in monitors
                    if m != target and not self.detector.condemned(m)
                ]
                if not monitors:
                    continue
                covered.add(target)
                pairs.append((monitors[index % len(monitors)], target))
        ring = [
            a for a in self._actuators if not self.detector.condemned(a)
        ]
        for target in self._actuators:
            peers = [a for a in ring if a != target]
            if peers:
                pairs.append((peers[index % len(peers)], target))
        return pairs

    # -- verdict handling --------------------------------------------------

    def _ground_truth_usable(self, node_id: int) -> bool:
        """Audit-only ground truth for the false-positive counter."""
        return self._network.node(node_id).usable

    def _on_verdict(self, event: VerdictEvent) -> None:
        node_id = event.node_id
        if event.kind == "condemn":
            reference = event.time
            if self._audit_clock is not None:
                failed_at = self._audit_clock(node_id)
                if failed_at is not None:
                    reference = failed_at
            if node_id in self._actuators:
                self.healer.condemn(node_id)
                # The takeover itself is immediate: zones and keys
                # re-home synchronously with the verdict.
                self._note_repaired(event.time - reference)
            else:
                # Sensors are repaired by the next maintenance round;
                # the membership observer closes this window.
                self._pending_repairs[node_id] = reference
        else:
            if node_id in self._actuators:
                self.healer.absolve(node_id)
            else:
                # The node came back before maintenance replaced it.
                self._pending_repairs.pop(node_id, None)

    def _membership_changed(
        self, kid, old: Optional[int], new: int
    ) -> None:
        if old is None:
            return
        reference = self._pending_repairs.pop(old, None)
        if reference is not None:
            self._note_repaired(self._network.sim.now - reference)
        # The departed node is out of the monitored set; a future
        # return deserves a fresh suspicion history.
        self.detector.forget(old)

    def _note_repaired(self, latency: float) -> None:
        self.repair_latency.add(max(0.0, latency))

    # -- reporting ---------------------------------------------------------

    def report(
        self, fault_events: Sequence[FaultEvent] = ()
    ) -> RecoveryReport:
        """Condense the run's recovery behaviour into one record."""
        stats = self.detector.stats
        arq = self.arq.stats
        healer = self.healer.stats
        return RecoveryReport(
            probes_sent=stats.probes_sent,
            replies=stats.replies,
            misses=stats.misses,
            condemnations=stats.condemnations,
            absolutions=stats.absolutions,
            false_positives=stats.false_positives,
            missed_faults=self._missed_faults(fault_events),
            mean_time_to_detect_s=stats.detection_latency.mean,
            mean_time_to_repair_s=self.repair_latency.mean,
            arq_attempts=arq.attempts,
            arq_retransmissions=arq.retransmissions,
            arq_recovered=arq.recovered_by_retransmit,
            arq_duplicates_suppressed=arq.duplicates_suppressed,
            arq_exhausted=arq.exhausted,
            can_takeovers=healer.takeovers,
            can_rejoins=healer.rejoins,
            can_rehomed_keys=healer.rehomed_keys,
        )

    def _missed_faults(self, events: Sequence[FaultEvent]) -> int:
        """Watched, killed nodes with no condemnation during the outage."""
        recover_times: Dict[int, List[float]] = {}
        for event in events:
            if event.kind != "recover":
                continue
            for node in event.nodes:
                recover_times.setdefault(node, []).append(event.time)
        condemned_at: Dict[int, List[float]] = {}
        for verdict in self.detector.verdicts:
            if verdict.kind == "condemn":
                condemned_at.setdefault(verdict.node_id, []).append(
                    verdict.time
                )
        missed = 0
        for event in events:
            if event.kind != "inject":
                continue
            if event.model not in _NODE_KILLING_MODELS:
                continue
            for node in event.nodes:
                if not self.detector.was_watched(node):
                    continue
                recovered = [
                    t for t in recover_times.get(node, ())
                    if t >= event.time
                ]
                window_end = min(recovered) if recovered else float("inf")
                hits = [
                    t for t in condemned_at.get(node, ())
                    if event.time <= t <= window_end
                ]
                if not hits:
                    missed += 1
        return missed
