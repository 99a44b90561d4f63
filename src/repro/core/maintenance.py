"""Topology maintenance: probing and node replacement (Section III-B4).

Every round, each sensor-held Kautz node probes its Kautz neighbours
(one broadcast, received by each neighbour).  A node is replaced when
it is no longer usable, its battery falls below the threshold, or the
sensed link quality to any Kautz neighbour drops below the breakage
threshold — the paper's "links about to break" signal.  Replacement
selects the best wait-state candidate: a usable non-member sensor in
range of all the node's Kautz neighbours with the highest battery.

Two detection modes exist.  The default (seed) mode reads liveness and
battery straight off the node object — omniscient, kept for figure
parity.  With a :class:`~repro.recovery.detector.FailureDetector`
installed via :meth:`TopologyMaintenance.set_detector`, maintenance
acts only on *message-grounded* evidence: the detector's condemnation
verdicts and the battery levels targets self-reported in heartbeat
replies.  In detector mode this module performs no ``node.usable``
reads at all (a test enforces that), and the detector's heartbeats —
charged to the same ``probe`` energy kind — replace the per-round
probe broadcast.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cell import EmbeddedCell
from repro.kautz.strings import KautzString
from repro.net.network import WirelessNetwork
from repro.sim.process import PeriodicProcess
from repro.telemetry.registry import Registry
from repro.telemetry.views import StatsView, counter_field
from repro.util.stats import RunningStat
from repro.wsan.duty_cycle import DutyCycleManager

#: A Kautz edge whose link quality falls below this is replaced.
LINK_THRESHOLD = 0.15
#: A member whose battery fraction falls below this is replaced.
BATTERY_THRESHOLD = 0.05
#: Seconds between maintenance rounds.
MAINTENANCE_PERIOD = 2.0


class MaintenanceStats(StatsView):
    """Maintenance counters, as ``maintenance_*`` registry metrics."""

    _group = "maintenance"

    probes = counter_field("per-round probe broadcasts sent")
    replacements = counter_field("vertices successfully reassigned")
    failed_replacements = counter_field("replacements with no candidate")
    rounds = counter_field("maintenance rounds executed")
    #: Replacements of vertices whose node a chaos fault had broken
    #: (attributable only when a fault clock is installed).
    fault_replacements = counter_field("replacements of chaos-broken vertices")

    def __init__(self, registry: Optional[Registry] = None) -> None:
        super().__init__(registry)
        #: Sim-seconds from vertex break to successful reassignment.
        #: The break time comes from the chaos fault clock when
        #: available and otherwise from the first maintenance round
        #: that saw the vertex broken (an upper bound one probe period
        #: coarse).
        self.replacement_latency = RunningStat()


class TopologyMaintenance:
    """Periodic probe-and-replace across all embedded cells."""

    def __init__(
        self,
        network: WirelessNetwork,
        cells: Sequence[EmbeddedCell],
        duty: DutyCycleManager,
        rng: random.Random,
        is_member: Callable[[int], bool],
        claim: Callable[[int], None],
        release: Callable[[int], None],
    ) -> None:
        self.network = network
        self.cells = list(cells)
        self.duty = duty
        self.rng = rng
        self.stats = MaintenanceStats(registry=network.registry)
        self._is_member = is_member
        self._claim = claim
        self._release = release
        # (cid, kid) -> sim time the vertex was first seen broken;
        # feeds MaintenanceStats.replacement_latency.
        self._first_broken: Dict[Tuple[int, KautzString], float] = {}
        # Optional chaos hook: node_id -> sim time it was failed.
        self._fault_clock: Optional[Callable[[int], Optional[float]]] = None
        # Optional message-grounded failure detector; when set, all
        # liveness/battery judgements come from its verdicts.
        self._detector = None
        self._process: Optional[PeriodicProcess] = None

    def start(self, initial_delay: float = 0.0) -> None:
        if self._process is None:
            self._process = PeriodicProcess(
                self.network.sim, period=MAINTENANCE_PERIOD,
                action=self._round, jitter=MAINTENANCE_PERIOD / 10.0,
                rng=self.rng,
            )
        self._process.start(initial_delay)

    def stop(self) -> None:
        """Stop the rounds and drop their process: it holds
        :meth:`_round`, so keeping it would be a cycle."""
        if self._process is not None:
            self._process.stop()
            self._process = None

    def set_fault_clock(
        self, clock: Optional[Callable[[int], Optional[float]]]
    ) -> None:
        """Install a chaos hook reporting when a node was failed.

        With the hook, :attr:`MaintenanceStats.replacement_latency`
        measures from the actual break instant instead of from the
        detecting probe round, and fault-attributable replacements are
        counted separately.
        """
        self._fault_clock = clock

    def set_detector(self, detector) -> None:
        """Switch to message-grounded detection.

        ``detector`` follows the
        :class:`~repro.recovery.detector.FailureDetector` verdict API
        (``condemned(node_id)``, ``reported_battery(node_id)``).  With
        it installed, rounds stop probing (the detector's heartbeats
        pay that energy) and stop reading ``node.usable`` /
        ``node.battery_fraction``; pass ``None`` to restore the
        omniscient seed behaviour.
        """
        self._detector = detector

    def _presumed_live(self, node_id: int) -> bool:
        """Whether the node is believed alive under the active mode."""
        if self._detector is not None:
            return not self._detector.condemned(node_id)
        return self.network.node(node_id).usable

    # ------------------------------------------------------------------

    def _round(self) -> None:
        self.stats.rounds += 1
        now = self.network.sim.now
        for cell in self.cells:
            for kid in cell.assigned_kids:
                if cell.is_actuator_kid(kid):
                    continue
                self._check_node(cell, kid, now)

    def _assigned_neighbors(
        self, cell: EmbeddedCell, kid: KautzString
    ) -> List[int]:
        return [
            cell.node_of(nb)
            for nb in cell.kautz_neighbors_of(kid)
            if cell.kid_assigned(nb)
        ]

    def _check_node(
        self, cell: EmbeddedCell, kid: KautzString, now: float
    ) -> None:
        node_id = cell.node_of(kid)
        neighbors = self._assigned_neighbors(cell, kid)
        if self._detector is None:
            # Probe: one broadcast, heard by each Kautz neighbour.
            node = self.network.node(node_id)
            self.stats.probes += 1
            self.network.charge_tx(node_id, "probe")
            self.network.charge_rx_each(neighbors, "probe")
            alive = (
                node.usable
                and node.battery_fraction >= BATTERY_THRESHOLD
            )
        else:
            # Detector mode: the heartbeat traffic (already charged to
            # the probe ledger) replaces the broadcast, and liveness /
            # battery come from verdicts and self-reports only.
            alive = (
                not self._detector.condemned(node_id)
                and self._detector.reported_battery(node_id)
                >= BATTERY_THRESHOLD
            )
        current_quality = min(
            self.network.medium.link_margins(node_id, neighbors, now),
            default=1.0,
        )
        # A vertex is *broken* when the node itself is gone or a Kautz
        # edge is already physically dead — any replacement beats it.
        broken = not alive or current_quality <= 0.0
        break_key = (cell.cid, kid)
        if broken:
            self._first_broken.setdefault(break_key, now)
        else:
            # The vertex healed on its own (fault recovered, link came
            # back) — a later break starts a fresh latency window.
            self._first_broken.pop(break_key, None)
        if broken or current_quality < LINK_THRESHOLD:
            self._replace(
                cell, kid, node_id, neighbors, now, broken, current_quality
            )

    def _replace(
        self,
        cell: EmbeddedCell,
        kid: KautzString,
        node_id: int,
        neighbors: List[int],
        now: float,
        must_replace: bool,
        current_quality: float = 0.0,
    ) -> None:
        if must_replace:
            found = self._find_candidate(neighbors, now)
            if found is not None and self._presumed_live(node_id):
                # Replacing a live-but-degraded vertex only makes sense
                # if the candidate restores strictly more Kautz edges.
                medium = self.network.medium
                current_covered = sum(
                    1
                    for nb in neighbors
                    if medium.can_transmit(node_id, nb, now)
                    and medium.can_transmit(nb, node_id, now)
                )
                if found[1] <= current_covered:
                    found = None
            candidate = None if found is None else found[0]
        else:
            # A weak-link replacement must actually improve matters:
            # the candidate has to clear the breakage threshold, not
            # merely match the incumbent — otherwise the cell churns.
            candidate = self._find_stronger(
                neighbors, now, max(current_quality, LINK_THRESHOLD)
            )
        if candidate is None:
            self.stats.failed_replacements += 1
            return
        old = cell.reassign(kid, candidate)
        self._release(old)
        self._claim(candidate)
        self.duty.replace(old, candidate)
        self.stats.replacements += 1
        self._note_replacement_latency(cell, kid, node_id, now)
        # Notification messages: the departing node (or, if it is
        # believed gone, the candidate) informs each Kautz neighbour.
        announcer = node_id if self._presumed_live(node_id) else candidate
        self.network.charge_tx(announcer, "control")
        self.network.charge_rx_each(neighbors, "control")

    def _note_replacement_latency(
        self, cell: EmbeddedCell, kid: KautzString, node_id: int, now: float
    ) -> None:
        """Record break->reassignment latency for a replaced vertex."""
        detected = self._first_broken.pop((cell.cid, kid), None)
        break_time = None
        if self._fault_clock is not None:
            break_time = self._fault_clock(node_id)
            if break_time is not None:
                self.stats.fault_replacements += 1
        if break_time is None:
            break_time = detected
        if break_time is not None:
            self.stats.replacement_latency.add(max(0.0, now - break_time))

    def _wait_state_near(self, anchors: List[int], now: float) -> List[int]:
        """Usable-or-not non-member sensors in the neighbourhood of any
        anchor, each once, in scan order — candidates must be locally
        reachable, exactly like wait-state probing.  The tuples are the
        whole graph's: liveness is the link test's to read, at ``now``,
        not the tuple's to have frozen."""
        medium = self.network.medium
        nodes = medium.node_table
        seen: set = set()
        found: List[int] = []
        for anchor in anchors:
            for s in medium.neighbors(anchor, now, require_usable=False):
                if s in seen:
                    continue
                seen.add(s)
                if nodes[s].is_sensor and not self._is_member(s):
                    found.append(s)
        return found

    def _find_candidate(
        self, neighbors: List[int], now: float
    ) -> Optional[Tuple[int, int]]:
        """Best usable non-member sensor near a broken node's Kautz
        links, with how many of them it covers.

        Prefers candidates covering every Kautz neighbour; a partial-
        coverage candidate is accepted too — a weak link now beats a
        dead vertex, and the next maintenance round keeps improving it.
        """
        medium = self.network.medium
        nodes = medium.node_table
        candidates = self._wait_state_near(neighbors, now)
        best = None
        best_key = None
        for s, (covered, qualities) in zip(
            candidates, medium.link_margins_each(candidates, neighbors, now)
        ):
            if covered == 0:
                continue
            key = (covered, min(qualities), nodes[s].battery_fraction, -s)
            if best_key is None or key > best_key:
                best, best_key = s, key
        if best is None:
            return None
        return (best, best_key[0])

    def _find_stronger(
        self, neighbors: List[int], now: float, floor: float
    ) -> Optional[int]:
        """The candidate a weak (not broken) vertex may be handed to.

        That is :meth:`_find_candidate`'s pick, *if* it covers every
        Kautz neighbour with every margin above ``floor`` — which it
        does exactly when some candidate does, full coverage and then
        the weakest margin leading its ranking.  Most weak vertices
        have no such candidate, so this scan only looks for one: it
        drops a candidate at its first link that fails
        (:meth:`WirelessMedium.links_above`) and, since a winner is
        well inside *every* anchor's range, gathers from the first
        anchor's neighbourhood alone whenever the bucket's snapshot
        cannot have missed it (:meth:`WirelessMedium.snapshot_covers`).
        """
        medium = self.network.medium
        anchors = neighbors[:1] if medium.snapshot_covers(floor) else neighbors
        nodes = medium.node_table
        best = max(
            (
                (weakest, nodes[s].battery_fraction, -s)
                for s, weakest in medium.links_above(
                    self._wait_state_near(anchors, now), neighbors, now, floor
                )
            ),
            default=None,
        )
        return None if best is None else -best[2]
