"""REFER's routing protocol (Section III-C2).

Intra-cell: hop-by-hop greedy shortest Kautz routing; when the best
successor cannot take the message (failed node, broken link, MAC
drop), the relay consults the Theorem 3.8 table and tries the second,
third, ... shortest disjoint path — locally, with no notification of
the source and no route discovery.

Inter-cell: actuators forward toward the destination cell by choosing
the neighbouring actuator whose cell coordinates are closest to the
destination CID (the CAN greedy rule), then intra-cell routing
delivers within the destination cell.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cell import EmbeddedCell
from repro.core.ids import ReferId
from repro.dht.can import CanOverlay
from repro.errors import DHTError, KautzError, RoutingError
from repro.kautz.disjoint import successor_table
from repro.kautz.namespace import kautz_distance
from repro.kautz.strings import KautzString
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet
from repro.telemetry.views import StatsView, counter_field
from repro.util.geometry import Point
from repro.wsan.deployment import Cell, DeploymentPlan

DeliveredCallback = Callable[[Packet], None]
DroppedCallback = Callable[[Packet], None]

#: Hop budget of one intra-cell route.
MAX_HOPS = 40


class RoutingStats(StatsView):
    """Router counters, as ``routing_*`` registry metrics."""

    _group = "routing"

    intra_messages = counter_field("intra-cell routing invocations")
    inter_messages = counter_field("messages crossing the actuator tier")
    detours = counter_field("non-best successors taken")
    congestion_detours = counter_field("successors skipped for backlog")
    drops = counter_field("end-to-end packets dropped by the router")
    entry_relays = counter_field("hops spent reaching a cell member")
    fault_detours = counter_field("detours while chaos faults were active")
    fault_drops = counter_field("drops while chaos faults were active")
    #: Hops saved by an ARQ retransmission (recovery layer installed);
    #: ``detours`` counts the hops that needed Theorem 3.8 switching
    #: instead — together they split recovery between the two layers.
    retransmit_recovered = counter_field("hops saved by an ARQ retransmit")


class ReferRouter:
    """Routes packets over the embedded cells and the actuator tier."""

    def __init__(
        self,
        network: WirelessNetwork,
        plan: DeploymentPlan,
        cells: Sequence[EmbeddedCell],
        congestion_threshold: float = 0.05,
    ) -> None:
        """``congestion_threshold``: a successor whose radio queue
        would delay the packet by more than this many seconds counts as
        *congested* and the next disjoint path is tried instead —
        Section III-C2 detours on "congested/failed" successors alike."""
        self.network = network
        self.plan = plan
        self.cells = {cell.cid: cell for cell in cells}
        self.stats = RoutingStats(registry=network.registry)
        self._congestion_threshold = congestion_threshold
        # node -> cell lookups happen per packet (twice per send_to),
        # so the linear scan over cells is cached; membership changes
        # invalidate through the cells' observer hook.
        self._holding_cache: Dict[int, Optional[EmbeddedCell]] = {}
        # Entry ranking asks which of a cell's ~39 members a source can
        # reach, per packet, to find ~5: per cell and source, the
        # members near enough to matter for a while, as
        # ``WirelessMedium.near`` gave them: ``(good until, ids)``.  A
        # membership change drops its cell's lists; simulation time
        # does not run backwards, so a list is never asked about an
        # instant before it was made.
        self._near_members: Dict[int, Dict[int, Tuple[float, List[int]]]] = {
            cell.cid: {} for cell in cells
        }
        for cell in cells:
            cell.add_observer(partial(self._membership_changed, cell.cid))
        # When the chaos subsystem is active the runner installs a
        # zero-argument probe here so detours/drops can be attributed
        # to live fault activity (RoutingStats.fault_*).
        self._fault_activity: Optional[Callable[[], bool]] = None
        # Recovery hooks (repro.recovery): an ARQ link layer replacing
        # network.send for every hop, and a CAN healer whose suspected
        # set the actuator tier routes around.
        self._reliable_link = None
        self._healer = None
        # QoS hook (repro.qos): hop-level backpressure state; congested
        # successors are deprioritised like radio-backlogged ones.
        self._qos_state = None
        # The DHT upper tier (Section III-B3): one CAN zone per cell,
        # keyed by the cell's normalised centroid.  Inter-cell messages
        # follow the CAN route through cell space; each cell hop is
        # realised by an actuator the two cells share (adjacent
        # triangles always share an edge of two actuators).
        self.can = CanOverlay()
        self._cell_points = {}
        for spec in plan.cells:
            point = spec.can_point(plan.area_side)
            self.can.join(spec.cid, point)
            self._cell_points[spec.cid] = point

    # ------------------------------------------------------------------
    # membership helpers
    # ------------------------------------------------------------------

    def set_fault_activity(self, probe: Optional[Callable[[], bool]]) -> None:
        """Install a probe reporting whether chaos faults are active now."""
        self._fault_activity = probe

    def set_reliable_link(self, link) -> None:
        """Route every hop through an ARQ layer (``None`` restores raw
        ``network.send``).  ``link`` must expose the ``send`` signature
        of :meth:`WirelessNetwork.send` —
        :class:`~repro.recovery.arq.ArqLink` does."""
        self._reliable_link = link

    def set_can_healer(self, healer) -> None:
        """Install a :class:`~repro.recovery.healer.CanHealer`: the
        actuator tier avoids its ``suspected`` set and follows its
        actuator-keyed CAN route before the CID fallback."""
        self._healer = healer

    def set_qos_state(self, state) -> None:
        """Install a :class:`~repro.qos.backpressure.BackpressureState`:
        successors it marks congested are deprioritised in favour of
        the next Theorem 3.8 disjoint path — the upstream half of
        hop-level backpressure."""
        self._qos_state = state

    def note_retransmit_recovered(self) -> None:
        """ARQ callback: one hop was saved by a retransmission."""
        self.stats.retransmit_recovered += 1

    def _qos_guard(self, on_dropped, retry):
        """Wrap a hop-failure continuation to honour QoS verdicts.

        A frame the QoS layer condemned (deadline expired, shed under
        backpressure) fails its hop with ``meta["qos_terminal"]``
        stamped; retrying it over the remaining disjoint paths would
        only re-refuse it at every attempt, so the packet is dropped
        terminally under its QoS reason instead.  Without a QoS
        scheduler installed the continuation passes through untouched.
        """
        if self.network.mac.qos is None:
            return retry

        def guarded(pkt: Packet, at: int) -> None:
            terminal = pkt.meta.get("qos_terminal")
            if terminal is not None:
                self._drop(pkt, on_dropped, terminal)
                return
            retry(pkt, at)

        return guarded

    def _unicast(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        on_delivered=None,
        on_failed=None,
        deliver_to_handler: bool = True,
    ) -> None:
        """One hop through the ARQ layer when installed, else the MAC."""
        link = self._reliable_link
        if link is not None:
            link.send(
                src_id, dst_id, packet,
                on_delivered=on_delivered,
                on_failed=on_failed,
                deliver_to_handler=deliver_to_handler,
            )
        else:
            self.network.send(
                src_id, dst_id, packet,
                on_delivered=on_delivered,
                on_failed=on_failed,
                deliver_to_handler=deliver_to_handler,
            )

    def _fault_active(self) -> bool:
        return self._fault_activity is not None and self._fault_activity()

    def _membership_changed(
        self, cid: int, kid: KautzString, old: Optional[int], new: int
    ) -> None:
        if old is not None:
            self._holding_cache.pop(old, None)
        self._holding_cache.pop(new, None)
        self._near_members[cid].clear()

    def cell_holding(self, node_id: int) -> Optional[EmbeddedCell]:
        """The cell (if any) in which ``node_id`` currently holds a KID.

        Cached per node; maintenance reassignments invalidate exactly
        the two ids they touch, so repeated per-packet lookups are O(1)
        while preserving the first-cell-in-cid-order tie-break for
        actuators that belong to several cells.
        """
        try:
            return self._holding_cache[node_id]
        except KeyError:
            pass
        holding: Optional[EmbeddedCell] = None
        for cell in self.cells.values():
            if cell.holds(node_id):
                holding = cell
                break
        self._holding_cache[node_id] = holding
        return holding

    def cell_at(self, position: Point) -> EmbeddedCell:
        spec = self.plan.cell_of_point(position)
        return self.cells[spec.cid]

    def _actuator_cells(self, actuator_id: int) -> List[EmbeddedCell]:
        return [
            cell for cell in self.cells.values() if cell.holds(actuator_id)
        ]

    def _nearest_actuator(
        self, cell: EmbeddedCell, position: Point, now: float
    ) -> int:
        """The cell's closest actuator, avoiding suspected ones.

        With a healer installed, actuators the failure detector has
        condemned are skipped so traffic re-aims at a live collection
        point; if every actuator of the cell is suspected the full set
        is used (best effort beats a guaranteed drop).
        """
        actuators = [cell.node_of(kid) for kid in cell.actuator_kids]
        if self._healer is not None:
            live = [
                a for a in actuators if a not in self._healer.suspected
            ]
            if live:
                actuators = live
        return min(
            actuators,
            key=lambda a: self.network.node(a).position(now).distance_to(
                position
            ),
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def send_to_actuator(
        self,
        source_id: int,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback] = None,
        on_dropped: Optional[DroppedCallback] = None,
    ) -> None:
        """Deliver to the nearest actuator of the source's cell."""
        now = self.network.sim.now
        position = self.network.node(source_id).position(now)
        member_cell = self.cell_holding(source_id)
        cell = member_cell if member_cell is not None else self.cell_at(position)
        dest_actuator = self._nearest_actuator(cell, position, now)
        dest_kid = cell.kid_of(dest_actuator)
        packet.destination = dest_actuator
        self._enter_and_route(
            source_id, cell, dest_kid, packet, on_delivered, on_dropped
        )

    def send_to(
        self,
        source_id: int,
        dest: ReferId,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback] = None,
        on_dropped: Optional[DroppedCallback] = None,
    ) -> None:
        """Deliver to an arbitrary (CID, KID) destination.

        Intra-cell if the source's cell matches; otherwise the packet
        goes to the local actuator, crosses the actuator tier to the
        destination cell, and finishes intra-cell (Section III-C2).
        """
        if dest.cid not in self.cells:
            raise RoutingError(f"unknown destination cell {dest.cid}")
        dest_cell = self.cells[dest.cid]
        if not dest_cell.kid_assigned(dest.kid):
            raise RoutingError(f"destination KID {dest.kid} unassigned")
        packet.destination = dest_cell.node_of(dest.kid)
        now = self.network.sim.now
        position = self.network.node(source_id).position(now)
        member_cell = self.cell_holding(source_id)
        src_cell = member_cell if member_cell is not None else self.cell_at(position)
        if src_cell.cid == dest.cid:
            self._enter_and_route(
                source_id, src_cell, dest.kid, packet,
                on_delivered, on_dropped,
            )
            return
        # Route to the local actuator first, then across the tier.
        self.stats.inter_messages += 1
        local_actuator = self._nearest_actuator(src_cell, position, now)

        def at_actuator(pkt: Packet) -> None:
            self._route_tier(
                local_actuator, dest, pkt, on_delivered, on_dropped
            )

        self._enter_and_route(
            source_id,
            src_cell,
            src_cell.kid_of(local_actuator),
            packet,
            on_delivered=at_actuator,
            on_dropped=on_dropped,
        )

    # ------------------------------------------------------------------
    # entry: reaching a cell member from an arbitrary sensor
    # ------------------------------------------------------------------

    def _enter_and_route(
        self,
        source_id: int,
        cell: EmbeddedCell,
        dest_kid: KautzString,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
    ) -> None:
        if cell.holds(source_id):
            self._route_intra(
                source_id, cell, dest_kid, packet,
                on_delivered, on_dropped,
            )
            return
        now = self.network.sim.now
        position = self.network.node(source_id).position(now)
        candidates = self._ranked_members(source_id, cell, now, dest_kid)
        if candidates:
            self._enter_via_members(
                source_id, candidates, cell, dest_kid, packet,
                on_delivered, on_dropped,
            )
            return
        # One wake-on-demand relay toward the nearest member.
        nearest_member = min(
            cell.member_ids,
            key=lambda m: self.network.node(m).position(now).distance_to(
                position
            ),
            default=None,
        )
        if nearest_member is None:
            self._drop(packet, on_dropped, "no-cell-member")
            return
        target_pos = self.network.node(nearest_member).position(now)
        relays = [
            nb
            for nb in self.network.neighbors(source_id)
            if self.network.node(nb).is_sensor and not cell.holds(nb)
        ]
        if not relays:
            self._drop(packet, on_dropped, "no-entry-relay")
            return
        ordered = sorted(
            relays,
            key=lambda r: self.network.node(r).position(now).distance_to(
                target_pos
            ),
        )[:3]
        self.stats.entry_relays += 1
        self._try_relays(
            source_id, ordered, cell, dest_kid, packet,
            on_delivered, on_dropped,
        )

    def _try_relays(
        self,
        source_id: int,
        relays: List[int],
        cell: EmbeddedCell,
        dest_kid: KautzString,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
    ) -> None:
        relay, rest = relays[0], relays[1:]

        def relay_arrived(pkt: Packet) -> None:
            candidates2 = self._ranked_members(
                relay, cell, self.network.sim.now, dest_kid
            )
            if not candidates2:
                self._drop(pkt, on_dropped, "no-cell-member")
                return
            self._enter_via_members(
                relay, candidates2, cell, dest_kid, pkt,
                on_delivered, on_dropped,
            )

        def relay_failed(pkt: Packet, at: int) -> None:
            if rest:
                self._try_relays(
                    source_id, rest, cell, dest_kid, pkt,
                    on_delivered, on_dropped,
                )
            else:
                self._drop(pkt, on_dropped, "entry-failed")

        self._unicast(
            source_id,
            relay,
            packet,
            on_delivered=relay_arrived,
            on_failed=self._qos_guard(on_dropped, relay_failed),
            deliver_to_handler=False,
        )

    def _ranked_members(
        self,
        node_id: int,
        cell: EmbeddedCell,
        now: float,
        dest_kid: Optional[KautzString] = None,
    ) -> List[int]:
        """In-range cell members, best entry first.

        Preference order: fewest remaining Kautz hops to the
        destination KID (the "lowest delay path" rule of Section
        III-C2), then physical proximity.
        """

        def rank(entry: Tuple[int, float]):
            member, distance = entry
            remaining = 0
            if dest_kid is not None:
                remaining = kautz_distance(cell.kid_of(member), dest_kid)
            return (remaining, distance)

        medium = self.network.medium
        near = self._near_members[cell.cid]
        entry = near.get(node_id)
        if entry is None or now >= entry[0]:
            entry = near[node_id] = medium.near(node_id, cell.member_ids, now)
        reachable = medium.reachable(node_id, entry[1], now)
        return [member for member, _ in sorted(reachable, key=rank)]

    def _enter_via_members(
        self,
        from_id: int,
        candidates: List[int],
        cell: EmbeddedCell,
        dest_kid: KautzString,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
    ) -> None:
        """Hand off to the first entry member that accepts the packet.

        The candidates were ranked before an earlier one's hop failed;
        maintenance may have replaced some since, and those are
        stepped over.  None left (or none to begin with) is an
        ``entry-failed`` drop.
        """
        for tried, member in enumerate(candidates, 1):
            if cell.holds(member):
                break
        else:
            self._drop(packet, on_dropped, "entry-failed")
            return
        rest = candidates[tried:]

        def entry_failed(pkt: Packet, at: int) -> None:
            self._enter_via_members(
                from_id, rest, cell, dest_kid, pkt,
                on_delivered, on_dropped,
            )

        self._hop_then_route(
            from_id, member, cell, dest_kid, packet,
            on_delivered, on_dropped, on_entry_failed=entry_failed,
        )

    def _hop_then_route(
        self,
        from_id: int,
        member_id: int,
        cell: EmbeddedCell,
        dest_kid: KautzString,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
        on_entry_failed=None,
    ) -> None:
        is_final = cell.kid_of(member_id) == dest_kid

        def arrived(pkt: Packet) -> None:
            if is_final:
                if on_delivered is not None:
                    on_delivered(pkt)
            else:
                self._route_intra(
                    member_id, cell, dest_kid, pkt,
                    on_delivered, on_dropped,
                )

        if on_entry_failed is None:
            def on_entry_failed(pkt, at):
                self._drop(pkt, on_dropped, "entry-failed")

        self._unicast(
            from_id,
            member_id,
            packet,
            on_delivered=arrived,
            on_failed=self._qos_guard(on_dropped, on_entry_failed),
            deliver_to_handler=is_final,
        )

    # ------------------------------------------------------------------
    # intra-cell Kautz routing (Theorem 3.8)
    # ------------------------------------------------------------------

    def _route_intra(
        self,
        at_node: int,
        cell: EmbeddedCell,
        dest_kid: KautzString,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
        visited: Optional[Set[KautzString]] = None,
        hops_left: Optional[int] = None,
    ) -> None:
        self.stats.intra_messages += 1
        if not cell.holds(at_node):
            # The relay was replaced while the packet was in flight
            # (maintenance raced the forwarding); the new holder will
            # be used on retransmission — this copy is lost.
            self._drop(packet, on_dropped, "relay-replaced")
            return
        kid = cell.kid_of(at_node)
        if visited is None:
            visited = {kid}
        if hops_left is None:
            hops_left = MAX_HOPS
        if kid == dest_kid:
            if on_delivered is not None:
                on_delivered(packet)
            return
        if hops_left <= 0:
            self._drop(packet, on_dropped, "hop-limit")
            return
        candidates = [
            row.successor
            for row in successor_table(kid, dest_kid)
            if row.successor not in visited and cell.kid_assigned(row.successor)
        ]
        # Congestion avoidance (Section III-C2): a successor whose
        # radio is backlogged is deprioritised in favour of the next
        # disjoint path; it stays in the list as a last resort.
        now = self.network.sim.now
        qos_state = self._qos_state
        clear, congested = [], []
        for succ in candidates:
            succ_node = cell.node_of(succ)
            node = self.network.node(succ_node)
            backlog = node.radio_busy_until - now
            if backlog > self._congestion_threshold or (
                qos_state is not None and qos_state.is_congested(succ_node)
            ):
                congested.append(succ)
            else:
                clear.append(succ)
        if congested and clear:
            self.stats.congestion_detours += len(congested)
        ranked = clear + congested
        self._try_successors(
            at_node, cell, dest_kid, ranked, 0, packet,
            on_delivered, on_dropped, visited, hops_left,
        )

    def _try_successors(
        self,
        at_node: int,
        cell: EmbeddedCell,
        dest_kid: KautzString,
        ranked: List[KautzString],
        index: int,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
        visited: Set[KautzString],
        hops_left: int,
    ) -> None:
        if index >= len(ranked):
            # All d successors exhausted (possible only while
            # maintenance is still repairing multiple broken vertices).
            # Physical links are bidirectional, so fall back to any
            # unvisited in-range member closest in Kautz distance —
            # the "lowest delay, possibly multi-hop" rule.
            now = self.network.sim.now
            fallback = [
                m
                for m in self._ranked_members(at_node, cell, now, dest_kid)
                if cell.kid_of(m) not in visited and m != at_node
            ]
            if not fallback or hops_left <= 0:
                self._drop(packet, on_dropped, "no-successor")
                return
            member = fallback[0]
            member_kid = cell.kid_of(member)
            is_dest = member_kid == dest_kid

            def fb_arrived(pkt: Packet) -> None:
                if is_dest:
                    if on_delivered is not None:
                        on_delivered(pkt)
                else:
                    self._route_intra(
                        member, cell, dest_kid, pkt,
                        on_delivered, on_dropped,
                        visited | {member_kid}, hops_left - 1,
                    )

            self._unicast(
                at_node,
                member,
                packet,
                on_delivered=fb_arrived,
                on_failed=self._qos_guard(
                    on_dropped,
                    lambda pkt, at: self._drop(
                        pkt, on_dropped, "fallback-hop-failed"
                    ),
                ),
                deliver_to_handler=is_dest,
            )
            return
        succ_kid = ranked[index]
        succ_node = cell.node_of(succ_kid)
        if index > 0:
            self.stats.detours += 1
            if self._fault_active():
                self.stats.fault_detours += 1
            flight = self.network.flight
            if flight is not None:
                flight.detour(
                    packet.uid, self.network.sim.now, at_node,
                    str(succ_kid), index,
                )
        is_final = succ_kid == dest_kid

        def arrived(pkt: Packet) -> None:
            if is_final:
                if on_delivered is not None:
                    on_delivered(pkt)
                return
            self._route_intra(
                succ_node, cell, dest_kid, pkt,
                on_delivered, on_dropped,
                visited | {succ_kid}, hops_left - 1,
            )

        def failed(pkt: Packet, at: int) -> None:
            # Local recovery: same relay, next-shortest disjoint path.
            self._try_successors(
                at_node, cell, dest_kid, ranked, index + 1, pkt,
                on_delivered, on_dropped, visited, hops_left,
            )

        self._unicast(
            at_node,
            succ_node,
            packet,
            on_delivered=arrived,
            on_failed=self._qos_guard(on_dropped, failed),
            deliver_to_handler=is_final,
        )

    # ------------------------------------------------------------------
    # inter-cell actuator tier (CAN greedy)
    # ------------------------------------------------------------------

    def _route_tier(
        self,
        actuator_id: int,
        dest: ReferId,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
        visited: Optional[Set[int]] = None,
    ) -> None:
        dest_cell = self.cells[dest.cid]
        if dest_cell.holds(actuator_id):
            # Arrived in the destination cell: finish intra-cell.
            self._route_intra(
                actuator_id, dest_cell, dest.kid, packet,
                on_delivered, on_dropped,
            )
            return
        if visited is None:
            visited = {actuator_id}
        now = self.network.sim.now
        nxt = self._next_tier_actuator(actuator_id, dest, visited, now)
        if nxt is None:
            self._drop(packet, on_dropped, "tier-stall")
            return

        def arrived(pkt: Packet) -> None:
            self._route_tier(
                nxt, dest, pkt, on_delivered, on_dropped,
                visited | {nxt},
            )

        self._unicast(
            actuator_id,
            nxt,
            packet,
            on_delivered=arrived,
            on_failed=self._qos_guard(
                on_dropped,
                lambda pkt, at: self._drop(pkt, on_dropped, "tier-hop-failed"),
            ),
            deliver_to_handler=False,
        )

    def _next_tier_actuator(
        self,
        actuator_id: int,
        dest: ReferId,
        visited: Set[int],
        now: float,
    ) -> Optional[int]:
        """The next actuator hop toward ``dest``'s cell.

        Primary rule: follow the CAN route through cell space — from a
        cell this actuator belongs to, step to the next CAN zone and
        hand over to an actuator of that cell in radio range.  When the
        CAN step is not realisable (actuator failed, geometry moved),
        fall back to greedy "CID closest to destination" over reachable
        actuators, exactly the forwarding rule of Section III-B3.

        With a healer installed, suspected actuators are excluded from
        the candidate set and the healer's *actuator-keyed* CAN (whose
        zones condemned actuators have already handed over) is
        consulted first — the inter-cell tier routes around believed
        failures instead of greedy-routing into a dead zone owner.
        """
        dest_point = self._cell_points[dest.cid]
        suspected: Set[int] = (
            self._healer.suspected if self._healer is not None else set()
        )
        reachable = [
            a
            for a in range(self.plan.actuator_count)
            if a != actuator_id
            and a not in visited
            and a not in suspected
            and self.network.medium.can_transmit(actuator_id, a, now)
        ]
        if not reachable:
            return None
        if self._healer is not None:
            heir_hop = self._healer.next_hop(actuator_id, dest.cid)
            if heir_hop is not None and heir_hop in reachable:
                return heir_hop
        for cell in self._actuator_cells(actuator_id):
            try:
                can_path = self.can.route(cell.cid, dest_point)
            except (DHTError, KautzError, RoutingError):
                # The CAN step is unrealisable from this cell right now
                # (zone handed over after churn, greedy stall) — fall
                # through to the next cell / the greedy CID rule.
                # Anything else is a bug and must propagate.
                continue
            if len(can_path) < 2:
                continue
            next_cell = self.cells[can_path[1]]
            candidates = [
                a for a in reachable if next_cell.holds(a)
            ]
            if candidates:
                return min(candidates)
        # Fallback: greedy over cell-space distance of the candidate's
        # cells to the destination CID.
        def cid_distance(actuator: int) -> float:
            points = [
                self._cell_points[cell.cid]
                for cell in self._actuator_cells(actuator)
            ]
            if not points:
                return float("inf")
            dx, dy = dest_point
            return min(
                ((x - dx) ** 2 + (y - dy) ** 2) ** 0.5 for x, y in points
            )

        return min(reachable, key=cid_distance)

    # ------------------------------------------------------------------

    def _drop(
        self,
        packet: Packet,
        on_dropped: Optional[DroppedCallback],
        reason: str = "unknown",
    ) -> None:
        """Abandon the packet, stamping the drop-reason taxonomy entry
        (:data:`repro.telemetry.flight.DROP_REASONS`) into the packet
        for the metrics layer and the flight recorder."""
        packet.meta["drop_reason"] = reason
        self.stats.drops += 1
        if self._fault_active():
            self.stats.fault_drops += 1
        if on_dropped is not None:
            on_dropped(packet)
