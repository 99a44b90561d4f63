"""Priority-aware MAC scheduling: the queue between router and radio.

:class:`MacQosScheduler` installs as :attr:`WirelessNetwork.qos
<repro.net.network.WirelessNetwork>`.  Each transmitting node gets a
bounded, per-class :class:`~repro.qos.queue.PriorityFrameQueue`;
frames are served strictly by class priority, one at a time, each
service occupying the radio via the MAC's analytic contention model
(:meth:`~repro.net.mac.ContentionMac.service_frame`).

Two drop mechanisms keep the queue honest under overload:

* **deadline-drop** — frames whose expiry passed while queued are
  discarded without airtime (``deadline_expired``);
* **shedding** — bulk frames aimed at a congested next hop, or any
  frame arriving at a full class lane, are refused before the sender
  charges transmission energy (``backpressure_shed``).

Refusals happen in :meth:`refusal`, called by the network layer
*before* energy accounting; accepted frames are owned by the
scheduler until the MAC reports their completion.  A hop's lane and
expiry are resolved once, there: ``refusal`` leaves them for the
``submit`` of the same packet that follows it.  Refused and
expired frames fail through the normal ``on_result`` / ``on_failed``
paths with the drop reason as their cause (one of
:data:`~repro.net.network.QOS_VERDICTS`), which tells the router not to
burn the remaining disjoint paths on a packet QoS has already
condemned.

Only frames that wait pay for the queue.  A service that empties it
schedules no wake-up but keeps one: its time, and a seq reserved from
the simulator then (``Simulator.reserve``).  A frame submitted before
that wake-up's turn queues and files it under that seq, so wake-ups
due at one instant keep their heap order; a frame at a node whose
wake-up has had its turn goes straight to ``service_frame``.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Set, Tuple

from repro.net.mac import ContentionMac, ResultCallback
from repro.net.packet import Packet
from repro.qos.backpressure import BackpressureState
from repro.qos.classes import BULK_LANE, TrafficClass, expiry_of, lane_of
from repro.qos.queue import PriorityFrameQueue, QueuedFrame
from repro.qos.stats import QosStats
from repro.sim.core import Simulator
from repro.sim.events import Action

__all__ = ["MacQosScheduler"]

#: Bounded per-node queue depth for alarm and for control frames.
ALARM_QUEUE_DEPTH = 16
CONTROL_QUEUE_DEPTH = 16
#: Bounded per-node queue depth for bulk frames.  Deliberately
#: shallow: under overload bulk is shed at the hop, not buffered into
#: uselessness.
BULK_QUEUE_DEPTH = 8


class MacQosScheduler:
    """Per-node strict-priority frame queues feeding the MAC."""

    def __init__(
        self,
        sim: Simulator,
        mac: ContentionMac,
        state: BackpressureState,
        stats: QosStats,
    ) -> None:
        self._sim = sim
        self._mac = mac
        self._state = state
        self._stats = stats
        self._depths = {
            TrafficClass.ALARM: ALARM_QUEUE_DEPTH,
            TrafficClass.CONTROL: CONTROL_QUEUE_DEPTH,
            TrafficClass.BULK: BULK_QUEUE_DEPTH,
        }
        self._queues: Dict[int, PriorityFrameQueue] = {}
        # Nodes with a wake-up in the heap, or inside _serve.
        self._serving: Set[int] = set()
        # Per node whose queue emptied: the (time, reserved seq) of the
        # wake-up its last service would have scheduled, unfiled.
        self._kept: Dict[int, Tuple[float, int]] = {}
        # Per node with a queue: its one wake-up callback.  It refers
        # to the scheduler weakly: the scheduler holds it, and a strong
        # reference would make the pair a cycle that outlives the run.
        self._wakers: Dict[int, Action] = {}
        # (packet, lane, expiry) of the hop refusal() last accepted.
        self._accepted: tuple = (None, 0, None)

    def refusal(
        self, src_id: int, dst_id: int, packet: Packet, now: float
    ) -> Optional[str]:
        """Drop reason refusing this hop, or None to accept.

        Runs at the network layer before any energy is charged, so a
        refused frame costs its sender nothing.
        """
        lane = lane_of(packet)
        expiry = expiry_of(packet)
        if expiry is not None and now > expiry:
            self._stats.deadline_drops += 1
            return "deadline_expired"
        if lane == BULK_LANE and self._state.is_congested(dst_id):
            self._stats.backpressure_sheds += 1
            return "backpressure_shed"
        queue = self._queues.get(src_id)
        if queue is not None and queue.full(lane):
            self._stats.backpressure_sheds += 1
            return "backpressure_shed"
        self._accepted = (packet, lane, expiry)
        return None

    def submit(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        on_result: ResultCallback,
    ) -> None:
        """Serve one accepted frame at once if its node is idle, else
        queue it behind the node's wake-up."""
        accepted, lane, expiry = self._accepted
        if accepted is not packet:
            # A direct caller: no refusal() resolved this packet.
            lane, expiry = lane_of(packet), expiry_of(packet)
        sim = self._sim
        now = sim.now
        due = None
        if src_id not in self._serving:
            kept = self._kept.pop(src_id, None)
            if kept is not None and (
                kept[0] > now or (kept[0] == now and kept[1] > sim.dispatch_seq)
            ):
                # The last service's wake-up has not had its turn yet.
                due = kept
            elif expiry is None or now <= expiry:
                # Idle: queued and popped at once, this frame would move
                # the depth 0 -> 1 -> 0, which marks nothing (the node
                # reported 0 after its last service), so it goes
                # straight to the radio.  service_frame reports through
                # the heap, so nothing re-enters submit() meanwhile.
                stats = self._stats
                stats.frames_queued += 1
                stats.frames_served += 1
                radio_free = self._mac.service_frame(
                    src_id, dst_id, packet, on_result
                )
                self._kept[src_id] = (
                    now + max(0.0, radio_free - now), sim.reserve()
                )
                return
        frame = QueuedFrame(src_id, dst_id, packet, on_result, lane, expiry)
        queue = self._queues.get(src_id)
        if queue is None:
            queue = self._queues[src_id] = PriorityFrameQueue(self._depths)
            scheduler = weakref.ref(self)
            self._wakers[src_id] = lambda: scheduler()._serve(src_id)
        if not queue.offer(frame):
            # The network layer's refusal() check makes this unreachable
            # in-sim (nothing runs between the check and this call), but
            # direct callers still get the shedding contract.
            self._shed(frame)
            return
        self._stats.frames_queued += 1
        self._state.note_depth(src_id, queue.depth)
        if src_id in self._serving:
            return
        if due is None:
            # An expired frame at an idle node: _serve drops it.
            self._serve(src_id)
            return
        # File the wake-up under the seq reserved when it was computed,
        # so it keeps its place among wake-ups due at the same time.
        self._serving.add(src_id)
        sim.schedule_reserved(due[0], due[1], self._wakers[src_id])

    def _serve(self, node_id: int) -> None:
        """Serve the node's next live frame.  Its next wake-up goes on
        the heap while frames remain queued, and is kept unfiled once
        the queue is empty."""
        queue = self._queues[node_id]
        # Mark the node busy before running expiry callbacks: those may
        # synchronously re-enter submit() for this same node.
        self._serving.add(node_id)
        state = self._state
        sim = self._sim
        while True:
            frame, expired = queue.pop_live(sim.now)
            for stale in expired:
                self._expire(stale)
            if frame is not None:
                break
            if queue.depth == 0:
                self._serving.discard(node_id)
                state.note_depth(node_id, 0)
                return
        self._stats.frames_served += 1
        radio_free = self._mac.service_frame(
            frame.src, frame.dst, frame.packet, frame.on_result
        )
        state.note_depth(node_id, queue.depth)
        now = sim.now
        if queue.depth:
            sim.schedule(max(0.0, radio_free - now), self._wakers[node_id])
        else:
            self._serving.discard(node_id)
            self._kept[node_id] = (
                now + max(0.0, radio_free - now), sim.reserve()
            )

    def _expire(self, frame: QueuedFrame) -> None:
        """Drop a frame whose deadline passed while it was queued."""
        self._stats.deadline_drops += 1
        frame.on_result("deadline_expired", self._sim.now)

    def _shed(self, frame: QueuedFrame) -> None:
        self._stats.backpressure_sheds += 1
        frame.on_result("backpressure_shed", self._sim.now)
