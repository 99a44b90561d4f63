"""Traffic classes: the QoS vocabulary packets are marked with.

Three classes, in strict priority order (Xia et al., "QoS Challenges
and Opportunities in WSANs"):

* **alarm** — real-time actuation triggers; tiny volume, hard
  deadlines, must survive any overload;
* **control** — protocol and supervisory traffic (probes, ACKs,
  assignment replies, closed-loop commands); moderate deadlines;
* **bulk** — monitoring/logging payload; elastic, sheddable, no
  deadline by default.

The class rides on :attr:`repro.net.packet.Packet.traffic_class` as
the enum's string value so the net layer stays independent of this
package; unmarked packets fall back to a :class:`~repro.net.packet.
PacketKind`-based mapping (DATA is bulk, everything else is protocol
control traffic).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from repro.net.packet import Packet, PacketKind

__all__ = [
    "TrafficClass",
    "PRIORITY_ORDER",
    "ALARM_LANE",
    "CONTROL_LANE",
    "BULK_LANE",
    "lane_of",
    "class_of",
    "expiry_of",
]


class TrafficClass(enum.Enum):
    """One QoS traffic class (values are the on-packet spelling)."""

    ALARM = "alarm"
    CONTROL = "control"
    BULK = "bulk"


#: Strict service priority, most urgent first.  The MAC scheduler
#: serves lane 0 to exhaustion before touching lane 1, and so on.
PRIORITY_ORDER: Tuple[TrafficClass, ...] = (
    TrafficClass.ALARM,
    TrafficClass.CONTROL,
    TrafficClass.BULK,
)


#: A class's *lane* is its index in :data:`PRIORITY_ORDER`.  The
#: per-frame path works in lanes: an int indexes a tuple and a mark
#: (a ``str``) hashes in C, where an ``Enum`` member hashes in Python.
_LANE_OF_MARK: Dict[str, int] = {
    cls.value: lane for lane, cls in enumerate(PRIORITY_ORDER)
}
ALARM_LANE = PRIORITY_ORDER.index(TrafficClass.ALARM)
CONTROL_LANE = PRIORITY_ORDER.index(TrafficClass.CONTROL)
BULK_LANE = PRIORITY_ORDER.index(TrafficClass.BULK)


def lane_of(packet: Packet) -> int:
    """The lane (index in :data:`PRIORITY_ORDER`) ``packet`` travels in.

    Marked packets are believed; unmarked application payload (DATA)
    is bulk, and every unmarked protocol frame (probes, ACKs, control,
    queries, assignments) travels in the control class so the QoS
    layer can never starve the machinery that keeps the network alive.
    """
    marked = packet.traffic_class
    if marked is None:
        return BULK_LANE if packet.kind is PacketKind.DATA else CONTROL_LANE
    lane = _LANE_OF_MARK.get(marked)
    if lane is None:
        raise ValueError(f"{marked!r} is not a valid TrafficClass")
    return lane


def class_of(packet: Packet) -> TrafficClass:
    """The traffic class of ``packet`` (see :func:`lane_of`)."""
    return PRIORITY_ORDER[lane_of(packet)]


def expiry_of(packet: Packet) -> Optional[float]:
    """Absolute sim time after which the packet is useless (or None).

    The relative deadline is stamped per class by the workload; the
    expiry is anchored at creation, so queueing delay spends the same
    budget as airtime.
    """
    if packet.deadline is None:
        return None
    return packet.created_at + packet.deadline
