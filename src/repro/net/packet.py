"""Packet model.

Packets are small mutable records: routing protocols append to
``hops`` as the packet moves and may stash protocol state in ``meta``.
Identity is the auto-assigned ``uid``, not object identity, so traces
and metrics can refer to packets after delivery.

``Packet`` is a ``__slots__`` class (it used to be a dataclass): at
10k-node scale packets are the dominant allocation, and slots halve
the per-instance footprint and construction cost.  Equality is
field-by-field, like ``dataclass(eq=True)``, and packets are
unhashable.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, List, Optional

_uid_counter = itertools.count(1)


class PacketKind(enum.Enum):
    """Traffic classes, used for energy/metric attribution."""

    DATA = "data"            # application payload (sensor event reports)
    CONTROL = "control"      # routing control (path repair, replies)
    QUERY = "query"          # discovery floods / path queries
    PROBE = "probe"          # periodic neighbour/candidate probes
    ASSIGN = "assign"        # ID-assignment messages (embedding protocol)
    ACK = "ack"              # per-hop ARQ acknowledgements (repro.recovery)

    def __init__(self, label: str) -> None:
        #: ``value`` as a plain attribute, for the per-hop energy charge:
        #: ``Enum.value`` is a descriptor that runs two Python frames.
        self.label = label


class Packet:
    """One message travelling through the network."""

    __slots__ = (
        "kind",
        "size_bytes",
        "source",
        "destination",
        "created_at",
        "uid",
        "deadline",
        "hops",
        "meta",
        "traffic_class",
    )

    def __init__(
        self,
        kind: PacketKind,
        size_bytes: int,
        source: int,
        destination: Optional[int],
        created_at: float,
        deadline: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
        traffic_class: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.size_bytes = size_bytes
        self.source = source
        self.destination = destination
        self.created_at = created_at
        self.uid = next(_uid_counter)
        self.deadline = deadline
        self.hops: List[int] = []
        self.meta = {} if meta is None else meta
        #: QoS traffic-class mark (a :class:`repro.qos.TrafficClass`
        #: value string — "alarm" / "control" / "bulk").  None means
        #: unmarked; the QoS layer then classifies by :attr:`kind`.
        self.traffic_class = traffic_class

    # Unhashable, so a packet never enters a hash-ordered set.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Packet(kind={self.kind!r}, size_bytes={self.size_bytes!r}, "
            f"source={self.source!r}, destination={self.destination!r}, "
            f"created_at={self.created_at!r}, uid={self.uid!r}, "
            f"deadline={self.deadline!r}, hops={self.hops!r}, "
            f"meta={self.meta!r}, traffic_class={self.traffic_class!r})"
        )

    def latency(self, now: float) -> float:
        """Time in flight since creation."""
        return now - self.created_at

    def record_hop(self, node_id: int) -> None:
        self.hops.append(node_id)

    def clone_for_retransmit(self, now: float) -> "Packet":
        """A fresh copy for source retransmission.

        Keeps the original ``created_at`` (the application experiences
        the full delay including the failed attempt) and a copy of
        ``meta`` but clears the hop trail; gets a new uid, so the copy's
        hops and flight journey are its own (the retransmitting system
        links the two journeys).
        """
        return Packet(
            kind=self.kind,
            size_bytes=self.size_bytes,
            source=self.source,
            destination=self.destination,
            created_at=self.created_at,
            deadline=self.deadline,
            meta=dict(self.meta),
            traffic_class=self.traffic_class,
        )
