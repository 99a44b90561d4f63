"""Packet model.

Packets are small mutable records: routing protocols append to
``hops`` as the packet moves and may stash protocol state in ``meta``.
Identity is the auto-assigned ``uid``, not object identity, so traces
and metrics can refer to packets after delivery.

``Packet`` is a ``__slots__`` class (it used to be a dataclass): at
10k-node scale packets are the dominant allocation, and slots halve
the per-instance footprint and construction cost.  The constructor
signature, field defaults, equality semantics (field-by-field, like
``dataclass(eq=True)``) and unhashability are unchanged.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, List, Optional

_uid_counter = itertools.count(1)

#: Meta keys that describe one transmission attempt's fate, not the
#: application payload — a retransmit clone must not inherit them.
_TRANSIENT_META = frozenset({"drop_reason", "qos_terminal"})

#: Sentinel distinguishing "uid not supplied" from an explicit uid.
_AUTO = object()


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
        uid: int = _AUTO,  # type: ignore[assignment]
        deadline: Optional[float] = None,
        hops: Optional[List[int]] = None,
        meta: Optional[Dict[str, Any]] = None,
        traffic_class: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.size_bytes = size_bytes
        self.source = source
        self.destination = destination
        self.created_at = created_at
        self.uid = next(_uid_counter) if uid is _AUTO else uid
        self.deadline = deadline
        self.hops = [] if hops is None else hops
        self.meta = {} if meta is None else meta
        #: QoS traffic-class mark (a :class:`repro.qos.TrafficClass`
        #: value string — "alarm" / "control" / "bulk").  None means
        #: unmarked; the QoS layer then classifies by :attr:`kind`.
        self.traffic_class = traffic_class

    # dataclass(eq=True) semantics: field-by-field equality and, since
    # the class is mutable, no hashing by uid or identity.
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Packet:
            return NotImplemented
        return (
            self.kind == other.kind
            and self.size_bytes == other.size_bytes
            and self.source == other.source
            and self.destination == other.destination
            and self.created_at == other.created_at
            and self.uid == other.uid
            and self.deadline == other.deadline
            and self.hops == other.hops
            and self.meta == other.meta
            and self.traffic_class == other.traffic_class
        )

    def __repr__(self) -> str:
        return (
            f"Packet(kind={self.kind!r}, size_bytes={self.size_bytes!r}, "
            f"source={self.source!r}, destination={self.destination!r}, "
            f"created_at={self.created_at!r}, uid={self.uid!r}, "
            f"deadline={self.deadline!r}, hops={self.hops!r}, "
            f"meta={self.meta!r}, traffic_class={self.traffic_class!r})"
        )

    @property
    def hop_count(self) -> int:
        """Number of transmissions the packet has undergone."""
        return len(self.hops)

    def latency(self, now: float) -> float:
        """Time in flight since creation."""
        return now - self.created_at

    def within_deadline(self, now: float) -> bool:
        """Whether delivery at ``now`` meets the QoS deadline (if any)."""
        return self.deadline is None or self.latency(now) <= self.deadline

    def record_hop(self, node_id: int) -> None:
        self.hops.append(node_id)

    def clone_for_retransmit(self, now: float) -> "Packet":
        """A fresh copy for source retransmission.

        Keeps the original ``created_at`` (the application experiences
        the full delay including the failed attempt) but clears the hop
        trail; gets a new uid so MAC-level accounting treats it as a
        distinct transmission.
        """
        return Packet(
            kind=self.kind,
            size_bytes=self.size_bytes,
            source=self.source,
            destination=self.destination,
            created_at=self.created_at,
            deadline=self.deadline,
            meta={
                k: v for k, v in self.meta.items()
                if k not in _TRANSIENT_META
            },
            traffic_class=self.traffic_class,
        )
