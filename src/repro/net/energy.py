"""Per-packet energy accounting (Section IV).

The paper charges 2 J per transmitted packet and 0.75 J per received
packet and reports two ledgers: energy consumed in *topology
construction* and in *communication* (data forwarding + maintenance).
:class:`EnergyLedger` keeps both, split by phase and by node, so every
figure's energy series comes straight out of this module.

The joules live in telemetry counter families
(:mod:`repro.telemetry.registry`):

* ``energy_joules{phase}`` — the per-phase totals,
* ``energy_node_joules{node, phase}`` — the per-node split,
* ``energy_kind_joules{kind, phase}`` — the traffic-class split,
* ``energy_tx_packets`` / ``energy_rx_packets`` — radio activity.

Pass ``registry=`` to share a run's registry (the network does); the
default private registry keeps standalone ledgers dependency-free.

The ledger resolves each ``(node, phase)``, ``(kind, phase)`` and
``phase`` child and the two packet counters once and holds them
(:meth:`~repro.telemetry.registry.MetricFamily.held`), so a charge is a
dict lookup and an add per counter.  Children are still created at
first charge, in first-charge order, and receive the same sequence of
float adds as a
``child(...).inc(...)`` per charge (never ``n * joules``): totals and
exports are bit-identical to it (``tests/net/test_energy_handles.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.errors import TelemetryError
from repro.telemetry.registry import Registry


class Phase(enum.Enum):
    """Which ledger a packet's energy is charged to."""

    CONSTRUCTION = "construction"
    COMMUNICATION = "communication"


@dataclass(frozen=True)
class EnergyModel:
    """Joules per packet, in transmit and receive modes.

    Defaults are the paper's constants (Section IV, citing the
    LinkQuest UWM1000 figures).
    """

    tx_joules: float = 2.0
    rx_joules: float = 0.75

    def __post_init__(self) -> None:
        if self.tx_joules < 0 or self.rx_joules < 0:
            raise ValueError("energy costs must be non-negative")


class EnergyLedger:
    """Accumulates per-node, per-phase, per-traffic-class energy."""

    def __init__(
        self,
        model: EnergyModel = EnergyModel(),
        registry: Optional[Registry] = None,
    ) -> None:
        self.model = model
        if registry is None:
            registry = Registry()
        self._by_phase = registry.counter(
            "energy_joules", "joules charged per ledger phase",
            labels=("phase",),
        )
        self._by_node = registry.counter(
            "energy_node_joules", "joules charged per node and phase",
            labels=("node", "phase"),
        )
        self._by_kind = registry.counter(
            "energy_kind_joules", "joules charged per traffic kind and phase",
            labels=("kind", "phase"),
        )
        self._tx_packets = registry.counter(
            "energy_tx_packets", "packets charged in transmit mode"
        )
        self._rx_packets = registry.counter(
            "energy_rx_packets", "packets charged in receive mode"
        )
        self._totals = self._by_phase.held()
        self._nodes = {p: self._by_node.held(p.value) for p in Phase}
        self._kinds = {p: self._by_kind.held(p.value) for p in Phase}
        self._tx_held = self._tx_packets.held()
        self._rx_held = self._rx_packets.held()
        self.set_phase(Phase.CONSTRUCTION)

    # -- phase control ---------------------------------------------------

    @property
    def phase(self) -> Phase:
        return self._phase

    def set_phase(self, phase: Phase) -> None:
        """Switch the active ledger (construction -> communication)."""
        self._phase = phase
        self._label = phase.value
        self._node_children = self._nodes[phase]
        self._kind_children = self._kinds[phase]

    # -- charging ----------------------------------------------------------

    def charge_tx(
        self, node_id: int, packets: int = 1, kind: str = "data"
    ) -> float:
        """Charge ``packets`` transmissions to ``node_id``; returns joules.

        ``kind`` attributes the cost to a traffic class ("data",
        "control", "probe", "flood", ...), letting analyses split
        message-transmission energy from topology-update energy the
        way Section IV-D discusses.
        """
        joules = self.model.tx_joules * packets
        if joules < 0 or packets < 0:
            raise TelemetryError("counters only increase")
        self._totals[self._label]._value += joules
        self._node_children[node_id]._value += joules
        self._kind_children[kind]._value += joules
        self._tx_held[()]._value += packets
        return joules

    def charge_rx(
        self, node_id: int, packets: int = 1, kind: str = "data"
    ) -> float:
        """Charge ``packets`` receptions to ``node_id``; returns joules."""
        joules = self.model.rx_joules * packets
        if joules < 0 or packets < 0:
            raise TelemetryError("counters only increase")
        self._totals[self._label]._value += joules
        self._node_children[node_id]._value += joules
        self._kind_children[kind]._value += joules
        self._rx_held[()]._value += packets
        return joules

    def charge_rx_each(self, node_ids: Sequence[int], kind: str = "data") -> None:
        """Charge one reception to each of ``node_ids``, in order (a
        broadcast heard by a neighbour list): one add per reception to
        every counter, never ``n * joules``."""
        joules = self.model.rx_joules
        if joules < 0:
            raise TelemetryError("counters only increase")
        if not node_ids:
            return
        total, by_kind = self._totals[self._label], self._kind_children[kind]
        by_node = self._node_children
        for node_id in node_ids:
            total._value += joules
            by_node[node_id]._value += joules
            by_kind._value += joules
        self._rx_held[()]._value += len(node_ids)

    # -- reporting ----------------------------------------------------------

    @property
    def tx_packets(self) -> int:
        return self._tx_packets.value

    @property
    def rx_packets(self) -> int:
        return self._rx_packets.value

    def total(self, phase: Phase) -> float:
        """Total joules charged in ``phase`` across all nodes."""
        return self._by_phase.value_at(phase.value, default=0.0)

    def grand_total(self) -> float:
        return sum(
            metric.value for _, metric in self._by_phase.items()
        )

    def node_total(self, node_id: int) -> float:
        """Total joules consumed by one node across phases."""
        return sum(
            metric.value
            for (nid, _), metric in self._by_node.items()
            if nid == node_id
        )

    def total_by_kind(self, kind: str, phase: Optional[Phase] = None) -> float:
        """Joules charged to one traffic class (optionally one phase).

        ``phase=None`` sums across phases (the historical behaviour);
        ``phase=Phase.COMMUNICATION`` isolates e.g. the flood energy a
        protocol spends on route *repair* from its construction floods —
        the signal the resilience campaign compares across systems.
        """
        return sum(
            metric.value
            for (k, p), metric in self._by_kind.items()
            if k == kind and (phase is None or p == phase.value)
        )

    def kinds(self, phase: Optional[Phase] = None) -> Dict[str, float]:
        """Traffic classes and totals, optionally filtered to one phase."""
        totals: Dict[str, float] = {}
        for (kind, p), metric in self._by_kind.items():
            if phase is None or p == phase.value:
                totals[kind] = totals.get(kind, 0.0) + metric.value
        return totals

    def construction_fraction(self) -> float:
        """Construction share of total energy (the paper's ~0.1% claim)."""
        total = self.grand_total()
        if total == 0:
            return 0.0
        return self.total(Phase.CONSTRUCTION) / total
