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
first charge, in first-charge order.

A batch (:meth:`EnergyLedger.charge_rx_counts` and the ``*_each``
forms) adds ``k * joules`` to a node charged ``k`` times and ``n *
joules`` to its phase and kind, where ``k`` and ``n`` single charges
would add ``joules`` each.  The two are the same float: the joules are
the constants :data:`TX_JOULES` and :data:`RX_JOULES`, both multiples
of 2**-2, so every child holds a multiple of 2**-2 and every partial
sum below 2**51 is exact (``tests/net/test_energy_handles.py`` holds
the batched flood to a per-reception one, bit for bit).  So is an
unmetered battery's ``consumed_joules``, which a flood drains ``k *
RX_JOULES`` at once; a metered one may hold any float (the depletion
fault sets one) and is drained per reception.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional, Sequence

from repro.errors import TelemetryError
from repro.telemetry.registry import Registry


class Phase(enum.Enum):
    """Which ledger a packet's energy is charged to."""

    CONSTRUCTION = "construction"
    COMMUNICATION = "communication"


#: Joules per transmitted and per received packet: the paper's
#: constants (Section IV, citing the LinkQuest UWM1000 figures).  Both
#: must stay multiples of 2**-2 for batched charges to stay exact (see
#: the module docstring).
TX_JOULES = 2.0
RX_JOULES = 0.75


class EnergyLedger:
    """Accumulates per-node, per-phase, per-traffic-class energy."""

    def __init__(self, registry: Optional[Registry] = None) -> None:
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
        joules = TX_JOULES * packets
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
        joules = RX_JOULES * packets
        if joules < 0 or packets < 0:
            raise TelemetryError("counters only increase")
        self._totals[self._label]._value += joules
        self._node_children[node_id]._value += joules
        self._kind_children[kind]._value += joules
        self._rx_held[()]._value += packets
        return joules

    def charge_tx_each(self, node_ids: Sequence[int], kind: str = "data") -> None:
        """Charge one transmission to each of ``node_ids`` (a flood's
        forwarders), children first created in that order."""
        self._charge_each(node_ids, TX_JOULES, self._tx_held, kind)

    def charge_rx_each(self, node_ids: Sequence[int], kind: str = "data") -> None:
        """Charge one reception to each of ``node_ids`` (a broadcast
        heard by a neighbour list), children first created in that order."""
        self._charge_each(node_ids, RX_JOULES, self._rx_held, kind)

    def charge_rx_counts(self, counts: Mapping[int, int], kind: str = "data") -> None:
        """Charge ``counts[node]`` receptions to each node, in the
        mapping's order: one add per node, one for the phase and kind."""
        by_node = self._node_children
        for node_id, packets in counts.items():
            by_node[node_id]._value += packets * RX_JOULES
        self._charge_totals(sum(counts.values()), RX_JOULES, self._rx_held, kind)

    def _charge_each(self, node_ids, joules, packets_held, kind) -> None:
        by_node = self._node_children
        for node_id in node_ids:
            by_node[node_id]._value += joules
        self._charge_totals(len(node_ids), joules, packets_held, kind)

    def _charge_totals(self, packets, joules, packets_held, kind) -> None:
        """``packets`` charges of ``joules`` to the phase and ``kind``."""
        if packets:
            self._totals[self._label]._value += packets * joules
            self._kind_children[kind]._value += packets * joules
            packets_held[()]._value += packets

    # -- reporting ----------------------------------------------------------

    def total(self, phase: Phase) -> float:
        """Total joules charged in ``phase`` across all nodes."""
        return self._by_phase.value_at(phase.value, default=0.0)

    def grand_total(self) -> float:
        return sum(
            metric.value for _, metric in self._by_phase.items()
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

    def kinds(self) -> Dict[str, float]:
        """Traffic classes and their totals across phases."""
        totals: Dict[str, float] = {}
        for (kind, _), metric in self._by_kind.items():
            totals[kind] = totals.get(kind, 0.0) + metric.value
        return totals
