"""Differential oracle: held counter handles == a label lookup per charge.

:class:`ReferenceLedger` is ``EnergyLedger``'s charging as it stood
before the ledger held its counter children: every charge resolves its
label tuples through ``family.child(...)`` and goes through ``inc``.
:func:`reference_flood` is the flood's old accounting loop: one ledger
charge and one ``drain`` per reception.  They live here as the oracle.

Both formulations are driven with the same scripts and must agree *bit
for bit*: ``Registry.as_dict()`` compared ``==`` (no tolerance)
including the insertion order of every energy family's children, every
battery's ``consumed_joules``, the flood trees, and the packet counts —
for the dyadic paper model and for one whose joules do not sum exactly.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.net.energy import EnergyLedger, EnergyModel, Phase
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.sim.core import Simulator
from repro.telemetry.registry import Registry
from repro.util.geometry import Point

PROFILE = settings(max_examples=150, deadline=None, derandomize=True)

ENERGY_FAMILIES = (
    "energy_joules",
    "energy_node_joules",
    "energy_kind_joules",
    "energy_tx_packets",
    "energy_rx_packets",
)
MODELS = (EnergyModel(), EnergyModel(0.1, 0.3), EnergyModel(2, 1))


class ReferenceLedger(EnergyLedger):
    """The per-call ``child(...).inc(...)`` ledger (no held handles)."""

    def charge_tx(self, node_id, packets=1, kind="data"):
        joules = self.model.tx_joules * packets
        phase = self._phase.value
        self._by_phase.child(phase).inc(joules)
        self._by_node.child(node_id, phase).inc(joules)
        self._by_kind.child(kind, phase).inc(joules)
        self._tx_packets.inc(packets)
        return joules

    def charge_rx(self, node_id, packets=1, kind="data"):
        joules = self.model.rx_joules * packets
        phase = self._phase.value
        self._by_phase.child(phase).inc(joules)
        self._by_node.child(node_id, phase).inc(joules)
        self._by_kind.child(kind, phase).inc(joules)
        self._rx_packets.inc(packets)
        return joules

    def charge_rx_each(self, node_ids, kind="data"):
        for node_id in node_ids:
            self.charge_rx(node_id, kind=kind)


def reference_flood(net, src_ids, ttl):
    """The flood's tree and energy accounting, one charge per reception."""
    tree = {}
    frontier = []
    for src_id in src_ids:
        if net.node(src_id).usable and src_id not in tree:
            tree[src_id] = (0, None)
            frontier.append(src_id)
    depth = 0
    while frontier and depth < ttl:
        depth += 1
        next_frontier = []
        for node_id in frontier:
            for nb in net.neighbors(node_id):
                net.energy.charge_rx(nb, kind="flood")
                net.node(nb).drain(net.energy.model.rx_joules)
                if nb not in tree:
                    tree[nb] = (depth, node_id)
                    next_frontier.append(nb)
        frontier = next_frontier
    for node_id, (hops, _) in tree.items():
        if hops < ttl:
            net.energy.charge_tx(node_id, kind="flood")
            net.node(node_id).drain(net.energy.model.tx_joules)
    return tree


def ordered_energy(registry):
    """The five energy families with their children in insertion order."""
    snapshot = registry.as_dict()
    return {name: list(snapshot[name].items()) for name in ENERGY_FAMILIES}


# -- ledger scripts ----------------------------------------------------------

NODE_IDS = st.integers(min_value=0, max_value=7)
KINDS = st.sampled_from(["data", "control", "probe", "flood"])
LEDGER = st.integers(min_value=0, max_value=1)
OPS = st.one_of(
    st.tuples(st.sampled_from(["tx", "rx"]), LEDGER, NODE_IDS,
              st.integers(min_value=0, max_value=3), KINDS),
    st.tuples(st.just("each"), LEDGER,
              st.lists(NODE_IDS, max_size=12), KINDS),
    st.tuples(st.just("phase"), LEDGER, st.sampled_from(list(Phase))),
    st.tuples(st.just("reset")),
    st.tuples(st.just("read"), LEDGER),
)


def run_script(ledger_type, model, ops):
    """Two ledgers of ``ledger_type`` on one shared registry; returns
    everything observable after every step."""
    registry = Registry()
    ledgers = [ledger_type(model, registry=registry) for _ in range(2)]
    observed = []
    for op in ops:
        result = None
        if op[0] == "reset":
            for family in registry.families():
                family.reset()
        else:
            ledger = ledgers[op[1]]
            if op[0] == "tx":
                result = ledger.charge_tx(op[2], packets=op[3], kind=op[4])
            elif op[0] == "rx":
                result = ledger.charge_rx(op[2], packets=op[3], kind=op[4])
            elif op[0] == "each":
                ledger.charge_rx_each(op[2], kind=op[3])
            elif op[0] == "phase":
                ledger.set_phase(op[2])
            else:
                result = (
                    ledger.tx_packets,
                    ledger.rx_packets,
                    ledger.grand_total(),
                    [ledger.total(phase) for phase in Phase],
                    [ledger.node_total(node_id) for node_id in range(8)],
                    ledger.kinds(),
                )
        observed.append((result, ordered_energy(registry)))
    return observed


@PROFILE
@given(model=st.sampled_from(MODELS), ops=st.lists(OPS, max_size=60))
def test_held_handles_match_per_call_lookup(model, ops):
    assert run_script(EnergyLedger, model, ops) == run_script(
        ReferenceLedger, model, ops
    )


# -- floods over draining batteries ------------------------------------------


def build_network(seed, count, model, ledger_type):
    """``count`` static nodes in a 300 m square, 100 m range, batteries
    of a few joules so receptions exhaust nodes in the middle of a flood."""
    rng = random.Random(seed)
    sim = Simulator()
    net = WirelessNetwork(sim, random.Random(seed), energy_model=model)
    net.energy = ledger_type(model, registry=net.registry)
    for node_id in range(count):
        position = Point(rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0))
        net.add_node(
            Node(
                node_id,
                NodeRole.SENSOR,
                StaticMobility(position),
                100.0,
                battery_joules=rng.uniform(1.0, 12.0),
            )
        )
    return sim, net


FLOODS = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(list(Phase)),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=30, max_value=60),
    model=st.sampled_from(MODELS),
    floods=FLOODS,
)
def test_batched_flood_matches_per_reception_flood(seed, count, model, floods):
    sim, net = build_network(seed, count, model, EnergyLedger)
    ref_sim, ref = build_network(seed, count, model, ReferenceLedger)
    for step, (sources, ttl, phase) in enumerate(floods):
        # A fresh neighbour-cache bucket per flood, so each one sees
        # the batteries the previous one drained.
        for clock in (sim, ref_sim):
            clock.run_until(0.25 * (step + 1))
        net.set_phase(phase)
        ref.set_phase(phase)
        if len(sources) == 1:
            tree = net.flood(sources[0], ttl)
        else:
            tree = net.flood_multi(sources, ttl)
        expected = reference_flood(ref, sources, ttl)
        assert list(tree.items()) == list(expected.items())
        assert [n.consumed_joules for n in net.nodes()] == [
            n.consumed_joules for n in ref.nodes()
        ]
        assert ordered_energy(net.registry) == ordered_energy(ref.registry)
        assert net.energy.tx_packets == ref.energy.tx_packets
        assert net.energy.rx_packets == ref.energy.rx_packets


def test_batteries_run_out_inside_one_flood():
    # What makes the flood property bite: receptions exhaust nodes while
    # the flood is still spreading, and an exhausted node hears nothing
    # more, so who is charged depends on every drain having landed
    # before the next neighbour list is computed.
    _, net = build_network(3, 50, EnergyModel(), EnergyLedger)
    unmetered = build_network(3, 50, EnergyModel(), EnergyLedger)[1]
    for node in unmetered.nodes():
        node.battery_joules = None
    net.flood(0, ttl=5)
    unmetered.flood(0, ttl=5)
    assert any(not node.usable for node in net.nodes())
    assert 0 < net.energy.rx_packets < unmetered.energy.rx_packets
