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

The second half holds the two other kinds of held site to the same
standard, exports included: ``MetricFamily.held`` (the holder the
ledger, the network, and the metrics collector share) and ``StatsView``
fields, each against a ``family.child(...)`` per use.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TelemetryError
from repro.net.energy import EnergyLedger, EnergyModel, Phase
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.sim.core import Simulator
from repro.telemetry.export import (
    registry_to_jsonl_lines,
    registry_to_prometheus,
)
from repro.telemetry.registry import Registry
from repro.telemetry.views import StatsView, counter_field, gauge_field
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


# -- the shared holder and the stats views, exports included ----------------


def everything_exported(registry):
    """What a reader of the registry can see: the snapshot with every
    family's children in insertion order, and both export formats."""
    return (
        [(name, list(kids.items())) for name, kids in registry.as_dict().items()],
        list(registry_to_jsonl_lines(registry)),
        registry_to_prometheus(registry),
    )


def declare(registry):
    """One family of each shape a held site uses."""
    return {
        "plain": registry.counter("t_plain", "no labels"),
        "one": registry.counter("t_one", "one label", labels=("a",)),
        "fixed": registry.counter("t_two", "two labels", labels=("a", "b")),
        "open": registry.counter("t_open", "two open", labels=("a", "b")),
        "hist": registry.histogram("t_hist", "latency", labels=("a",)),
    }


LABELS = st.sampled_from(["x", "y", 3])
AMOUNTS = st.one_of(
    st.integers(min_value=0, max_value=5), st.sampled_from([0.1, 0.3, 2.75])
)
HELD_OPS = st.one_of(
    st.tuples(st.just("plain"), st.just(()), AMOUNTS),
    st.tuples(st.just("one"), LABELS, AMOUNTS),
    st.tuples(st.just("fixed"), LABELS, AMOUNTS),
    st.tuples(st.just("open"), st.tuples(LABELS, LABELS), AMOUNTS),
    st.tuples(st.just("hist"), LABELS, AMOUNTS),
    st.tuples(st.just("reset")),
)


def run_held_script(ops, held):
    """``held``: through ``family.held(...)``; else ``family.child(...)``
    per use.  Everything exported, after every step."""
    registry = Registry()
    families = declare(registry)
    rest = {"fixed": ("tail",)}
    holders = {
        name: family.held(*rest.get(name, ()))
        for name, family in families.items()
    }
    observed = []
    for op in ops:
        if op[0] == "reset":
            for family in registry.families():
                family.reset()
        else:
            name, key, amount = op
            if held:
                child = holders[name][key]
            else:
                lead = key if isinstance(key, tuple) else (key,)
                child = families[name].child(*lead, *rest.get(name, ()))
            if name == "hist":
                child.observe(amount)
            else:
                child.inc(amount)
        observed.append(everything_exported(registry))
    return observed


@PROFILE
@given(ops=st.lists(HELD_OPS, max_size=40))
def test_held_children_export_what_per_use_children_export(ops):
    assert run_held_script(ops, held=True) == run_held_script(ops, held=False)


class DemoStats(StatsView):
    _group = "demo"

    hits = counter_field("things counted")
    joules = counter_field("a float total")
    level = gauge_field("moves both ways", default=7)


FIELDS = {"hits": "counter", "joules": "counter", "level": "gauge"}
VIEW = st.integers(min_value=0, max_value=1)
VIEW_OPS = st.one_of(
    st.tuples(st.just("add"), VIEW, st.sampled_from(["hits", "joules"]), AMOUNTS),
    st.tuples(st.just("set"), VIEW, st.sampled_from(sorted(FIELDS)), AMOUNTS),
    st.tuples(st.just("gauge"), VIEW, st.integers(min_value=-3, max_value=3)),
)


def run_view_script(ops, through_views):
    """Two views on one registry, or the same writes as a ``child()``
    per use on the families a view registers."""
    registry = Registry()
    views = []
    for _ in range(2):
        if through_views:
            views.append(DemoStats(registry=registry))
        else:
            for name, kind in FIELDS.items():
                family = getattr(registry, kind)(
                    f"demo_{name}", getattr(DemoStats, name).help
                )
                fresh = family.value_at(default=None) is None
                child = family.child()
                if fresh and name == "level":
                    child.set(7)
    observed = []
    for op in ops:
        if through_views:
            view = views[op[1]]
            if op[0] == "add":
                setattr(view, op[2], getattr(view, op[2]) + op[3])
            elif op[0] == "set":
                setattr(view, op[2], op[3])
            else:
                view.level -= op[2]
            read = (view.as_dict(), view.hits, view.joules, view.level)
        else:
            child = {
                name: registry.get(f"demo_{name}").child() for name in FIELDS
            }
            if op[0] == "add":
                child[op[2]].inc(op[3])
            elif op[0] == "set":
                child[op[2]]._set(op[3])
            else:
                child["level"].dec(op[2])
            values = {name: child[name].value for name in sorted(FIELDS)}
            read = (values, values["hits"], values["joules"], values["level"])
        observed.append((read, everything_exported(registry)))
    return observed


@PROFILE
@given(ops=st.lists(VIEW_OPS, max_size=40))
def test_stats_view_fields_export_what_per_use_children_export(ops):
    assert run_view_script(ops, True) == run_view_script(ops, False)


def test_two_views_on_one_registry_share_every_field():
    registry = Registry()
    first, second = DemoStats(registry=registry), DemoStats(registry=registry)
    first.hits += 2
    second.hits += 3
    second.level = -1
    assert (first.hits, first.level) == (5, -1)
    assert first == second
    assert registry.get("demo_hits").value == 5


@pytest.mark.parametrize("model", [EnergyModel(), EnergyModel(0.0, 0.0)])
def test_a_rejected_charge_and_an_idle_family_export_no_sample(model):
    # Held children are created at first use, so what was never charged
    # -- or was refused -- leaves its family without a sample line.
    sim = Simulator()
    net = WirelessNetwork(sim, random.Random(1), energy_model=model)
    for charge in (net.energy.charge_tx, net.energy.charge_rx):
        with pytest.raises(TelemetryError):
            charge(1, packets=-1)
    snapshot = net.registry.as_dict()
    for name in ENERGY_FAMILIES + ("trace_events", "net_hop_failures"):
        assert snapshot[name] == {}, name
    assert not [
        line
        for line in registry_to_prometheus(net.registry).splitlines()
        if line.startswith(("energy_", "trace_events", "net_hop_failures"))
    ]
    net.energy.charge_rx_each([], kind="flood")
    assert net.registry.as_dict() == snapshot
    net.energy.charge_tx(4)
    assert list(net.registry.as_dict()["energy_tx_packets"].items()) == [((), 1)]
    assert net.registry.as_dict()["energy_rx_packets"] == {}
