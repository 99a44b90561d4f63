"""Differential oracle: held, batched counter adds == a lookup per charge.

:class:`ReferenceLedger` is ``EnergyLedger``'s charging as it stood
before the ledger held its counter children or batched its adds: every
single charge resolves its label tuples through ``family.child(...)``
and goes through ``inc``, and a batch is one such charge per packet.
:func:`reference_flood` is the flood's old accounting loop: one ledger
charge and one battery drain per reception.  They live here as the
oracle.

Both formulations are driven with the same scripts and must agree *bit
for bit*: ``Registry.as_dict()`` compared ``==`` (no tolerance)
including the insertion order of every energy family's children, every
battery's ``consumed_joules``, the flood trees, and the packet counts.
A batch adds ``k * joules`` where the oracle adds ``joules`` ``k``
times; that is exact only because the paper's joules are multiples of
2**-2, which ``test_joules_are_dyadic`` guards.

The second half holds the two other kinds of held site to the same
standard, exports included: ``MetricFamily.held`` (the holder the
ledger, the network, and the metrics collector share) and ``StatsView``
fields, each against a ``family.child(...)`` per use.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError, TelemetryError
from repro.net import energy, network
from repro.net.energy import RX_JOULES, TX_JOULES, EnergyLedger, Phase
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
from tests.net.test_network import counted

PROFILE = settings(max_examples=150, deadline=None, derandomize=True)

ENERGY_FAMILIES = (
    "energy_joules",
    "energy_node_joules",
    "energy_kind_joules",
    "energy_tx_packets",
    "energy_rx_packets",
)


class ReferenceLedger(EnergyLedger):
    """The per-call ``child(...).inc(...)`` ledger (no held handles, no
    batched adds)."""

    def charge_tx(self, node_id, packets=1, kind="data"):
        joules = TX_JOULES * packets
        phase = self._phase.value
        self._by_phase.child(phase).inc(joules)
        self._by_node.child(node_id, phase).inc(joules)
        self._by_kind.child(kind, phase).inc(joules)
        self._tx_packets.inc(packets)
        return joules

    def charge_rx(self, node_id, packets=1, kind="data"):
        joules = RX_JOULES * packets
        phase = self._phase.value
        self._by_phase.child(phase).inc(joules)
        self._by_node.child(node_id, phase).inc(joules)
        self._by_kind.child(kind, phase).inc(joules)
        self._rx_packets.inc(packets)
        return joules

    def charge_tx_each(self, node_ids, kind="data"):
        for node_id in node_ids:
            self.charge_tx(node_id, kind=kind)

    def charge_rx_each(self, node_ids, kind="data"):
        for node_id in node_ids:
            self.charge_rx(node_id, kind=kind)

    def charge_rx_counts(self, counts, kind="data"):
        for node_id, packets in counts.items():
            for _ in range(packets):
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
                net.node(nb).drain(RX_JOULES)
                if nb not in tree:
                    tree[nb] = (depth, node_id)
                    next_frontier.append(nb)
        frontier = next_frontier
    for node_id, (hops, _) in tree.items():
        if hops < ttl:
            net.energy.charge_tx(node_id, kind="flood")
            net.node(node_id).drain(TX_JOULES)
    return tree


def ordered_energy(registry):
    """The five energy families with their children in insertion order."""
    snapshot = registry.as_dict()
    return {name: list(snapshot[name].items()) for name in ENERGY_FAMILIES}


def test_joules_are_dyadic():
    # A batch adds k * joules where single charges add joules k times;
    # the two floats are equal only for multiples of 2**-2.  A constant
    # off that grid must fail here, not drift an export by an ulp.
    for joules in (TX_JOULES, RX_JOULES):
        assert joules >= 0
        assert (joules * 4).is_integer(), joules


# -- ledger scripts ----------------------------------------------------------

NODE_IDS = st.integers(min_value=0, max_value=7)
KINDS = st.sampled_from(["data", "control", "probe", "flood"])
LEDGER = st.integers(min_value=0, max_value=1)
OPS = st.one_of(
    st.tuples(st.sampled_from(["tx", "rx"]), LEDGER, NODE_IDS,
              st.integers(min_value=0, max_value=3), KINDS),
    st.tuples(st.sampled_from(["tx_each", "rx_each"]), LEDGER,
              st.lists(NODE_IDS, max_size=12), KINDS),
    st.tuples(st.just("rx_counts"), LEDGER,
              st.lists(NODE_IDS, max_size=30), KINDS),
    st.tuples(st.just("phase"), LEDGER, st.sampled_from(list(Phase))),
    st.tuples(st.just("read"), LEDGER),
)


def run_script(ledger_type, ops):
    """Two ledgers of ``ledger_type`` on one shared registry; returns
    everything observable after every step."""
    registry = Registry()
    ledgers = [ledger_type(registry=registry) for _ in range(2)]
    observed = []
    for op in ops:
        result = None
        ledger = ledgers[op[1]]
        if op[0] == "tx":
            result = ledger.charge_tx(op[2], packets=op[3], kind=op[4])
        elif op[0] == "rx":
            result = ledger.charge_rx(op[2], packets=op[3], kind=op[4])
        elif op[0] == "tx_each":
            ledger.charge_tx_each(op[2], kind=op[3])
        elif op[0] == "rx_each":
            ledger.charge_rx_each(op[2], kind=op[3])
        elif op[0] == "rx_counts":
            ledger.charge_rx_counts(Counter(op[2]), kind=op[3])
        elif op[0] == "phase":
            ledger.set_phase(op[2])
        else:
            result = (
                ledger.grand_total(),
                [ledger.total(phase) for phase in Phase],
                ledger.kinds(),
            )
        observed.append((result, ordered_energy(registry)))
    return observed


@PROFILE
@given(ops=st.lists(OPS, max_size=60))
def test_held_handles_match_per_call_lookup(ops):
    assert run_script(EnergyLedger, ops) == run_script(ReferenceLedger, ops)


# -- floods over draining batteries ------------------------------------------


def build_network(seed, count, ledger_type):
    """``count`` static nodes in a 300 m square, 100 m range, batteries
    of a few joules so receptions exhaust nodes in the middle of a flood."""
    rng = random.Random(seed)
    sim = Simulator()
    net = WirelessNetwork(sim, random.Random(seed))
    net.energy = ledger_type(registry=net.registry)
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


#: Where a flood runs: in a fresh neighbour-cache bucket, whose tuples
#: see the batteries every earlier flood drained; in the bucket of the
#: flood before, where a flood through the same forwarders in the same
#: phase reuses its reception count; or there again, from the flood
#: before's sources reversed and with its ttl: the same forwarders, each
#: node first heard in another order.
MOVES = st.sampled_from(["roll", "stay", "echo"])

FLOODS = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(list(Phase)),
        MOVES,
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=30, max_value=60),
    floods=FLOODS,
    unmetered=st.sets(st.integers(min_value=0, max_value=59)),
)
def test_batched_flood_matches_per_reception_flood(
    seed, count, floods, unmetered
):
    sim, net = build_network(seed, count, EnergyLedger)
    ref_sim, ref = build_network(seed, count, ReferenceLedger)
    for world in (net, ref):
        for node in world.medium.node_table.values():
            if node.id in unmetered:
                node.battery_joules = None
    now = 0.0
    before = None
    for sources, ttl, phase, move in floods:
        if move == "roll":
            now += 0.25
            for clock in (sim, ref_sim):
                clock.run_until(now)
        elif move == "echo" and before is not None:
            sources, ttl = before[0][::-1], before[1]
        before = sources, ttl
        net.set_phase(phase)
        ref.set_phase(phase)
        if len(sources) == 1:
            tree = net.flood(sources[0], ttl)
        else:
            tree = net.flood_multi(sources, ttl)
        expected = reference_flood(ref, sources, ttl)
        assert list(tree.items()) == list(expected.items())
        assert [n.consumed_joules for n in net.medium.node_table.values()] == [
            n.consumed_joules for n in ref.medium.node_table.values()
        ]
        assert ordered_energy(net.registry) == ordered_energy(ref.registry)


def test_batteries_run_out_inside_one_flood():
    # What makes the flood property bite: receptions exhaust nodes while
    # the flood is still spreading, and an exhausted node hears nothing
    # more, so who is charged depends on every drain having landed
    # before the next neighbour list is computed.
    _, net = build_network(3, 50, EnergyLedger)
    unmetered = build_network(3, 50, EnergyLedger)[1]
    for node in unmetered.medium.node_table.values():
        node.battery_joules = None
    net.flood(0, ttl=5)
    unmetered.flood(0, ttl=5)
    assert any(not node.usable for node in net.medium.node_table.values())
    assert (
        0
        < counted(net.registry, "energy_rx_packets")
        < counted(unmetered.registry, "energy_rx_packets")
    )


class CountingLedger(EnergyLedger):
    """Counts the charging calls a ledger receives, by method."""

    def __init__(self, registry=None):
        super().__init__(registry=registry)
        self.calls = Counter()

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        if name.startswith("charge_"):
            super().__getattribute__("calls")[name] += 1
        return attr


def flood_the_field():
    """200 unmetered nodes, 100 m range in a 500 m square, and one flood
    over the whole field, with every node forwarding: the network (its
    ledger counting charging calls) and the tree."""
    rng = random.Random(11)
    net = WirelessNetwork(Simulator(), random.Random(11))
    net.energy = CountingLedger(registry=net.registry)
    for node_id in range(200):
        position = Point(rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0))
        net.add_node(
            Node(node_id, NodeRole.SENSOR, StaticMobility(position), 100.0)
        )
    return net, net.flood(0, ttl=64)


def test_a_flood_charges_the_ledger_by_count():
    net, tree = flood_the_field()
    assert len(tree) > 150
    assert counted(net.registry, "energy_rx_packets") > 10 * len(tree)
    assert net.energy.calls == {"charge_rx_counts": 1, "charge_tx_each": 1}


@pytest.mark.parametrize("between", ["nothing", "add_node", "set_phase"])
def test_a_bucket_counts_one_forwarder_set_once(monkeypatch, between):
    # Two full floods from two ends of one component, in one bucket,
    # have the same forwarders, so the second reuses the first's
    # count.  A node registered between them (out of everyone's range,
    # so the forwarders stay the same) drops the bucket's counts with
    # its tuples, and a phase switch leaves a count filed in another
    # phase: either way the second flood counts again.
    builds = []

    class CountingCounter(Counter):
        def __init__(self, *args, **kwargs):
            builds.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(network, "Counter", CountingCounter)
    net, first = flood_the_field()
    received = counted(net.registry, "energy_rx_packets")
    if between == "add_node":
        net.add_node(Node(
            200, NodeRole.SENSOR, StaticMobility(Point(5000.0, 5000.0)), 100.0
        ))
    elif between == "set_phase":
        net.set_phase(Phase.COMMUNICATION)
    second = net.flood(list(first)[-1], ttl=64)
    assert second.keys() == first.keys()
    assert counted(net.registry, "energy_rx_packets") == 2 * received
    assert len(builds) == (1 if between == "nothing" else 2)
    assert net.energy.calls == {"charge_rx_counts": 2, "charge_tx_each": 2}


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
    for name, key, amount in ops:
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
                    child._value = 7
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
            values = {name: getattr(view, name) for name in sorted(FIELDS)}
            read = (values, view.hits, view.joules, view.level)
        else:
            child = {
                name: registry.get(f"demo_{name}").child() for name in FIELDS
            }
            if op[0] == "add":
                child[op[2]].inc(op[3])
            elif op[0] == "set":
                child[op[2]]._value = op[3]
            else:
                child["level"]._value -= op[2]
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
    assert [getattr(first, name) for name in FIELDS] == [
        getattr(second, name) for name in FIELDS
    ]
    assert registry.get("demo_hits").value_at() == 5


@pytest.mark.parametrize("model", [(TX_JOULES, RX_JOULES), (0.0, 0.0)])
def test_a_rejected_charge_and_an_idle_family_export_no_sample(
    model, monkeypatch
):
    # Held children are created at first use, so what was never charged
    # -- or was refused -- leaves its family without a sample line.
    monkeypatch.setattr(energy, "TX_JOULES", model[0])
    monkeypatch.setattr(energy, "RX_JOULES", model[1])
    sim = Simulator()
    net = WirelessNetwork(sim, random.Random(1))
    for charge in (net.energy.charge_tx, net.energy.charge_rx):
        with pytest.raises(TelemetryError):
            charge(1, packets=-1)
    snapshot = net.registry.as_dict()
    for name in ENERGY_FAMILIES + ("net_hop_failures",):
        assert snapshot[name] == {}, name
    assert not [
        line
        for line in registry_to_prometheus(net.registry).splitlines()
        if line.startswith(("energy_", "net_hop_failures"))
    ]
    net.energy.charge_rx_each([], kind="flood")
    assert net.registry.as_dict() == snapshot
    net.energy.charge_tx(4)
    assert list(net.registry.as_dict()["energy_tx_packets"].items()) == [((), 1)]
    assert net.registry.as_dict()["energy_rx_packets"] == {}


def test_a_charge_naming_an_unknown_node_charges_nothing():
    # Every id is resolved before the ledger or a battery is touched, so
    # the error leaves no child for the unknown node and no partial batch.
    net = WirelessNetwork(Simulator(), random.Random(1))
    net.add_node(Node(0, NodeRole.SENSOR, StaticMobility(Point(0, 0)), 100.0))
    before = everything_exported(net.registry)
    charges = (
        lambda: net.charge_rx_each([0, 99], "flood"),
        lambda: net.charge_tx(99, "probe"),
        lambda: net.charge_rx(99, "probe"),
    )
    for charge in charges:
        with pytest.raises(NetworkError, match="unknown node id 99"):
            charge()
    assert everything_exported(net.registry) == before
    assert net.node(0).consumed_joules == 0.0
