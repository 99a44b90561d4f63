"""Energy conservation: every battery drain is a ledger charge.

A node's ``consumed_joules`` and its ``energy_node_joules`` children are
two accounts of the same charges, kept apart: the battery is drained
where a frame is sent or heard, the ledger is charged beside it, and a
flood drains an unmetered battery by count at its end.  After a run with
unmetered nodes they must agree, node by node, exactly (every charge is
a multiple of 2**-2, so no sum rounds): a drain lost or doubled on any
path shows here.
"""

import pytest

from repro.experiments import runner
from repro.experiments.config import FaultConfig, ScenarioConfig
from repro.experiments.runner import SYSTEMS, run_scenario
from repro.net.network import WirelessNetwork

CONFIG = ScenarioConfig(
    seed=2,
    sensor_count=120,
    sim_time=15.0,
    warmup=2.0,
    faults=FaultConfig(count=5),
)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_battery_matches_its_ledger_children(system, monkeypatch):
    built = []

    class Recorded(WirelessNetwork):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runner, "WirelessNetwork", Recorded)
    result = run_scenario(system, CONFIG)
    (network,) = built
    ledger = {}
    for (node_id, _), joules in network.registry.as_dict()[
        "energy_node_joules"
    ].items():
        ledger[node_id] = ledger.get(node_id, 0.0) + joules
    nodes = network.medium.node_table.values()
    assert len(nodes) == 125 and result.construction_energy_j > 0
    assert all(node.battery_joules is None for node in nodes)
    assert {
        node.id: node.consumed_joules for node in nodes
    } == {node.id: ledger.get(node.id, 0.0) for node in nodes}
