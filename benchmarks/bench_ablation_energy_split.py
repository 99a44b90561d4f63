"""Ablation: where does each system's energy actually go?

Section IV-D argues "message transmission dominates the influence on
the energy consumed due to less topology updates" for some systems and
the opposite for others.  With per-traffic-class accounting the claim
becomes measurable: split each system's lifetime energy into data
forwarding, control/repair, probing/keep-alives and flooding.
"""

import random

from repro.baselines import DaTreeSystem, DDearSystem, KautzOverlaySystem
from repro.core.system import ReferSystem
from repro.experiments.config import ScenarioConfig
from repro.experiments.metrics import MetricsCollector
from repro.experiments.workload import CbrWorkload
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.sim.core import Simulator
from repro.util.rng import RngStreams
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes

from _common import bench_base_config

KINDS = ("data", "control", "probe", "flood", "query")


def run_split(system_cls, config: ScenarioConfig):
    streams = RngStreams(config.seed)
    sim = Simulator()
    network = WirelessNetwork(sim, streams.stream("mac"))
    plan = plan_deployment(
        config.sensor_count, config.area_side, streams.stream("deployment")
    )
    build_nodes(
        network, plan, streams.stream("mobility"),
        sensor_max_speed=config.sensor_max_speed,
    )
    system = system_cls(network, plan, streams.stream("system"))
    network.set_phase(Phase.CONSTRUCTION)
    system.build()
    construction_kinds = dict(network.energy.kinds())
    network.set_phase(Phase.COMMUNICATION)
    system.start()
    metrics = MetricsCollector(sim, config.warmup)
    workload = CbrWorkload(
        sim, system, metrics, streams.stream("workload"),
        rate_pps=config.rate_pps, packet_bytes=config.packet_bytes,
    )
    workload.start(0.0, config.end_time)
    sim.run_until(config.end_time + 2.0)
    system.stop()
    totals = network.energy.kinds()
    comm_kinds = {
        kind: totals.get(kind, 0.0) - construction_kinds.get(kind, 0.0)
        for kind in set(totals) | set(construction_kinds)
    }
    return system.name, comm_kinds


def test_energy_split(benchmark):
    config = bench_base_config().with_(sensor_max_speed=3.0, seed=1)

    def sweep():
        return [
            run_split(cls, config)
            for cls in (
                ReferSystem, DaTreeSystem, DDearSystem, KautzOverlaySystem
            )
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nCommunication-phase energy by traffic class (J):")
    header = f"{'system':14s}" + "".join(f"{k:>10s}" for k in KINDS)
    print(header)
    table = {}
    for name, kinds in results:
        table[name] = kinds
        row = f"{name:14s}" + "".join(
            f"{kinds.get(k, 0.0):10.0f}" for k in KINDS
        )
        print(row)

    def share(name, kind):
        total = sum(v for v in table[name].values() if v > 0)
        return table[name].get(kind, 0.0) / total if total else 0.0

    # REFER: data transmission dominates; floods are zero by design —
    # exactly 0.0 (no flood events at all), not approximately.
    assert table["REFER"].get("flood", 0.0) == 0.0
    assert share("REFER", "data") > 0.5
    # DaTree under mobility: repair flooding dominates its budget.
    assert share("DaTree", "flood") > share("REFER", "probe")
    assert share("DaTree", "flood") > 0.3
    # The overlay spends heavily on both long data paths and floods.
    assert share("Kautz-overlay", "data") + share(
        "Kautz-overlay", "flood"
    ) > 0.5
