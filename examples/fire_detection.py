#!/usr/bin/env python3
"""Fire detection in a building: the paper's motivating scenario.

Smoke detectors (sensors) are densely deployed; sprinklers (actuators)
must react in real time.  A fire ignites at a random spot and spreads
outward; detectors inside the burning radius report continuously and
are eventually *destroyed by the fire* (fault injection with no
recovery), so the topology must heal while the event is ongoing.

The script runs the same fire against REFER and against the DaTree
baseline and reports detection latency and delivery statistics —
the real-time and fault-tolerance story of the paper in one scenario.

Run:  python examples/fire_detection.py
"""

import random

from repro.baselines.datree import DaTreeSystem
from repro.core.system import ReferSystem
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.util.geometry import Point
from repro.util.stats import RunningStat
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes

AREA = 500.0
SENSORS = 200
FIRE_START = 10.0         # ignition time (s)
FIRE_SPEED = 8.0          # radial spread (m/s)
BURN_DELAY = 12.0         # seconds inside the fire before a node dies
REPORT_PERIOD = 0.5       # detection report interval per burning detector
SIM_END = 60.0
QOS = 0.6                 # sprinklers must hear within 0.6 s


def run_fire(system_cls, seed=21):
    rng = random.Random(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(SENSORS, AREA, rng)
    # Smoke detectors are mounted: static deployment.
    build_nodes(network, plan, rng, sensor_max_speed=0.0)
    system = system_cls(network, plan, rng)
    network.set_phase(Phase.CONSTRUCTION)
    system.build()
    network.set_phase(Phase.COMMUNICATION)
    system.start()

    origin = Point(rng.uniform(100, 400), rng.uniform(100, 400))
    latency = RunningStat()
    stats = {"reports": 0, "delivered": 0, "late": 0, "lost": 0, "dead": 0}
    burning_since = {}

    def fire_radius(now):
        return max(0.0, (now - FIRE_START) * FIRE_SPEED)

    def tick():
        now = sim.now
        radius = fire_radius(now)
        for sensor in system.sensor_ids:
            node = network.node(sensor)
            if node.failed:
                continue
            distance = node.position(now).distance_to(origin)
            if distance > radius:
                continue
            since = burning_since.setdefault(sensor, now)
            if now - since > BURN_DELAY:
                network.fail_node(sensor)   # consumed by the fire
                stats["dead"] += 1
                continue
            stats["reports"] += 1
            pkt = Packet(
                PacketKind.DATA, 256, sensor, None, now, deadline=QOS
            )

            def delivered(p):
                stats["delivered"] += 1
                if p.latency(sim.now) <= QOS:
                    latency.add(p.latency(sim.now))
                else:
                    stats["late"] += 1

            system.send_event(
                sensor,
                pkt,
                on_delivered=delivered,
                on_dropped=lambda p, reason: stats.__setitem__(
                    "lost", stats["lost"] + 1
                ),
            )
        if now < SIM_END:
            sim.schedule(REPORT_PERIOD, tick)

    sim.schedule(FIRE_START, tick)
    sim.run_until(SIM_END + 2.0)
    system.stop()
    return {
        "system": system.name,
        "reports": stats["reports"],
        "in_time": latency.count,
        "late": stats["late"],
        "lost": stats["lost"],
        "destroyed": stats["dead"],
        "mean_ms": 1000 * latency.mean if latency.count else float("nan"),
        "energy_j": network.energy.total(Phase.COMMUNICATION),
    }


def main():
    print("Fire-detection scenario: burning detectors report to sprinklers")
    print(
        f"(area {AREA:.0f} m², {SENSORS} detectors, fire spreads at"
        f" {FIRE_SPEED} m/s and destroys detectors after {BURN_DELAY} s)\n"
    )
    header = (
        f"{'system':10s} {'reports':>8s} {'in-time':>8s} {'late':>6s}"
        f" {'lost':>6s} {'destroyed':>10s} {'mean ms':>8s} {'energy J':>10s}"
    )
    print(header)
    print("-" * len(header))
    for cls in (ReferSystem, DaTreeSystem):
        r = run_fire(cls)
        print(
            f"{r['system']:10s} {r['reports']:8d} {r['in_time']:8d}"
            f" {r['late']:6d} {r['lost']:6d} {r['destroyed']:10d}"
            f" {r['mean_ms']:8.1f} {r['energy_j']:10.0f}"
        )
    print(
        "\nREFER keeps reporting in real time while the fire eats the"
        " topology: failed Kautz relays are detoured instantly and"
        " replaced by wait-state candidates."
    )


if __name__ == "__main__":
    main()
