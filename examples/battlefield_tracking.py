#!/usr/bin/env python3
"""Battlefield target tracking with mobile sensors (paper Section I).

Sensors are scattered over a battlefield and drift (wind, vehicles,
re-deployment) at up to 5 m/s; a hostile target crosses the field and
every sensor that senses it (within 60 m) reports to the nearest
actuator so it can intercept.  This exercises exactly what Figure 4/5
measure — mobility resilience — plus the DHT tier: the actuator that
first confirms the target also notifies the actuator of the cell the
target is heading toward, addressed by (CID, KID) — once per pair of
cells, routed over the actuators' CAN tier.

Run:  python examples/battlefield_tracking.py
"""

import math
import random

from repro.core.ids import ReferId
from repro.core.system import ReferSystem
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.telemetry.flight import DROP_REASONS
from repro.util.geometry import Point
from repro.util.stats import RunningStat
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes

AREA = 500.0
SENSORS = 250
SENSE_RANGE = 60.0
TARGET_SPEED = 12.0
SCAN_PERIOD = 0.5
QOS = 0.6


def target_position(now: float) -> Point:
    """The target enters at the west edge and crosses with a weave."""
    x = TARGET_SPEED * now
    y = 250.0 + 120.0 * math.sin(x / 90.0)
    return Point(min(x, AREA), max(0.0, min(y, AREA)))


def main(seed: int = 5) -> None:
    rng = random.Random(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(SENSORS, AREA, rng)
    build_nodes(network, plan, rng, sensor_max_speed=5.0)

    system = ReferSystem(network, plan, rng)
    network.set_phase(Phase.CONSTRUCTION)
    system.build()
    network.set_phase(Phase.COMMUNICATION)
    system.start()

    detection_latency = RunningStat()
    stats = {"detections": 0, "delivered": 0, "missed": 0, "handoffs": 0}
    confirmed_cells = set()
    warned = set()            # (here, ahead) cell pairs already warned
    handoff_ends = {"delivered": 0}

    def handoff_dropped(packet: Packet, reason: str) -> None:
        assert reason in DROP_REASONS, f"handoff dropped for {reason!r}"
        handoff_ends[reason] = handoff_ends.get(reason, 0) + 1

    def handoff_delivered(packet: Packet) -> None:
        handoff_ends["delivered"] += 1

    def forward_warning(report: Packet) -> None:
        """A confirmation in a cell the target will have left 8 s from
        now warns the cell ahead, once per (here, ahead) pair."""
        now = sim.now
        here = system.router.cell_at(target_position(now))
        confirmed_cells.add(here.cid)
        ahead = system.router.cell_at(target_position(now + 8.0))
        if ahead.cid == here.cid or (here.cid, ahead.cid) in warned:
            return
        warned.add((here.cid, ahead.cid))
        stats["handoffs"] += 1
        dest_kid = ahead.kid_of(
            min(
                (ahead.node_of(k) for k in ahead.actuator_kids),
                key=lambda a: network.node(a)
                .position(now)
                .distance_to(target_position(now + 8.0)),
            )
        )
        warning = Packet(PacketKind.DATA, 128, report.destination, None,
                         now, deadline=QOS)
        system.send_to(
            report.destination, ReferId(ahead.cid, dest_kid), warning,
            on_delivered=handoff_delivered, on_dropped=handoff_dropped,
        )

    def scan() -> None:
        now = sim.now
        target = target_position(now)
        if target.x >= AREA:
            return
        for sensor in system.sensor_ids:
            node = network.node(sensor)
            if not node.usable:
                continue
            if node.position(now).distance_to(target) > SENSE_RANGE:
                continue
            stats["detections"] += 1
            pkt = Packet(PacketKind.DATA, 512, sensor, None, now, deadline=QOS)

            def delivered(p):
                if p.latency(sim.now) <= QOS:
                    stats["delivered"] += 1
                    detection_latency.add(p.latency(sim.now))
                    forward_warning(p)
                else:
                    stats["missed"] += 1

            system.send_event(
                sensor,
                pkt,
                on_delivered=delivered,
                on_dropped=lambda p, reason: stats.__setitem__(
                    "missed", stats["missed"] + 1
                ),
            )
        sim.schedule(SCAN_PERIOD, scan)

    sim.schedule(0.0, scan)
    crossing_time = AREA / TARGET_SPEED
    sim.run_until(crossing_time + 3.0)
    system.stop()

    print("Battlefield tracking: mobile sensors, weaving target")
    print(
        f"  target crossed {AREA:.0f} m in {crossing_time:.0f} s;"
        f" sensors drift at up to 5 m/s"
    )
    print(f"  detections reported : {stats['detections']}")
    print(f"  delivered in time   : {stats['delivered']}")
    print(f"  missed / late       : {stats['missed']}")
    print(
        f"  mean report latency : {1000 * detection_latency.mean:.1f} ms"
        f"  (QoS bound {1000 * QOS:.0f} ms)"
    )
    print(f"  inter-cell handoffs : {stats['handoffs']} (CAN DHT tier)")
    print(f"  handoff outcomes    : {handoff_ends}")
    print(
        f"  cells traversed     : {sorted(confirmed_cells)}"
    )
    print(
        f"  replacements        : "
        f"{system.maintenance.stats.replacements} Kautz nodes swapped"
        " while tracking"
    )
    print(
        f"  energy              : "
        f"{network.energy.total(Phase.COMMUNICATION):.0f} J communication"
    )
    assert stats["delivered"] > 0.9 * stats["detections"], (
        "real-time delivery degraded unexpectedly"
    )
    assert stats["handoffs"] >= 1, "no warning crossed the actuator tier"
    assert sum(handoff_ends.values()) == stats["handoffs"], (
        "a handoff was neither delivered nor dropped with a named reason"
    )


if __name__ == "__main__":
    main()
