#!/usr/bin/env python3
"""Chemical-attack detection: bursty alarm traffic and the run report.

A release makes the sensors around it report in bursts: short, dense
on-periods separated by quiet gaps, with a share of the readings marked
as alarms that must reach an actuator within 250 ms.  The scenario runs
REFER with the QoS stack on and the heavy-tailed
:class:`~repro.qos.BurstyConfig` workload at ten times its nominal
load, then prints the telemetry report — the per-class delivery and
deadline funnel (bulk is shed, alarms are not), the drop reasons and
the energy breakdown.

Run:  python examples/chemical_attack.py
"""

from repro.experiments import ScenarioConfig, run_scenario
from repro.qos import BurstyConfig, QosConfig
from repro.telemetry import TelemetryConfig
from repro.telemetry.report import render


def main(seed: int = 13) -> None:
    config = ScenarioConfig(
        seed=seed,
        sensor_count=220,
        sensor_max_speed=0.5,
        sim_time=20.0,
        warmup=5.0,
        qos=QosConfig(),
        bursty=BurstyConfig(sources=12, load_multiplier=10.0),
        telemetry=TelemetryConfig(),
    )
    result = run_scenario("REFER", config)
    print("Chemical-attack detection (bursty alarms, QoS on)")
    print(render(result), end="")
    alarm = next(s for s in result.class_stats if s.traffic_class == "alarm")
    print(
        f"alarms within deadline: {alarm.delivered_in_deadline}"
        f"/{alarm.generated} ({100 * alarm.delivery_ratio:.1f}%)"
    )


if __name__ == "__main__":
    main()
