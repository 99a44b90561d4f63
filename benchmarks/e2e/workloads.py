"""The four pinned benchmark workloads.

Each workload is a list of ``(system, ScenarioConfig)`` steps run back
to back through the public ``run_scenario``; only ``baselines_flood``
has more than one step.  Everything but the seed is fixed here: the
benchmark has no size or environment knobs, so two checkouts always
measure the same work.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys
from typing import List, Tuple

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.chaos.spec import FaultSpec  # noqa: E402
from repro.experiments.config import FaultConfig, ScenarioConfig  # noqa: E402
from repro.qos.config import BurstyConfig, QosConfig  # noqa: E402
from repro.recovery.config import RecoveryConfig  # noqa: E402
from repro.telemetry.config import TelemetryConfig  # noqa: E402

Step = Tuple[str, ScenarioConfig]

#: name -> the one-line reason BENCHMARK.json records for it.
WORKLOADS = {
    "refer_steady": (
        "REFER at the paper's default point (200 sensors, 120 s): "
        "construction is under 10 %, so maintenance, routing, MAC and "
        "mobility do the work"
    ),
    "refer_build": (
        "REFER at 800 sensors for 20 s: embedding, flood and energy "
        "construction is about 80 % of the run, routing almost nothing"
    ),
    "baselines_flood": (
        "DaTree, D-DEAR and Kautz-overlay at 200 sensors with faults: "
        "the flood and re-discovery path through the shared net layers, "
        "no REFER core"
    ),
    "refer_stress": (
        "REFER with chaos, recovery/ARQ, QoS queues, bursty load and "
        "the flight recorder all on: the opt-in branches a fast-path "
        "change can slow"
    ),
}


def _common() -> dict:
    common = {"rate_pps": 12.0, "packet_bytes": 1000}
    # ROADMAP item 3 may delete the engine matrix; take the fast engine
    # only while the field exists so the benchmark survives that PR.
    if any(f.name == "engine" for f in dataclasses.fields(ScenarioConfig)):
        from repro.sim.engine import EngineConfig

        common["engine"] = EngineConfig.fast()
    return common


def warmup_step(seed: int) -> Step:
    """A 50-sensor, 2 s REFER run: cheap, and touches every import."""
    return (
        "REFER",
        ScenarioConfig(
            seed=seed, sensor_count=50, sim_time=2.0, warmup=0.5, **_common()
        ),
    )


def build(name: str, seed: int) -> List[Step]:
    """The steps of workload ``name`` for scenario seed ``seed``."""
    common = _common()
    if name == "refer_steady":
        return [(
            "REFER",
            ScenarioConfig(
                seed=seed, sensor_count=200, sensor_max_speed=3.0,
                sim_time=120.0, warmup=12.0, **common,
            ),
        )]
    if name == "refer_build":
        return [(
            "REFER",
            ScenarioConfig(
                seed=seed, sensor_count=800, sim_time=20.0, warmup=2.0,
                **common,
            ),
        )]
    if name == "baselines_flood":
        config = ScenarioConfig(
            seed=seed, sensor_count=200, faults=FaultConfig(count=10),
            sim_time=20.0, warmup=2.0, **common,
        )
        return [(s, config) for s in ("DaTree", "D-DEAR", "Kautz-overlay")]
    if name == "refer_stress":
        return [(
            "REFER",
            ScenarioConfig(
                seed=seed, sensor_count=200, sim_time=30.0, warmup=3.0,
                fault_spec=(
                    FaultSpec(kind="rotation", count=10, period=10.0, start=5.0),
                    FaultSpec(kind="links", mean_good=8.0, mean_bad=1.0, start=5.0),
                ),
                recovery=RecoveryConfig(),
                qos=QosConfig(),
                bursty=BurstyConfig(
                    sources=10, peak_rate_pps=12.0, load_multiplier=3.0
                ),
                telemetry=TelemetryConfig(),
                **common,
            ),
        )]
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
