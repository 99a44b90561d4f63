"""Construction-scale determinism: a same-seed repeat at n=2000.

Two runs of one configuration in one process must produce **byte-
identical** outcomes — exact ``RunResult`` metrics and per-class
funnels.  2000 sensors makes construction
(embedding, floods, the spatial index) the bulk of the run, which is
where a stray unordered iteration or leaked global would show.
"""

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario

#: Every numeric field a run produces; compared with == (exact floats).
METRIC_FIELDS = (
    "throughput_bps",
    "mean_delay_s",
    "comm_energy_j",
    "construction_energy_j",
    "generated",
    "delivered_qos",
    "delivered_total",
    "dropped",
    "flood_comm_energy_j",
)


def _signature(result) -> str:
    """The full observable outcome of a run, as one comparable string."""
    base = {field: getattr(result, field) for field in METRIC_FIELDS}
    base["class_stats"] = result.class_stats
    return repr(base)


def test_same_seed_repeat_at_n2000():
    """Two n=2000 runs of one seed agree to the last digit."""
    config = ScenarioConfig(
        seed=3,
        sensor_count=2000,
        area_side=500.0,
        sim_time=6.0,
        warmup=1.0,
        rate_pps=2.0,
    )
    first = run_scenario("REFER", config)
    second = run_scenario("REFER", config)
    assert _signature(first) == _signature(second)
    assert first.generated > 0 and first.delivered_total > 0
