"""Fast end-to-end resilience smoke (also the CI campaign gate).

One small K(2,3) world, one permanent-crash burst a third into the
run: REFER must take the hit (the windowed delivery ratio dips), then
recover within the probe's band — without issuing a single
route-discovery flood.  The tree baseline recovers by flooding, which
is exactly the contrast the resilience campaign measures at scale.
"""

from repro.chaos import FaultSpec
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario_cached

SMOKE = ScenarioConfig(
    seed=2,
    sensor_count=40,
    area_side=220.0,
    sim_time=20.0,
    warmup=3.0,
    rate_pps=8.0,
    fault_spec=FaultSpec(
        kind="permanent", count=10, period=30.0, rounds=1, start=8.0
    ),
)


class TestResilienceSmoke:
    def test_refer_recovers_without_flooding(self):
        result = run_scenario_cached("REFER", SMOKE)
        summary = result.resilience
        assert summary is not None
        assert summary.fault_count >= 1
        # The burst is heavy enough to observably dent delivery...
        assert min(r.trough for r in summary.records) < 1.0
        # ...and REFER climbs back into the baseline band, fast.
        assert summary.recovered_fraction == 1.0
        assert summary.mean_recovery_s <= 10.0
        # Local repair only: zero communication-phase flood energy.
        assert result.flood_comm_energy_j == 0.0
        assert result.delivery_ratio > 0.8

    def test_flooding_baseline_pays_for_repair(self):
        result = run_scenario_cached("DaTree", SMOKE)
        assert result.flood_comm_energy_j > 0.0

    def test_event_log_matches_spec(self):
        result = run_scenario_cached("REFER", SMOKE)
        injects = [e for e in result.fault_events if e.kind == "inject"]
        assert len(injects) == 1
        assert injects[0].time == 8.0
        assert len(injects[0].nodes) == 10
        assert injects[0].model == "permanent-crash"
