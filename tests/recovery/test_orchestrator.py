"""End-to-end tests of the recovery orchestrator inside full runs."""

import pytest

import repro.net.node as node_module
from repro.chaos.spec import FaultSpec
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.recovery import RecoveryConfig
from repro.recovery.detector import DETECTOR_PERIOD, SUSPICION_THRESHOLD

BASE = ScenarioConfig(
    seed=7,
    sensor_count=60,
    area_side=260.0,
    sim_time=30.0,
    warmup=6.0,
    rate_pps=6.0,
)

ACTUATOR_KILL = FaultSpec(
    kind="actuator", count=1, period=20.0, duration=10.0, rounds=1,
    start=10.0,
)

SENSOR_ROTATION = FaultSpec(kind="rotation", count=3, period=10.0, start=10.0)


class TestActuatorTakeover:
    def test_kill_one_actuator_heals_the_can_tier(self):
        config = BASE.with_(
            fault_spec=(ACTUATOR_KILL,), recovery=RecoveryConfig()
        )
        run = run_scenario("REFER", config)
        report = run.recovery
        assert report is not None
        # The detector condemned the dead actuator from message
        # evidence alone, the healer handed its zones over, and the
        # actuator rejoined after the outage window.
        assert report.condemnations >= 1
        assert report.can_takeovers >= 1
        assert report.can_rejoins >= 1
        assert report.missed_faults == 0
        assert report.mean_time_to_detect_s > 0.0
        # Traffic survives the outage.
        assert run.delivery_ratio > 0.8

    def test_detection_is_not_instant_but_is_prompt(self):
        config = BASE.with_(
            fault_spec=(ACTUATOR_KILL,), recovery=RecoveryConfig()
        )
        run = run_scenario("REFER", config)
        report = run.recovery
        # Message-grounded detection needs threshold consecutive
        # missed heartbeats: the latency must exceed one period and
        # stay inside a handful of them.
        period = DETECTOR_PERIOD
        assert report.mean_time_to_detect_s >= period
        assert (
            report.mean_time_to_detect_s
            <= 3.0 * period * SUSPICION_THRESHOLD
        )

    def test_resilience_summary_carries_detection_latency(self):
        # The summary records each fault's dip and recovery; detection
        # and repair latency are recorded once, in the recovery report
        # of the same run.
        config = BASE.with_(
            fault_spec=(ACTUATOR_KILL,), recovery=RecoveryConfig()
        )
        run = run_scenario("REFER", config)
        assert run.resilience is not None
        assert run.resilience.fault_count >= 1
        assert run.recovery is not None
        assert run.recovery.mean_time_to_detect_s > 0.0
        assert run.recovery.mean_time_to_repair_s > 0.0


class TestSensorRepair:
    def test_condemned_sensors_get_replaced(self):
        config = BASE.with_(
            fault_spec=(SENSOR_ROTATION,), recovery=RecoveryConfig()
        )
        run = run_scenario("REFER", config)
        report = run.recovery
        assert report.condemnations >= 1
        # Maintenance consumed the verdicts (repairs landed) — the
        # repair clock closed at least one fault window.
        assert report.mean_time_to_repair_s > 0.0


class TestReportShape:
    def test_recovery_none_without_config(self):
        run = run_scenario("REFER", BASE)
        assert run.recovery is None

    def test_baselines_ignore_recovery_config(self):
        config = BASE.with_(recovery=RecoveryConfig())
        run = run_scenario("DaTree", config)
        assert run.recovery is None


class TestNoGroundTruthReads:
    """Maintenance must not read ``node.usable`` in detector mode."""

    @staticmethod
    def _recording_usable(readers):
        import sys

        original = node_module.Node.usable.fget

        def fget(self):
            readers.append(sys._getframe(1).f_code.co_filename)
            return original(self)

        return property(fget)

    def _run(self, monkeypatch, recovery):
        readers = []
        monkeypatch.setattr(
            node_module.Node, "usable", self._recording_usable(readers)
        )
        config = BASE.with_(
            fault_spec=(SENSOR_ROTATION,), recovery=recovery
        )
        run_scenario("REFER", config)
        return readers

    def test_detector_mode_maintenance_never_reads_usable(self, monkeypatch):
        readers = self._run(monkeypatch, RecoveryConfig())
        maintenance_reads = [
            f for f in readers if f.replace("\\", "/").endswith(
                "repro/core/maintenance.py"
            )
        ]
        assert maintenance_reads == []

    def test_omniscient_mode_does_read_usable(self, monkeypatch):
        # Sanity for the probe above: without the recovery stack the
        # seed's omniscient maintenance reads ground truth every round.
        readers = self._run(monkeypatch, None)
        maintenance_reads = [
            f for f in readers if f.replace("\\", "/").endswith(
                "repro/core/maintenance.py"
            )
        ]
        assert maintenance_reads
