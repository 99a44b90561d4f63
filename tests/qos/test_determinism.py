"""QoS determinism goldens, extending the net-suite patterns.

Three contracts:

* **opt-in transparency** — ``qos=None`` (the default) marks no
  traffic, so a run reports no per-class funnels (the pinned digests
  hold the legacy flow to the byte);
* **reproducibility** — same seed + QoS on (with the bursty workload,
  and composed with chaos + recovery) is byte-identical run-to-run,
  including the per-class funnels;
* **efficacy sanity** — with QoS enabled the flow genuinely differs,
  and under overload the alarm class outlives the bulk class.
"""

from repro.chaos.spec import FaultSpec
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.qos import BurstyConfig, QosConfig
from repro.recovery import RecoveryConfig
from repro.telemetry import TelemetryConfig

from tests.net.test_determinism import METRIC_FIELDS, SMALL

OVERLOAD = SMALL.with_(
    sim_time=8.0,
    qos=QosConfig(),
    bursty=BurstyConfig(sources=6, load_multiplier=8.0),
)


def metrics_of(result):
    fields = {name: getattr(result, name) for name in METRIC_FIELDS}
    fields["class_stats"] = result.class_stats
    return fields


class TestQosOptInTransparency:
    def test_default_config_has_no_class_stats(self):
        result = run_scenario("REFER", SMALL)
        assert result.class_stats == ()


class TestQosReproducibility:
    def test_overload_run_byte_identical(self):
        a = run_scenario("REFER", OVERLOAD)
        b = run_scenario("REFER", OVERLOAD)
        assert repr(metrics_of(a)) == repr(metrics_of(b))

    def test_overload_with_chaos_and_recovery_byte_identical(self):
        config = OVERLOAD.with_(
            fault_spec=(FaultSpec(kind="rotation", start=4.0),),
            recovery=RecoveryConfig(),
            telemetry=TelemetryConfig(),
        )
        a = run_scenario("REFER", config)
        b = run_scenario("REFER", config)
        assert repr(metrics_of(a)) == repr(metrics_of(b))
        assert a.recovery == b.recovery
        assert a.telemetry.registry.as_dict() == b.telemetry.registry.as_dict()

    def test_different_seed_different_overload_run(self):
        a = run_scenario("REFER", OVERLOAD)
        b = run_scenario("REFER", OVERLOAD.with_(seed=SMALL.seed + 1))
        assert metrics_of(a) != metrics_of(b)


class TestQosEfficacy:
    def test_qos_changes_the_flow_only_when_enabled(self):
        """Sanity: with the stack on the schedule genuinely differs."""
        plain = run_scenario(
            "REFER", OVERLOAD.with_(qos=None)
        )
        shaped = run_scenario("REFER", OVERLOAD)
        assert metrics_of(plain) != metrics_of(shaped)

    def test_alarm_outlives_bulk_under_overload(self):
        result = run_scenario("REFER", OVERLOAD)
        stats = {s.traffic_class: s for s in result.class_stats}
        assert stats["alarm"].generated > 0
        assert stats["bulk"].generated > stats["alarm"].generated
        assert (
            stats["alarm"].delivery_ratio >= stats["bulk"].delivery_ratio
        )
        assert stats["alarm"].delivery_ratio >= 0.9
