"""Tests for FaultSpec validation and chaos-model construction."""

import random

import pytest

from repro.chaos import (
    ActuatorOutageFault,
    BatteryDepletionFault,
    CrashRotationFault,
    FaultSpec,
    GilbertElliottLinkFault,
    PermanentCrashFault,
    RegionalBlackoutFault,
    build_chaos_model,
)
from repro.errors import ConfigError
from repro.experiments.config import ScenarioConfig

KIND_TO_CLASS = {
    "rotation": CrashRotationFault,
    "permanent": PermanentCrashFault,
    "actuator": ActuatorOutageFault,
    "blackout": RegionalBlackoutFault,
    "battery": BatteryDepletionFault,
    "links": GilbertElliottLinkFault,
}


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="cosmic-rays")

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="rotation", count=-1)

    def test_bad_timing_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="rotation", period=0.0)
        with pytest.raises(ConfigError):
            FaultSpec(kind="rotation", start=-1.0)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            # Each was accepted; the comment says what a 3 s run of 60
            # sensors then did.
            ("rotation", "start", float("nan")),     # SimulationError
            ("rotation", "start", float("inf")),     # SimulationError
            ("rotation", "period", float("inf")),    # SimulationError
            ("rotation", "period", float("nan")),    # SimulationError
            ("rotation", "duration", float("nan")),
            ("rotation", "duration", float("inf")),
            ("blackout", "radius", float("nan")),    # blacked out nothing
            ("blackout", "radius", 0.0),             # refused by run_scenario
            ("blackout", "radius", float("inf")),    # blacked out everyone
            ("links", "mean_good", float("nan")),    # ran, no fade
            ("links", "mean_good", float("inf")),
            ("links", "mean_bad", 0.0),              # refused by run_scenario
            ("links", "mean_bad", float("nan")),     # ran, no fade
        ],
    )
    def test_non_finite_or_non_positive_values_rejected(
        self, kind, field, value
    ):
        with pytest.raises(ConfigError):
            FaultSpec(kind=kind, **{field: value})

    def test_outage_duration_must_fit_period(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="actuator", period=5.0, duration=5.0)
        with pytest.raises(ConfigError):
            FaultSpec(kind="blackout", period=5.0, duration=6.0)
        # Non-outage kinds don't care.
        FaultSpec(kind="rotation", period=5.0, duration=6.0)

    def test_spec_is_hashable(self):
        a = FaultSpec(kind="rotation", count=2)
        b = FaultSpec(kind="rotation", count=2)
        assert hash(a) == hash(b)
        assert a == b


class TestScenarioConfigIntegration:
    def test_bare_spec_normalised_to_tuple(self):
        spec = FaultSpec(kind="rotation")
        config = ScenarioConfig(fault_spec=spec)
        assert config.fault_spec == (spec,)

    def test_config_with_specs_is_hashable(self):
        config = ScenarioConfig(
            fault_spec=(FaultSpec(kind="rotation"), FaultSpec(kind="links"))
        )
        assert hash(("REFER", config))  # the runner's memo key

    def test_non_spec_entries_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(fault_spec=("rotation",))


class TestBuildChaosModel:
    @pytest.mark.parametrize("kind", sorted(KIND_TO_CLASS))
    def test_kind_maps_to_model_class(self, kind):
        from tests.chaos.test_models import build_grid

        sim, net = build_grid(actuators=2)

        class FakeSystem:
            sensor_ids = [2, 3, 4, 5]
            actuator_ids = [0, 1]

        model = build_chaos_model(
            FaultSpec(kind=kind), net, FakeSystem(), random.Random(1),
            area_side=210.0,
        )
        assert isinstance(model, KIND_TO_CLASS[kind])
