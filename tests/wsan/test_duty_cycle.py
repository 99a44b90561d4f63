"""Tests for the awake/sleep duty-cycle manager."""

import pytest

from repro.errors import ConfigError
from repro.wsan.duty_cycle import DutyCycleManager, SensorState


class TestStates:
    def test_all_start_asleep(self):
        duty = DutyCycleManager([1, 2, 3])
        assert [duty.state(s) for s in (1, 2, 3)] == [SensorState.SLEEP] * 3

    def test_activate(self):
        duty = DutyCycleManager([1, 2])
        duty.activate(1)
        assert duty.state(1) is SensorState.ACTIVE
        assert duty.state(2) is SensorState.SLEEP

    def test_unknown_sensor(self):
        with pytest.raises(ConfigError):
            DutyCycleManager([1]).state(9)


class TestReplacement:
    def test_replace_swaps_states(self):
        duty = DutyCycleManager([1, 2])
        duty.activate(1)
        duty.replace(1, 2)
        assert duty.state(1) is SensorState.SLEEP
        assert duty.state(2) is SensorState.ACTIVE

    def test_replace_with_active_rejected(self):
        duty = DutyCycleManager([1, 2])
        duty.activate(1)
        duty.activate(2)
        with pytest.raises(ConfigError):
            duty.replace(1, 2)

    def test_activation_after_replacement_cycle(self):
        duty = DutyCycleManager([1, 2])
        duty.activate(1)
        duty.replace(1, 2)
        duty.replace(2, 1)
        assert duty.state(1) is SensorState.ACTIVE
        assert duty.state(2) is SensorState.SLEEP
