"""Unit tests for the QoS vocabulary (classes, config validation)."""

import pytest

from repro.errors import ConfigError
from repro.net.packet import Packet, PacketKind
from repro.qos import (
    PRIORITY_ORDER,
    BurstyConfig,
    TrafficClass,
    expiry_of,
)
from repro.qos.classes import lane_of


def class_of(packet):
    return PRIORITY_ORDER[lane_of(packet)]


def _packet(kind=PacketKind.DATA, traffic_class=None, deadline=None,
            created_at=0.0):
    return Packet(
        kind=kind,
        size_bytes=100,
        source=1,
        destination=2,
        created_at=created_at,
        deadline=deadline,
        traffic_class=traffic_class,
    )


class TestClassOf:
    def test_marked_packets_are_believed(self):
        for cls in TrafficClass:
            packet = _packet(traffic_class=cls.value)
            assert class_of(packet) is cls

    def test_unmarked_data_is_bulk(self):
        assert class_of(_packet(kind=PacketKind.DATA)) is TrafficClass.BULK

    @pytest.mark.parametrize(
        "kind",
        [k for k in PacketKind if k is not PacketKind.DATA],
    )
    def test_unmarked_protocol_frames_travel_as_control(self, kind):
        """Probes/ACKs/etc. must never be classed below the bulk tier."""
        assert class_of(_packet(kind=kind)) is TrafficClass.CONTROL

    def test_priority_order_is_alarm_first_bulk_last(self):
        assert PRIORITY_ORDER[0] is TrafficClass.ALARM
        assert PRIORITY_ORDER[-1] is TrafficClass.BULK
        assert len(PRIORITY_ORDER) == len(TrafficClass)


class TestExpiryOf:
    def test_no_deadline_means_no_expiry(self):
        assert expiry_of(_packet()) is None

    def test_expiry_is_anchored_at_creation(self):
        packet = _packet(deadline=0.25, created_at=3.5)
        assert expiry_of(packet) == pytest.approx(3.75)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"load_multiplier": float("nan")},  # ran, 0 packets generated
            {"load_multiplier": float("inf")},  # never returned
            {"peak_rate_pps": float("inf")},    # never returned
            {"peak_rate_pps": float("nan")},    # ran, 0 packets generated
            {"load_multiplier": 1e200, "peak_rate_pps": 1e200},
        ],
        ids=["load-nan", "load-inf", "peak-inf", "peak-nan", "product-inf"],
    )
    def test_bursty_offered_load_must_be_finite(self, overrides):
        with pytest.raises(ConfigError):
            BurstyConfig(**overrides)

    def test_scenario_config_rejects_wrong_types(self):
        from repro.experiments.config import ScenarioConfig

        with pytest.raises(ConfigError):
            ScenarioConfig(qos=object())
        with pytest.raises(ConfigError):
            ScenarioConfig(bursty=object())
