"""Tests for the trace log."""

import pytest

from repro.sim.trace import TraceLog


class TestTraceLog:
    def test_records_entries(self):
        log = TraceLog()
        log.record(1.0, "send", "a->b")
        log.record(2.0, "drop", "c")
        assert [e.category for e in log.entries()] == ["send", "drop"]

    def test_category_filter(self):
        log = TraceLog()
        log.record(1.0, "send")
        log.record(2.0, "drop")
        log.record(3.0, "send")
        assert len(log.entries("send")) == 2

    def test_counts_survive_capacity_eviction(self):
        log = TraceLog(capacity=2)
        for i in range(10):
            log.record(float(i), "send")
        assert log.count("send") == 10
        assert len(log.entries()) == 2

    def test_disabled_still_counts(self):
        log = TraceLog(enabled=False)
        log.record(1.0, "send")
        assert log.count("send") == 1
        assert log.entries() == []

    def test_categories_sorted(self):
        log = TraceLog()
        log.record(1.0, "zeta")
        log.record(1.0, "alpha")
        assert log.categories() == ["alpha", "zeta"]

    def test_clear(self):
        log = TraceLog()
        log.record(1.0, "send")
        log.clear()
        assert log.count("send") == 0
        assert log.entries() == []

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=-1)

    def test_unknown_category_count_is_zero(self):
        assert TraceLog().count("nothing") == 0


class TestRegistryBridge:
    def test_counters_live_in_a_shared_registry(self):
        from repro.telemetry.registry import Registry

        registry = Registry()
        log = TraceLog(registry=registry)
        log.record(1.0, "send")
        log.record(2.0, "send")
        assert registry.get("trace_events").value_at("send") == 2

    def test_clear_zeroes_the_registry_family(self):
        from repro.telemetry.registry import Registry

        registry = Registry()
        log = TraceLog(registry=registry)
        log.record(1.0, "send")
        log.clear()
        assert registry.get("trace_events").value_at("send", default=0) == 0
