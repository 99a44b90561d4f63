"""TraceStream unit behaviour + traced-run integration invariants.

The unit half pins the stream mechanics the divergence debugger leans
on: checkpoint digests snapshot *before* the boundary-crossing event
folds, the capture window retains exact sequence ranges, and packet
uids are digested as dense run-local ids so process-global counters
never leak into fingerprints.

The integration half pins the two load-bearing run-level claims:
tracing is byte-transparent (a traced run's metrics equal an untraced
one's), and a traced run is repeat-deterministic (same seed, same
fingerprint, same checkpoints).
"""

import functools
import hashlib
import struct

import pytest

from repro.errors import ConfigError, TelemetryError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.qos.config import QosConfig
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.tracing import (
    TraceEvent,
    TraceStream,
    TracingConfig,
    action_label,
    first_divergence,
)
from repro.util.rng import RngStreams

SCENARIO = ScenarioConfig(
    seed=11,
    sensor_count=40,
    area_side=220.0,
    sim_time=6.0,
    warmup=1.0,
    rate_pps=5.0,
)

#: A capture window no run reaches the end of: retain every event.
EVERYTHING = (0, 1 << 62)


def _traced(config: ScenarioConfig, **tracing_kwargs) -> ScenarioConfig:
    return config.with_(
        telemetry=TelemetryConfig(tracing=TracingConfig(**tracing_kwargs))
    )


class TestTracingConfig:
    def test_defaults(self):
        config = TracingConfig()
        assert config.checkpoint_interval == 1.0
        assert config.capture is None

    @pytest.mark.parametrize(
        "interval", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_rejects_nonpositive_interval(self, interval):
        with pytest.raises(ConfigError):
            TracingConfig(checkpoint_interval=interval)

    @pytest.mark.parametrize("window", [(-1, 5), (7, 3)])
    def test_rejects_invalid_capture_window(self, window):
        with pytest.raises(ConfigError):
            TracingConfig(capture=window)


class TestTraceStream:
    def test_identical_feeds_identical_fingerprints(self):
        left, right = TraceStream(), TraceStream()
        for stream in (left, right):
            stream.record(0.1, "dispatch", "A._fire", "0")
            stream.record(0.2, "rng", "workload.cbr", "random=0.5")
            stream.bind_clock(lambda: 1.5)
            stream.close()
        assert left.fingerprint() == right.fingerprint()
        assert left.checkpoints == right.checkpoints

    def test_single_event_changes_the_fingerprint(self):
        left, right = TraceStream(), TraceStream()
        left.record(0.1, "dispatch", "A._fire", "0")
        right.record(0.1, "dispatch", "A._fire", "1")
        assert left.fingerprint() != right.fingerprint()

    def test_checkpoint_digest_excludes_the_crossing_event(self):
        """The boundary snapshot folds events strictly before it."""
        stream = TraceStream(TracingConfig(checkpoint_interval=1.0))
        stream.record(0.5, "dispatch", "A._fire", "0")
        stream.record(1.2, "dispatch", "B._fire", "1")  # crosses t=1.0
        (checkpoint,) = stream.checkpoints
        assert checkpoint.time == 1.0
        assert checkpoint.events_seen == 1
        # One flushed batch: the text lines, then the packed times.
        expected = hashlib.sha256(
            b"dispatch|A._fire|0\n" + struct.pack("<d", 0.5)
        )
        assert checkpoint.digest == expected.hexdigest()

    def test_quiet_windows_emit_their_checkpoints_on_crossing(self):
        """An event three intervals out back-fills the skipped ones."""
        stream = TraceStream(TracingConfig(checkpoint_interval=1.0))
        stream.record(0.5, "dispatch", "A._fire", "0")
        stream.record(3.5, "dispatch", "B._fire", "1")
        assert [c.time for c in stream.checkpoints] == [1.0, 2.0, 3.0]
        # The skipped windows all snapshot the same (idle) digest.
        digests = {c.digest for c in stream.checkpoints}
        assert len(digests) == 1

    def test_capture_window_retains_exact_range(self):
        stream = TraceStream(TracingConfig(capture=(3, 6)))
        for i in range(10):
            stream.record(0.1 * i, "dispatch", "A._fire", str(i))
        assert stream.events_seen == 10
        captured = stream.captured()
        assert [event.seq for event in captured] == [3, 4, 5]
        assert isinstance(captured[0], TraceEvent)
        assert [event.detail for event in captured] == ["3", "4", "5"]

    def test_uids_are_digested_as_dense_local_ids(self):
        """Two runs whose raw uids differ still fingerprint the same."""
        left = TraceStream(TracingConfig(capture=EVERYTHING))
        right = TraceStream()
        left.lifecycle(101, 0.1, "generate", 3, None, "")
        left.lifecycle(205, 0.2, "generate", 4, None, "")
        left.lifecycle(101, 0.3, "deliver", None, 0, "")
        right.lifecycle(9001, 0.1, "generate", 3, None, "")
        right.lifecycle(9002, 0.2, "generate", 4, None, "")
        right.lifecycle(9001, 0.3, "deliver", None, 0, "")
        assert left.fingerprint() == right.fingerprint()
        first, second, third = left.captured()
        assert "uid=0" in first.detail
        assert "uid=1" in second.detail
        assert "uid=0" in third.detail

    def test_close_emits_trailing_checkpoint_and_is_idempotent(self):
        stream = TraceStream(TracingConfig(checkpoint_interval=1.0))
        stream.record(0.5, "dispatch", "A._fire", "0")
        stream.bind_clock(lambda: 2.5)
        stream.close()
        times = [c.time for c in stream.checkpoints]
        assert times == [1.0, 2.0, 2.5]
        stream.bind_clock(lambda: 9.0)
        stream.close()
        assert [c.time for c in stream.checkpoints] == times

    def test_close_without_a_clock_ends_at_the_latest_event(self):
        stream = TraceStream(TracingConfig(checkpoint_interval=1.0))
        stream.record(0.5, "dispatch", "A._fire", "0")
        stream.record(1.25, "dispatch", "B._fire", "1")
        stream.close()
        assert [c.time for c in stream.checkpoints] == [1.0, 1.25]
        assert stream.checkpoints[-1].events_seen == 2

    def test_rng_draws_timestamp_at_the_latest_dispatch(self):
        """Draws happen inside dispatched actions, so they stamp the
        dispatch time (0.0 before the first dispatch: construction)."""
        stream = TraceStream(TracingConfig(capture=EVERYTHING))
        stream.rng_draw("topology.place", "random", 0.25)
        stream.dispatch(0.75, 0, lambda: None)
        stream.rng_draw("workload.cbr", "random", 0.5)
        pre, _, event = stream.captured()
        assert pre.time == 0.0
        assert event.time == 0.75
        assert event.kind == "rng"
        assert event.label == "workload.cbr"
        assert event.detail == "random=0.5"


class TestActionLabel:
    def test_bound_method(self):
        class Thing:
            def fire(self):
                pass

        assert action_label(Thing().fire).endswith("Thing.fire")

    def test_partial_unwraps(self):
        def fire():
            pass

        label = action_label(functools.partial(fire, 1))
        assert label.endswith("fire")

    def test_plain_object_labels_by_type(self):
        assert action_label(object()) == "object"


class TestFirstDivergence:
    def _events(self, details):
        return tuple(
            TraceEvent(i, 0.1 * i, "dispatch", "A._fire", d)
            for i, d in enumerate(details)
        )

    def test_identical_returns_none(self):
        events = self._events(["a", "b"])
        assert first_divergence(events, events) is None

    def test_differing_element(self):
        left = self._events(["a", "b", "c"])
        right = self._events(["a", "X", "c"])
        index, a, b = first_divergence(left, right)
        assert index == 1
        assert a.detail == "b" and b.detail == "X"

    def test_length_mismatch(self):
        left = self._events(["a", "b"])
        right = self._events(["a"])
        index, a, b = first_divergence(left, right)
        assert index == 1
        assert a is not None and b is None


class TestRngTraceWiring:
    def test_set_trace_after_first_stream_raises(self):
        streams = RngStreams(1)
        streams.stream("workload.cbr")
        with pytest.raises(TelemetryError):
            streams.set_trace(TraceStream())

    def test_traced_stream_draw_sequence_matches_untraced(self):
        """Tracing observes draws; it never changes them."""
        plain = RngStreams(42).stream("workload.cbr")
        traced_streams = RngStreams(42)
        trace = TraceStream(TracingConfig(capture=EVERYTHING))
        traced_streams.set_trace(trace)
        traced = traced_streams.stream("workload.cbr")
        plain_draws = [
            plain.random(), plain.uniform(1, 5), plain.randrange(100),
            plain.sample(range(50), 5), plain.gauss(0, 1),
        ]
        traced_draws = [
            traced.random(), traced.uniform(1, 5), traced.randrange(100),
            traced.sample(range(50), 5), traced.gauss(0, 1),
        ]
        assert traced_draws == plain_draws
        assert trace.events_seen > 0
        assert all(event.kind == "rng" for event in trace.captured())


class TestTracedRuns:
    def test_tracing_is_byte_transparent(self):
        """Traced metrics are byte-identical to untraced ones."""
        plain = run_scenario("REFER", SCENARIO)
        traced = run_scenario("REFER", _traced(SCENARIO))
        for field in (
            "throughput_bps", "mean_delay_s", "comm_energy_j",
            "generated", "delivered_total", "dropped",
        ):
            assert getattr(traced, field) == getattr(plain, field)

    def test_repeat_runs_fingerprint_identically(self):
        first = run_scenario("REFER", _traced(SCENARIO))
        second = run_scenario("REFER", _traced(SCENARIO))
        first_trace = first.telemetry.trace
        second_trace = second.telemetry.trace
        assert first_trace.events_seen > 0
        assert first_trace.fingerprint() == second_trace.fingerprint()
        assert first_trace.checkpoints == second_trace.checkpoints

    def test_different_seeds_fingerprint_differently(self):
        left = run_scenario("REFER", _traced(SCENARIO))
        right = run_scenario("REFER", _traced(SCENARIO.with_(seed=12)))
        assert (
            left.telemetry.trace.fingerprint()
            != right.telemetry.trace.fingerprint()
        )

    def test_trace_records_all_three_event_kinds(self):
        result = run_scenario(
            "REFER", _traced(SCENARIO, capture=EVERYTHING)
        )
        kinds = {event.kind for event in result.telemetry.trace.captured()}
        assert {"dispatch", "rng", "flight"} <= kinds

    def test_checkpoints_cover_the_run(self):
        result = run_scenario("REFER", _traced(SCENARIO))
        checkpoints = result.telemetry.trace.checkpoints
        assert len(checkpoints) >= int(SCENARIO.sim_time)
        assert [c.index for c in checkpoints] == list(range(len(checkpoints)))
        # The registry digest is bound and non-empty at every boundary.
        assert all(c.registry_digest for c in checkpoints)

    def test_qos_run_traces_deterministically(self):
        config = _traced(SCENARIO.with_(qos=QosConfig()))
        first = run_scenario("REFER", config)
        second = run_scenario("REFER", config)
        assert (
            first.telemetry.trace.fingerprint()
            == second.telemetry.trace.fingerprint()
        )
