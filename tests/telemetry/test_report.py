"""Run report rendering and the three exporters.

:func:`repro.telemetry.report.render` is pure (RunResult in, str out),
so the section assertions here run against one shared scenario; the
exporter tests assert that every emitted line survives a JSON round
trip and that the Prometheus text keeps its cumulative-bucket
invariants.
"""

import json

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.telemetry import Telemetry, TelemetryConfig, TracingConfig
from repro.telemetry.export import (
    flight_to_jsonl_lines,
    registry_to_jsonl_lines,
    registry_to_prometheus,
    trace_to_jsonl_lines,
)
from repro.telemetry.registry import Registry
from repro.telemetry.report import main, render

SCENARIO = ScenarioConfig(
    seed=7,
    sensor_count=40,
    area_side=220.0,
    sim_time=12.0,
    warmup=2.0,
    rate_pps=5.0,
)


@pytest.fixture(scope="module")
def observed():
    return run_scenario("REFER", SCENARIO.with_(telemetry=TelemetryConfig()))


class TestRender:
    def test_all_sections_present(self, observed):
        text = render(observed)
        for heading in (
            "run report: REFER",
            "delivery / QoS funnel",
            "top drop reasons",
            "energy breakdown",
            "detection / repair timeline",
            "simulated-work profile",
        ):
            assert heading in text

    def test_funnel_counts_match_result(self, observed):
        text = render(observed)
        assert f"{observed.generated:>8}" in text
        assert f"{observed.delivered_total:>8}" in text

    def test_render_without_telemetry_still_works(self):
        plain = run_scenario("REFER", SCENARIO)
        text = render(plain)
        assert "delivery / QoS funnel" in text
        # Profiler data only exists on observed runs.
        assert "simulated-work profile" not in text


class TestTelemetryNotice:
    """Disabled/empty telemetry says so instead of rendering holes."""

    def test_disabled_run_prints_the_notice(self):
        plain = run_scenario("REFER", SCENARIO)
        text = render(plain)
        assert "telemetry not enabled for this run" in text
        assert "ScenarioConfig(telemetry=TelemetryConfig())" in text
        # The notice replaces the data-less sections entirely.
        for heading in (
            "top drop reasons",
            "energy breakdown",
            "detection / repair timeline",
        ):
            assert heading not in text

    def test_empty_registry_prints_the_empty_variant(self):
        import dataclasses

        plain = run_scenario("REFER", SCENARIO)
        plain = dataclasses.replace(
            plain, telemetry=Telemetry(registry=Registry())
        )
        text = render(plain)
        assert "registry is empty" in text
        assert "telemetry not enabled" not in text

    def test_observed_run_prints_no_notice(self, observed):
        text = render(observed)
        assert "telemetry not enabled" not in text
        assert "registry is empty" not in text

    def test_traced_run_renders_the_trace_section(self):
        traced = run_scenario(
            "REFER",
            SCENARIO.with_(
                telemetry=TelemetryConfig(tracing=TracingConfig())
            ),
        )
        text = render(traced)
        assert "deterministic trace" in text
        assert "events traced" in text
        assert traced.telemetry.trace.fingerprint()[:16] in text
        assert "repro.devtools.divergence" in text

    def test_untraced_run_renders_no_trace_section(self, observed):
        assert "deterministic trace" not in render(observed)


class TestMain:
    def test_a_refused_config_is_an_error_line_and_exit_2(self, capsys):
        assert main(["--sensors", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: need at least")
        assert not captured.out


class TestWallProfile:
    def test_wall_splits_construction_from_the_rest_of_the_run(self, capsys):
        assert main([
            "--sensors", "40", "--area", "220", "--sim-time", "4",
            "--warmup", "1", "--rate", "5", "--wall",
        ]) == 0
        text = capsys.readouterr().out
        report, _, profile = text.partition("wall-clock profile (cProfile")
        assert "simulated-work profile" in report and profile
        seconds = {}
        for line in profile.splitlines():
            for label in ("run_scenario", "build (system.build)", "run (the rest)"):
                if line.strip().startswith(label):
                    seconds[label] = float(line.split()[-2])
        assert seconds["build (system.build)"] > 0.0
        assert seconds["run (the rest)"] > 0.0
        assert seconds["run_scenario"] == pytest.approx(
            seconds["build (system.build)"] + seconds["run (the rest)"],
            abs=2e-3,
        )
        assert "top 10 functions by self time" in profile

    def test_render_has_no_host_time(self, observed):
        assert "wall-clock" not in render(observed)


class TestRegistryJsonl:
    def test_every_line_parses_and_is_typed(self, observed):
        lines = list(registry_to_jsonl_lines(observed.telemetry.registry))
        assert lines
        kinds = set()
        for line in lines:
            record = json.loads(line)
            kinds.add(record["kind"])
            if record["kind"] == "histogram":
                assert record["count"] == sum(
                    b["n"] for b in record["buckets"]
                )
                assert record["buckets"][-1]["le"] == "+Inf"
            else:
                assert "value" in record
        assert "counter" in kinds
        assert "histogram" in kinds

    def test_export_is_deterministic(self, observed):
        registry = observed.telemetry.registry
        assert list(registry_to_jsonl_lines(registry)) == list(
            registry_to_jsonl_lines(registry)
        )


class TestPrometheus:
    def test_buckets_are_cumulative_and_closed(self, observed):
        text = registry_to_prometheus(observed.telemetry.registry)
        assert "# TYPE packets_generated counter" in text
        assert "# TYPE delivery_latency_seconds histogram" in text
        bucket_values = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("delivery_latency_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)
        count = next(
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("delivery_latency_seconds_count")
        )
        # The "+Inf" bucket closes the distribution at the total count.
        assert bucket_values[-1] == count
        assert 'le="+Inf"' in text


class TestPrometheusEscaping:
    """Label values and HELP text survive exposition-format escaping."""

    def _registry_with_label(self, value):
        registry = Registry()
        counter = registry.counter(
            "adversarial_total", "counts", labels=("reason",)
        )
        counter.child(value).inc()
        return registry

    def test_backslash_is_escaped(self):
        text = registry_to_prometheus(self._registry_with_label("a\\b"))
        assert 'reason="a\\\\b"' in text

    def test_quote_is_escaped(self):
        text = registry_to_prometheus(self._registry_with_label('say "hi"'))
        assert 'reason="say \\"hi\\""' in text

    def test_newline_is_escaped(self):
        text = registry_to_prometheus(self._registry_with_label("two\nlines"))
        assert 'reason="two\\nlines"' in text
        # The sample still occupies exactly one exposition line.
        sample_lines = [
            line for line in text.splitlines()
            if line.startswith("adversarial_total{")
        ]
        assert len(sample_lines) == 1

    def test_all_three_together(self):
        hostile = 'a\\b"c\nd'
        text = registry_to_prometheus(self._registry_with_label(hostile))
        assert 'reason="a\\\\b\\"c\\nd"' in text

    def test_help_text_escapes_backslash_and_newline(self):
        registry = Registry()
        registry.counter("odd_total", 'path \\tmp\nsecond line')
        text = registry_to_prometheus(registry)
        help_line = next(
            line for line in text.splitlines()
            if line.startswith("# HELP odd_total")
        )
        assert help_line == "# HELP odd_total path \\\\tmp\\nsecond line"

    def test_clean_values_are_untouched(self, observed):
        """Escaping is a no-op for the registry's own label values."""
        text = registry_to_prometheus(observed.telemetry.registry)
        assert "\\\\" not in text


class TestTraceJsonl:
    def test_header_and_checkpoints_round_trip(self):
        traced = run_scenario(
            "REFER",
            SCENARIO.with_(
                telemetry=TelemetryConfig(tracing=TracingConfig())
            ),
        )
        trace = traced.telemetry.trace
        lines = list(trace_to_jsonl_lines(trace))
        header = json.loads(lines[0])
        assert header["type"] == "trace"
        assert header["fingerprint"] == trace.fingerprint()
        assert header["events_seen"] == trace.events_seen
        checkpoints = [json.loads(line) for line in lines[1:]]
        assert len(checkpoints) == len(trace.checkpoints)
        for record, checkpoint in zip(checkpoints, trace.checkpoints):
            assert record["type"] == "checkpoint"
            assert record["index"] == checkpoint.index
            assert record["digest"] == checkpoint.digest


class TestFlightJsonl:
    def test_journeys_round_trip(self, observed):
        lines = list(flight_to_jsonl_lines(observed.telemetry.flight))
        assert lines
        for line in lines:
            journey = json.loads(line)
            assert journey["outcome"] in {"delivered", "dropped", "in-flight"}
            assert journey["events"][0]["kind"] == "generate"
            for event in journey["events"]:
                assert set(event) == {"t", "kind", "src", "dst", "info"}
