"""The run report: one terminal page explaining a run.

``python -m repro.telemetry.report`` runs a (small, configurable)
scenario with telemetry enabled and renders:

* the **delivery/QoS funnel** — generated → delivered → within
  deadline, with throughput, delay and the drop count;
* the **per-class funnel** (QoS runs) — alarm/control/bulk delivery
  ratios, deadline misses and drops from ``RunResult.class_stats``;
* the **top drop reasons** — the router's drop-reason taxonomy, from
  the registry (all drops) and the flight recorder (retained journeys);
* the **energy breakdown** — joules by phase and by traffic kind;
* the **detection/repair timeline** — chaos injections interleaved
  with detector verdicts, plus the recovery report's aggregates;
* the **profiler view** — busiest simulator callbacks, bytes on air,
  and (with ``--wall``) wall-clock hotspots.

:func:`render` is pure (``RunResult`` in, ``str`` out) so tests and CI
can assert on the output without capturing stdout.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

__all__ = ["render", "main"]

_RULE = "-" * 64


def _fmt_row(label: str, value: str) -> str:
    return f"  {label:<34} {value:>24}"


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _funnel_section(result) -> List[str]:
    generated = result.generated or 0
    lines = ["delivery / QoS funnel", _RULE]
    stages = [
        ("generated", generated),
        ("delivered (any latency)", result.delivered_total),
        (f"delivered within {result.config.qos_deadline:.2f}s",
         result.delivered_qos),
    ]
    for label, count in stages:
        fraction = count / generated if generated else 0.0
        lines.append(
            f"  {label:<30} {count:>8}  {_bar(fraction)} {fraction:6.1%}"
        )
    lines.append(_fmt_row("dropped", str(result.dropped)))
    lines.append(_fmt_row("throughput", f"{result.throughput_bps:,.0f} bit/s"))
    lines.append(_fmt_row("mean QoS delay", f"{result.mean_delay_s * 1e3:.1f} ms"))
    return lines


def _class_latency_of(result, traffic_class: str):
    """The class's delivery-latency histogram, or None without one.

    Reads the ``qos_class_latency_seconds`` family the metrics layer
    exports (all deliveries, warm-up included, like its sibling
    ``qos_class_*`` counters)."""
    telemetry = result.telemetry
    if telemetry is None:
        return None
    family = telemetry.registry.get("qos_class_latency_seconds")
    if family is None:
        return None
    for labels, hist in family.items():
        if labels == (traffic_class,) and hist.count:
            return hist
    return None


def _class_section(result) -> List[str]:
    """Per-traffic-class funnel (QoS runs only; empty otherwise)."""
    stats = getattr(result, "class_stats", ())
    if not stats:
        return []
    lines = ["per-class delivery / deadline funnel", _RULE]
    for stat in stats:
        lines.append(
            f"  {stat.traffic_class:<10} generated {stat.generated:>7}  "
            f"in-deadline {stat.delivered_in_deadline:>7}  "
            f"{_bar(stat.delivery_ratio)} {stat.delivery_ratio:6.1%}"
        )
        lines.append(
            f"  {'':<10} late {stat.deadline_missed:>12}  "
            f"dropped {stat.dropped:>11}  "
            f"miss-rate {stat.deadline_miss_rate:6.1%}"
        )
        hist = _class_latency_of(result, stat.traffic_class)
        if hist is not None:
            lines.append(
                f"  {'':<10} latency p50 {hist.quantile(0.5) * 1e3:>6.1f} ms"
                f"  p95 {hist.quantile(0.95) * 1e3:>8.1f} ms  "
                f"mean {hist.mean * 1e3:>8.1f} ms"
            )
    return lines


def _telemetry_notice(result) -> Optional[List[str]]:
    """The "telemetry not enabled" section, or None for observed runs.

    A run without a telemetry bundle (or whose registry recorded
    nothing) cannot render drop reasons, energy-by-kind, timelines or
    the profile; saying so beats printing empty or partial sections.
    """
    telemetry = result.telemetry
    if telemetry is not None and telemetry.registry.as_dict():
        return None
    lines = ["telemetry", _RULE]
    if telemetry is None:
        lines.append("  telemetry not enabled for this run: drop reasons,")
        lines.append("  energy by kind, the detection timeline and the")
        lines.append("  profile were not recorded.  Re-run with")
        lines.append("  ScenarioConfig(telemetry=TelemetryConfig()) — the")
        lines.append("  report CLI always does — to populate these sections.")
    else:
        lines.append("  telemetry enabled but the registry is empty (no")
        lines.append("  instrumented component recorded a sample); drop")
        lines.append("  reasons, energy by kind and the profile have no")
        lines.append("  data to render.")
    return lines


def _trace_section(result) -> List[str]:
    """Deterministic-trace summary (tracing-enabled runs only)."""
    telemetry = result.telemetry
    if telemetry is None or telemetry.trace is None:
        return []
    trace = telemetry.trace
    lines = ["deterministic trace", _RULE]
    lines.append(_fmt_row("events traced", f"{trace.events_seen:,}"))
    lines.append(_fmt_row("checkpoints", str(len(trace.checkpoints))))
    lines.append(_fmt_row("fingerprint", trace.fingerprint()[:16]))
    lines.append(
        "  compare two runs with python -m repro.devtools.divergence"
    )
    return lines


def _drop_section(result) -> List[str]:
    lines = ["top drop reasons", _RULE]
    telemetry = result.telemetry
    reasons = {}
    if telemetry is not None:
        family = telemetry.registry.get("packets_dropped")
        if family is not None:
            reasons = {
                labels[0]: metric.value
                for labels, metric in family.items()
                if metric.value
            }
        if not reasons and telemetry.flight is not None:
            reasons = telemetry.flight.drop_reasons()
    if not reasons:
        lines.append("  (no drops recorded)")
        return lines
    total = sum(reasons.values())
    ranked = sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
    for reason, count in ranked[:8]:
        lines.append(
            f"  {reason:<30} {count:>8}  {_bar(count / total)} "
            f"{count / total:6.1%}"
        )
    return lines


def _energy_section(result) -> List[str]:
    lines = ["energy breakdown", _RULE]
    total = result.total_energy_j
    lines.append(_fmt_row("construction", f"{result.construction_energy_j:,.1f} J"))
    lines.append(_fmt_row("communication", f"{result.comm_energy_j:,.1f} J"))
    lines.append(_fmt_row("total", f"{total:,.1f} J"))
    telemetry = result.telemetry
    if telemetry is not None:
        family = telemetry.registry.get("energy_kind_joules")
        if family is not None:
            kinds = {}
            for (kind, _phase), metric in family.items():
                kinds[kind] = kinds.get(kind, 0.0) + metric.value
            for kind, joules in sorted(
                kinds.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                fraction = joules / total if total else 0.0
                lines.append(
                    f"  by kind: {kind:<21} {joules:>10,.1f} J  "
                    f"{_bar(fraction)} {fraction:6.1%}"
                )
    return lines


def _timeline_section(result) -> List[str]:
    lines = ["detection / repair timeline", _RULE]
    telemetry = result.telemetry
    entries = []
    for event in result.fault_events:
        nodes = ",".join(str(n) for n in event.nodes)
        entries.append(
            (event.time, f"{event.kind:<9} {event.model} nodes=[{nodes}]")
        )
    if telemetry is not None:
        for verdict in telemetry.verdicts:
            entries.append(
                (verdict.time,
                 f"{verdict.kind:<9} node={verdict.node_id} (detector)")
            )
    if not entries:
        lines.append("  (no faults injected, no verdicts issued)")
    else:
        entries.sort(key=lambda e: e[0])
        for when, text in entries[:40]:
            lines.append(f"  t={when:9.3f}s  {text}")
        if len(entries) > 40:
            lines.append(f"  ... {len(entries) - 40} more events")
    recovery = result.recovery
    if recovery is not None:
        lines.append(_fmt_row("condemnations / false positives",
                              f"{recovery.condemnations} / "
                              f"{recovery.false_positives}"))
        lines.append(_fmt_row("mean time to detect",
                              f"{recovery.mean_time_to_detect_s:.3f} s"))
        lines.append(_fmt_row("mean time to repair",
                              f"{recovery.mean_time_to_repair_s:.3f} s"))
        lines.append(_fmt_row("ARQ retransmissions / recovered",
                              f"{recovery.arq_retransmissions} / "
                              f"{recovery.arq_recovered}"))
        lines.append(_fmt_row("CAN takeovers / rejoins",
                              f"{recovery.can_takeovers} / "
                              f"{recovery.can_rejoins}"))
    if result.resilience is not None:
        lines.append(_fmt_row("faults recovered",
                              f"{result.resilience.recovered_fraction:.0%} of "
                              f"{result.resilience.fault_count}"))
        lines.append(_fmt_row("mean recovery time",
                              f"{result.resilience.mean_recovery_s:.2f} s"))
    return lines


def _profiler_section(result) -> List[str]:
    telemetry = result.telemetry
    if telemetry is None or telemetry.profiler is None:
        return []
    profiler = telemetry.profiler
    lines = ["simulated-work profile", _RULE]
    lines.append(_fmt_row("frames on air", f"{profiler.frames_on_air:,}"))
    lines.append(_fmt_row("bytes on air", f"{profiler.bytes_on_air:,}"))
    counts = profiler.event_counts()
    total = sum(counts.values())
    lines.append(_fmt_row("events dispatched", f"{total:,}"))
    for label, count in sorted(
        counts.items(), key=lambda kv: (-kv[1], kv[0])
    )[:8]:
        lines.append(f"  {label:<44} {count:>10,}")
    hotspots = profiler.wall_hotspots()
    if hotspots:
        lines.append("  wall-clock hotspots (host seconds; NOT deterministic)")
        for label, seconds, events in hotspots[:8]:
            lines.append(f"  {label:<44} {seconds:>8.3f}s  {events:>8,} ev")
    return lines


def render(result) -> str:
    """The full terminal report for one ``RunResult``."""
    config = result.config
    header = (
        f"run report: {result.system}  seed={config.seed}  "
        f"sensors={config.sensor_count}  "
        f"t={config.warmup:.0f}+{config.sim_time:.0f}s"
    )
    sections: List[List[str]] = [
        [header, "=" * 64],
        _funnel_section(result),
    ]
    class_block = _class_section(result)
    if class_block:
        sections.append(class_block)
    notice = _telemetry_notice(result)
    if notice is not None:
        sections.append(notice)
        return "\n\n".join("\n".join(block) for block in sections) + "\n"
    sections.extend(
        [
            _drop_section(result),
            _energy_section(result),
            _timeline_section(result),
        ]
    )
    profile = _profiler_section(result)
    if profile:
        sections.append(profile)
    trace_block = _trace_section(result)
    if trace_block:
        sections.append(trace_block)
    return "\n\n".join("\n".join(block) for block in sections) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run a telemetry-enabled scenario and print its report."""
    from repro.experiments.config import (
        add_scenario_arguments,
        scenario_from_args,
    )
    from repro.experiments.runner import run_scenario
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.export import (
        flight_to_jsonl_lines,
        registry_to_jsonl_lines,
        registry_to_prometheus,
        trace_to_jsonl_lines,
    )
    from repro.telemetry.tracing import TracingConfig

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Run one scenario with telemetry and render a report.",
    )
    add_scenario_arguments(
        parser, seed=1, sensors=60, area=260.0, sim_time=20.0, warmup=4.0,
        rate=6.0,
    )
    parser.add_argument(
        "--wall", action="store_true",
        help="collect wall-clock hotspots (report-only, nondeterministic)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record the deterministic trace (repro.telemetry.tracing)",
    )
    parser.add_argument("--metrics-jsonl", default=None, metavar="PATH")
    parser.add_argument("--flight-jsonl", default=None, metavar="PATH")
    parser.add_argument("--prom", default=None, metavar="PATH")
    parser.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="write the trace fingerprint + checkpoints (implies --trace)",
    )
    args = parser.parse_args(argv)
    config = scenario_from_args(
        args,
        TelemetryConfig(
            wall_clock=args.wall,
            tracing=(
                TracingConfig()
                if args.trace or args.trace_jsonl else None
            ),
        ),
    )
    result = run_scenario(args.system, config)
    # This *is* the report CLI — rendering to stdout is its contract.
    print(render(result), end="")  # referlint: disable=REF007

    telemetry = result.telemetry
    if telemetry is not None:
        if args.metrics_jsonl:
            with open(args.metrics_jsonl, "w", encoding="utf-8") as fh:
                for line in registry_to_jsonl_lines(telemetry.registry):
                    fh.write(line + "\n")
        if args.flight_jsonl and telemetry.flight is not None:
            with open(args.flight_jsonl, "w", encoding="utf-8") as fh:
                for line in flight_to_jsonl_lines(telemetry.flight):
                    fh.write(line + "\n")
        if args.prom:
            with open(args.prom, "w", encoding="utf-8") as fh:
                fh.write(registry_to_prometheus(telemetry.registry))
        if args.trace_jsonl and telemetry.trace is not None:
            with open(args.trace_jsonl, "w", encoding="utf-8") as fh:
                for line in trace_to_jsonl_lines(telemetry.trace):
                    fh.write(line + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
