"""The first-divergence debugger: lockstep-compare two traced runs.

``python -m repro.devtools.divergence LEFT RIGHT`` runs one scenario
twice with deterministic tracing enabled
(:mod:`repro.telemetry.tracing`), compares the checkpoint hashes,
and — when the traces fork — re-runs both with a capture window over
the first mismatched checkpoint interval to report the **first
divergent event** (time, trace seq, kind, label, detail) with a
±K-event context dump and a machine-readable JSON verdict.

Each spec says where that side runs::

    inproc               # in this interpreter
    worker               # in a spawned subprocess (own interpreter)

Examples::

    python -m repro.devtools.divergence inproc worker --sim-time 12
    python -m repro.devtools.divergence inproc inproc \
        --fixture bug.py --json        # localise a seeded bug

``--fixture PATH`` loads a python module and calls its ``apply()``
before the *right* run only (and ``revert()`` after, when defined), so
a suspected nondeterminism can be reproduced and localised on demand.

Exit codes: 0 — traces identical; 2 — divergence found.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.telemetry.tracing import Checkpoint, TraceEvent, first_divergence

__all__ = ["SPECS", "TraceRun", "traced_run", "localise", "main"]

#: Where one side of the comparison runs.
SPECS = ("inproc", "worker")

#: Events far past any real trace; "capture to end of run".
_NO_LIMIT = 2 ** 62


class TraceRun(NamedTuple):
    """The trace evidence of one completed run."""

    spec: str
    fingerprint: str
    checkpoints: Tuple[Checkpoint, ...]
    captured: Tuple[TraceEvent, ...]


def _build_config(args, capture: Optional[Tuple[int, int]]):
    """The traced :class:`ScenarioConfig` both sides run under."""
    from repro.experiments.config import scenario_from_args
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.tracing import TracingConfig

    return scenario_from_args(
        args,
        TelemetryConfig(
            profiler=False,
            tracing=TracingConfig(
                checkpoint_interval=args.checkpoint,
                ring_capacity=args.ring,
                capture=capture,
            ),
        ),
    )


def _apply_fixture(path: str):
    """Load ``path`` as a module and call its ``apply()``."""
    spec = importlib.util.spec_from_file_location("divergence_fixture", path)
    if spec is None or spec.loader is None:
        raise ConfigError(f"cannot load fixture module from {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "apply"):
        raise ConfigError(f"fixture {path!r} defines no apply() function")
    module.apply()
    return module


def _worker_entry(conn, system, config, fixture_path) -> None:
    """Spawned-process body: run traced, ship the evidence back."""
    from repro.experiments.runner import run_scenario

    try:
        if fixture_path:
            _apply_fixture(fixture_path)
        run = run_scenario(system, config)
        trace = run.telemetry.trace
        conn.send(
            {
                "fingerprint": trace.fingerprint(),
                "checkpoints": [tuple(c) for c in trace.checkpoints],
                "captured": [tuple(e) for e in trace.captured()],
            }
        )
    except Exception as exc:
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def _run_in_worker(system, config, fixture_path) -> Optional[dict]:
    """One traced run in a spawned subprocess; None when spawn is
    unavailable (the caller degrades to in-process, like the campaign
    supervisor does)."""
    try:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_entry, args=(child, system, config, fixture_path)
        )
        proc.start()
    except (ImportError, OSError, ValueError):
        return None
    child.close()
    try:
        data = parent.recv()
    except EOFError:
        proc.join()
        raise ConfigError(
            f"divergence worker for {system!r} exited without a result "
            f"(exit code {proc.exitcode})"
        )
    proc.join()
    if "error" in data:
        raise ConfigError(f"divergence worker failed: {data['error']}")
    return data


def traced_run(
    spec: str,
    args,
    capture: Optional[Tuple[int, int]] = None,
    fixture: Optional[str] = None,
) -> TraceRun:
    """Run one side (``spec`` is one of :data:`SPECS`) and collect its
    trace evidence."""
    from repro.experiments.runner import run_scenario

    if spec not in SPECS:
        raise ConfigError(f"unknown spec {spec!r}; expected one of {SPECS}")
    config = _build_config(args, capture)
    if spec == "worker":
        data = _run_in_worker(args.system, config, fixture)
        if data is not None:
            return TraceRun(
                spec=spec,
                fingerprint=data["fingerprint"],
                checkpoints=tuple(
                    Checkpoint(*c) for c in data["checkpoints"]
                ),
                captured=tuple(TraceEvent(*e) for e in data["captured"]),
            )
    module = _apply_fixture(fixture) if fixture else None
    try:
        run = run_scenario(args.system, config)
    finally:
        if module is not None and hasattr(module, "revert"):
            module.revert()
    trace = run.telemetry.trace
    return TraceRun(
        spec=spec,
        fingerprint=trace.fingerprint(),
        checkpoints=trace.checkpoints,
        captured=trace.captured(),
    )


def _mismatch_window(left: TraceRun, right: TraceRun):
    """The first mismatched checkpoint and its capture window.

    Returns ``(checkpoint_blob, lo, hi)``; the window is a trace-seq
    range ``[lo, hi)`` guaranteed to contain the first divergent event
    (both digests agree at ``lo``'s checkpoint, disagree by ``hi``'s).
    """
    mismatch = None
    registry_only = None
    for a, b in zip(left.checkpoints, right.checkpoints):
        if a.digest != b.digest:
            mismatch = (a, b)
            break
        if registry_only is None and a.registry_digest != b.registry_digest:
            registry_only = (a, b)
    if mismatch is not None:
        a, b = mismatch
        lo = left.checkpoints[a.index - 1].events_seen if a.index else 0
        hi = max(a.events_seen, b.events_seen)
        blob = {
            "index": a.index,
            "time": a.time,
            "left_digest": a.digest,
            "right_digest": b.digest,
            "mismatch": "events",
        }
        return blob, lo, hi
    # Event digests agree at every common checkpoint: the fork is after
    # the last common one (or the runs checkpoint different spans).
    common = min(len(left.checkpoints), len(right.checkpoints))
    lo = left.checkpoints[common - 1].events_seen if common else 0
    blob = None
    if registry_only is not None:
        a, b = registry_only
        blob = {
            "index": a.index,
            "time": a.time,
            "left_digest": a.registry_digest,
            "right_digest": b.registry_digest,
            "mismatch": "registry",
        }
    return blob, lo, _NO_LIMIT


def _event_blob(event: Optional[TraceEvent]) -> Optional[dict]:
    if event is None:
        return None
    return {
        "seq": event.seq,
        "time": event.time,
        "kind": event.kind,
        "label": event.label,
        "detail": event.detail,
    }


def localise(
    left_spec: str,
    right_spec: str,
    args,
    fixture: Optional[str] = None,
) -> dict:
    """The full two-pass comparison: one machine-readable verdict."""
    left = traced_run(left_spec, args)
    right = traced_run(right_spec, args, fixture=fixture)
    verdict = {
        "identical": left.fingerprint == right.fingerprint,
        "left": {"spec": left.spec, "fingerprint": left.fingerprint},
        "right": {"spec": right.spec, "fingerprint": right.fingerprint},
        "fixture": fixture,
    }
    if verdict["identical"]:
        return verdict
    checkpoint, lo, hi = _mismatch_window(left, right)
    verdict["checkpoint"] = checkpoint
    verdict["window"] = [lo, hi]
    left2 = traced_run(left_spec, args, capture=(lo, hi))
    right2 = traced_run(right_spec, args, capture=(lo, hi), fixture=fixture)
    div = first_divergence(left2.captured, right2.captured)
    if div is None:
        # Should not happen (fingerprints differ => events differ), but
        # a fixture that only perturbs state outside the window would
        # land here; report the window rather than crash.
        verdict["first_divergence"] = None
        return verdict
    index, event_l, event_r = div
    k = args.context
    start = max(0, index - k)
    stop = index + k + 1
    verdict["first_divergence"] = {
        "seq": lo + index,
        "left": _event_blob(event_l),
        "right": _event_blob(event_r),
    }
    verdict["context"] = {
        "left": [_event_blob(e) for e in left2.captured[start:stop]],
        "right": [_event_blob(e) for e in right2.captured[start:stop]],
    }
    return verdict


def _render_event(blob: Optional[dict]) -> str:
    if blob is None:
        return "(stream ended)"
    return (
        f"seq={blob['seq']} t={blob['time']:.6f} {blob['kind']} "
        f"{blob['label']} {blob['detail']}"
    )


def render_verdict(verdict: dict) -> str:
    """The human form of one :func:`localise` verdict."""
    left, right = verdict["left"], verdict["right"]
    lines = [
        "first-divergence report",
        f"  left : {left['spec']:<24} fingerprint {left['fingerprint'][:16]}",
        f"  right: {right['spec']:<24} fingerprint {right['fingerprint'][:16]}",
    ]
    if verdict.get("fixture"):
        lines.append(f"  fixture applied to right run: {verdict['fixture']}")
    if verdict["identical"]:
        lines.append("  traces identical")
        return "\n".join(lines)
    checkpoint = verdict.get("checkpoint")
    if checkpoint is not None:
        lines.append(
            f"  first mismatched checkpoint: #{checkpoint['index']} "
            f"t={checkpoint['time']:g} ({checkpoint['mismatch']})"
        )
    else:
        lines.append(
            "  all common checkpoints agree; runs fork after the last one"
        )
    lo, hi = verdict["window"]
    hi_text = "end" if hi >= _NO_LIMIT else str(hi)
    lines.append(f"  capture window: [{lo}, {hi_text})")
    div = verdict.get("first_divergence")
    if div is None:
        lines.append("  no event-level divergence inside the window")
        return "\n".join(lines)
    lines.append("  first divergent event:")
    lines.append(f"    left : {_render_event(div['left'])}")
    lines.append(f"    right: {_render_event(div['right'])}")
    context = verdict.get("context", {})
    if context:
        lines.append("  context (left | right):")
        rows_l = context.get("left", [])
        rows_r = context.get("right", [])
        for i in range(max(len(rows_l), len(rows_r))):
            event_l = rows_l[i] if i < len(rows_l) else None
            event_r = rows_r[i] if i < len(rows_r) else None
            marker = ">" if (event_l or {}).get("seq") == div["seq"] or (
                event_r or {}
            ).get("seq") == div["seq"] else " "
            lines.append(f"   {marker} {_render_event(event_l)}")
            if event_l != event_r:
                lines.append(f"   {marker} | {_render_event(event_r)}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: print the verdict, return 0 (identical) or 2."""
    from repro.experiments.config import add_scenario_arguments

    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.divergence",
        description=(
            "Run one scenario twice with deterministic tracing and "
            "report the first divergent event."
        ),
    )
    parser.add_argument(
        "specs", nargs=2, choices=SPECS, metavar="SPEC",
        help="where the left and the right run execute: "
             "'inproc' or 'worker' (a spawned subprocess)",
    )
    add_scenario_arguments(
        parser, seed=11, sensors=40, area=220.0, sim_time=12.0, warmup=2.0,
        rate=5.0,
    )
    parser.add_argument(
        "--checkpoint", type=float, default=1.0, metavar="SECONDS",
        help="sim seconds between trace checkpoints (default 1.0)",
    )
    parser.add_argument("--ring", type=int, default=4096, metavar="EVENTS")
    parser.add_argument(
        "--context", type=int, default=5, metavar="K",
        help="events of context either side of the divergence (default 5)",
    )
    parser.add_argument(
        "--fixture", default=None, metavar="PATH",
        help="python module whose apply() runs before the right run only",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    left_spec, right_spec = args.specs
    verdict = localise(left_spec, right_spec, args, fixture=args.fixture)
    output = (
        json.dumps(verdict, indent=2, sort_keys=True) if args.as_json
        else render_verdict(verdict)
    )
    # This *is* the divergence CLI — the verdict goes to stdout.
    print(output)  # referlint: disable=REF007
    return 0 if verdict["identical"] else 2


if __name__ == "__main__":
    raise SystemExit(main())
