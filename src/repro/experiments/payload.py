"""The result payload codec: ``RunResult`` <-> JSON-safe blob.

One job of a campaign (:mod:`repro.experiments.parallel`) ends in one
payload: what a worker process sends back, what the journal stores and
what the merge reads.  :func:`payload_from_result` encodes a finished
run, :func:`validate_payload` is the schema gate every blob passes
before it is merged or journalled — live or replayed — and
:func:`result_from_payload` rebuilds the :class:`RunResult` the figure
and resilience aggregations read.  JSON round-trips ints as ints and
floats exactly, so a merge over payloads is byte-identical to a merge
over live results.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.chaos.models import FaultEvent
from repro.chaos.probe import FaultRecovery, ResilienceSummary
from repro.errors import CampaignError
from repro.experiments.config import ScenarioConfig
from repro.experiments.metrics import ClassStat
from repro.experiments.runner import RunResult
from repro.recovery.orchestrator import RecoveryReport

__all__ = [
    "PAYLOAD_VERSION",
    "merge_registry_snapshots",
    "payload_from_result",
    "result_from_payload",
    "validate_payload",
]

PAYLOAD_VERSION = 1

_INT_METRICS = (
    "generated",
    "delivered_qos",
    "delivered_total",
    "dropped",
)

_FLOAT_METRICS = (
    "throughput_bps",
    "mean_delay_s",
    "comm_energy_j",
    "construction_energy_j",
    "flood_comm_energy_j",
)

_RECOVERY_INT_FIELDS = (
    "probes_sent",
    "replies",
    "misses",
    "condemnations",
    "absolutions",
    "false_positives",
    "missed_faults",
    "arq_attempts",
    "arq_retransmissions",
    "arq_recovered",
    "arq_duplicates_suppressed",
    "arq_exhausted",
    "can_takeovers",
    "can_rejoins",
    "can_rehomed_keys",
)

_RECOVERY_FLOAT_FIELDS = (
    "mean_time_to_detect_s",
    "mean_time_to_repair_s",
)


def _encode_event(event: FaultEvent) -> list:
    return [event.time, event.model, event.kind, list(event.nodes)]


def _decode_event(blob: Sequence[object]) -> FaultEvent:
    # Validated values pass through raw: JSON round-trips ints as ints
    # and floats exactly, so the rebuilt event equals the live one.
    time_, model, kind, nodes = blob
    return FaultEvent(
        time=time_, model=model, kind=kind, nodes=tuple(nodes)
    )


def payload_from_result(run: RunResult) -> dict:
    """The JSON-safe blob one worker returns (and the journal stores).

    Everything the campaign merges travels here — scalar metrics,
    per-class funnels, the resilience/recovery summaries and (for
    telemetry-enabled runs) the registry snapshot.  JSON round-trips
    Python floats exactly, so a merge over payloads is byte-identical
    to a merge over live :class:`RunResult` objects.
    """
    resilience = None
    if run.resilience is not None:
        resilience = {
            "window": run.resilience.window,
            "detection_latency_s": run.resilience.detection_latency_s,
            "repair_latency_s": run.resilience.repair_latency_s,
            "records": [
                {
                    "event": _encode_event(record.event),
                    "baseline": record.baseline,
                    "trough": record.trough,
                    "recovery_windows": record.recovery_windows,
                    "recovery_time_s": record.recovery_time_s,
                }
                for record in run.resilience.records
            ],
        }
    recovery = None
    if run.recovery is not None:
        recovery = {
            name: getattr(run.recovery, name)
            for name in _RECOVERY_INT_FIELDS + _RECOVERY_FLOAT_FIELDS
        }
    registry = None
    trace_hash = None
    if run.telemetry is not None:
        registry = [
            [name, [[list(labels), value] for labels, value in children.items()]]
            for name, children in run.telemetry.registry.as_dict().items()
        ]
        if run.telemetry.trace is not None:
            trace_hash = run.telemetry.trace.fingerprint()
    return {
        "version": PAYLOAD_VERSION,
        "system": run.system,
        "metrics": {
            **{name: getattr(run, name) for name in _INT_METRICS},
            **{name: getattr(run, name) for name in _FLOAT_METRICS},
        },
        "class_stats": [
            [
                stat.traffic_class,
                stat.generated,
                stat.delivered,
                stat.deadline_missed,
                stat.dropped,
            ]
            for stat in run.class_stats
        ],
        "fault_events": [_encode_event(e) for e in run.fault_events],
        "resilience": resilience,
        "recovery": recovery,
        "registry": registry,
        "trace_hash": trace_hash,
    }


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise CampaignError(f"corrupt worker payload: {detail}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


def _check_event(blob: object) -> None:
    _require(
        isinstance(blob, (list, tuple)) and len(blob) == 4,
        "fault event is not a 4-element row",
    )
    time_, model, kind, nodes = blob  # type: ignore[misc]
    _require(_is_number(time_), "fault event time is not a number")
    _require(isinstance(model, str), "fault event model is not a string")
    _require(isinstance(kind, str), "fault event kind is not a string")
    _require(
        isinstance(nodes, (list, tuple)) and all(_is_int(n) for n in nodes),
        "fault event nodes are not integers",
    )


def validate_payload(payload: object) -> dict:
    """Schema-check one worker blob; raises :class:`CampaignError`.

    The supervisor refuses to merge (or journal) anything that fails
    this gate — a worker with corrupted memory returning half a result
    must count as a failed attempt, not poison the campaign.
    """
    _require(isinstance(payload, dict), "payload is not an object")
    assert isinstance(payload, dict)
    if "worker_error" in payload:
        raise CampaignError(
            f"worker reported an error: {payload['worker_error']}"
        )
    _require(
        payload.get("version") == PAYLOAD_VERSION,
        f"unknown payload version {payload.get('version')!r}",
    )
    _require(isinstance(payload.get("system"), str), "system is not a string")
    metrics = payload.get("metrics")
    _require(isinstance(metrics, dict), "metrics is not an object")
    assert isinstance(metrics, dict)
    for name in _INT_METRICS:
        _require(_is_int(metrics.get(name)), f"metric {name!r} is not an int")
    for name in _FLOAT_METRICS:
        _require(
            _is_number(metrics.get(name)), f"metric {name!r} is not a number"
        )
    class_stats = payload.get("class_stats")
    _require(isinstance(class_stats, list), "class_stats is not a list")
    assert isinstance(class_stats, list)
    for row in class_stats:
        _require(
            isinstance(row, (list, tuple)) and len(row) == 5,
            "class_stats row is not a 5-element row",
        )
        _require(isinstance(row[0], str), "traffic class is not a string")
        _require(
            all(_is_int(v) for v in row[1:]),
            "class_stats counts are not integers",
        )
    events = payload.get("fault_events")
    _require(isinstance(events, list), "fault_events is not a list")
    assert isinstance(events, list)
    for blob in events:
        _check_event(blob)
    resilience = payload.get("resilience")
    if resilience is not None:
        _require(isinstance(resilience, dict), "resilience is not an object")
        for name in ("window", "detection_latency_s", "repair_latency_s"):
            _require(
                _is_number(resilience.get(name)),
                f"resilience.{name} is not a number",
            )
        records = resilience.get("records")
        _require(isinstance(records, list), "resilience.records is not a list")
        for record in records:
            _require(
                isinstance(record, dict), "resilience record is not an object"
            )
            _check_event(record.get("event"))
            for name in ("baseline", "trough"):
                _require(
                    _is_number(record.get(name)),
                    f"resilience record {name} is not a number",
                )
            windows = record.get("recovery_windows")
            _require(
                windows is None or _is_int(windows),
                "recovery_windows is neither null nor an int",
            )
            seconds = record.get("recovery_time_s")
            _require(
                seconds is None or _is_number(seconds),
                "recovery_time_s is neither null nor a number",
            )
    recovery = payload.get("recovery")
    if recovery is not None:
        _require(isinstance(recovery, dict), "recovery is not an object")
        for name in _RECOVERY_INT_FIELDS:
            _require(
                _is_int(recovery.get(name)), f"recovery.{name} is not an int"
            )
        for name in _RECOVERY_FLOAT_FIELDS:
            _require(
                _is_number(recovery.get(name)),
                f"recovery.{name} is not a number",
            )
    registry = payload.get("registry")
    if registry is not None:
        _require(isinstance(registry, list), "registry is not a list")
        for family in registry:
            _require(
                isinstance(family, (list, tuple)) and len(family) == 2,
                "registry family is not a (name, children) pair",
            )
            name, children = family
            _require(isinstance(name, str), "registry name is not a string")
            _require(
                isinstance(children, list), "registry children is not a list"
            )
            for child in children:
                _require(
                    isinstance(child, (list, tuple)) and len(child) == 2,
                    "registry child is not a (labels, value) pair",
                )
                labels, value = child
                _require(
                    isinstance(labels, (list, tuple)),
                    "registry labels is not a list",
                )
                _require(_is_number(value), "registry value is not a number")
    trace_hash = payload.get("trace_hash")
    _require(
        trace_hash is None or isinstance(trace_hash, str),
        "trace_hash is neither null nor a string",
    )
    return payload


def result_from_payload(
    system: str, config: ScenarioConfig, payload: dict
) -> RunResult:
    """Reconstitute a :class:`RunResult` from a validated payload.

    The config is *not* read from the payload: the supervisor rebuilds
    it from the grid spec (the journal's fingerprint guards against a
    grid change), so the blob stays small and a tampered blob cannot
    smuggle a different scenario into the merge.

    Validated values pass through uncoerced — JSON round-trips ints as
    ints and floats exactly (``repr``-based), which is what makes a
    merge over payloads byte-identical to a merge over live results.
    """
    metrics = payload["metrics"]
    resilience: Optional[ResilienceSummary] = None
    blob = payload.get("resilience")
    if blob is not None:
        resilience = ResilienceSummary(
            window=blob["window"],
            records=tuple(
                FaultRecovery(
                    event=_decode_event(record["event"]),
                    baseline=record["baseline"],
                    trough=record["trough"],
                    recovery_windows=record["recovery_windows"],
                    recovery_time_s=record["recovery_time_s"],
                )
                for record in blob["records"]
            ),
            detection_latency_s=blob["detection_latency_s"],
            repair_latency_s=blob["repair_latency_s"],
        )
    recovery: Optional[RecoveryReport] = None
    blob = payload.get("recovery")
    if blob is not None:
        recovery = RecoveryReport(
            **{
                name: blob[name]
                for name in _RECOVERY_INT_FIELDS + _RECOVERY_FLOAT_FIELDS
            }
        )
    return RunResult(
        system=payload["system"],
        config=config,
        throughput_bps=metrics["throughput_bps"],
        mean_delay_s=metrics["mean_delay_s"],
        comm_energy_j=metrics["comm_energy_j"],
        construction_energy_j=metrics["construction_energy_j"],
        generated=metrics["generated"],
        delivered_qos=metrics["delivered_qos"],
        delivered_total=metrics["delivered_total"],
        dropped=metrics["dropped"],
        flood_comm_energy_j=metrics["flood_comm_energy_j"],
        resilience=resilience,
        fault_events=tuple(
            _decode_event(e) for e in payload["fault_events"]
        ),
        recovery=recovery,
        telemetry=None,
        class_stats=tuple(
            ClassStat(
                traffic_class=row[0],
                generated=row[1],
                delivered=row[2],
                deadline_missed=row[3],
                dropped=row[4],
            )
            for row in payload["class_stats"]
        ),
    )


def merge_registry_snapshots(
    payloads: Mapping[str, dict]
) -> Optional[dict]:
    """Deterministically merge per-job registry snapshots.

    Jobs are folded in sorted-key order (never completion order);
    counter, gauge and histogram-count values sum per
    ``(family, label values)``.  ``None`` when no job carried a
    snapshot (the campaign ran without telemetry).
    """
    merged: Dict[str, Dict[Tuple[object, ...], object]] = {}
    seen_any = False
    for key in sorted(payloads):
        registry = payloads[key].get("registry")
        if registry is None:
            continue
        seen_any = True
        for name, children in registry:
            target = merged.setdefault(name, {})
            for labels, value in children:
                label_values = tuple(labels)
                target[label_values] = target.get(label_values, 0) + value
    if not seen_any:
        return None
    return {name: merged[name] for name in sorted(merged)}
