"""The result payload codec: ``RunResult`` <-> JSON-safe blob.

One job of a campaign (:mod:`repro.experiments.parallel`) ends in one
payload: what a worker process sends back, what the journal stores and
what the merge reads.  The result dataclasses are the schema:
:func:`payload_from_result` walks their fields and
:func:`result_from_payload` walks their type hints, refusing with
:class:`~repro.errors.CampaignError` any value that does not match, so
decoding is the gate every blob passes, live or replayed.  A field
added to :class:`RunResult` or to a type nested in it travels with no
edit here.  JSON round-trips ints as ints and floats exactly, so a
merge over payloads is byte-identical to a merge over live results.
"""

from __future__ import annotations

import typing
from dataclasses import fields, is_dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.errors import CampaignError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import RunResult

__all__ = [
    "merge_registry_snapshots",
    "payload_from_result",
    "result_from_payload",
]

#: :class:`RunResult` fields the blob does not carry: the job supplies
#: the first two, and live telemetry travels as a registry snapshot
#: plus the trace fingerprint, beside the run.
_FROM_JOB = ("system", "config", "telemetry")
_BLOB_KEYS = {"run", "registry", "trace_hash"}

#: A registry snapshot: ``(family name, ((label values, value), ...))``
#: rows.  Label values are JSON scalars, so the merge can key on them.
_CHILD = Tuple[Tuple[Union[str, float, bool, None], ...], float]
_REGISTRY = Optional[Tuple[Tuple[str, Tuple[_CHILD, ...]], ...]]

_SCALARS = (bool, int, float, str, type(None))


def _encode(value: object) -> object:
    """A dataclass as an object of its fields, a tuple as a list."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def payload_from_result(run: RunResult) -> dict:
    """The JSON-safe blob one worker returns (and the journal stores)."""
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
        "run": {
            f.name: _encode(getattr(run, f.name))
            for f in fields(run)
            if f.name not in _FROM_JOB
        },
        "registry": registry,
        "trace_hash": trace_hash,
    }


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise CampaignError(f"corrupt result payload: {detail}")


def _decode_fields(cls: type, blob: object, where: str, **given) -> object:
    """Dataclass ``cls`` from an object holding exactly the fields the
    caller does not supply in ``given``."""
    hints = {
        name: hint
        for name, hint in typing.get_type_hints(cls).items()
        if name not in given
    }
    _require(isinstance(blob, dict), f"{where} is not an object")
    _require(
        set(blob) == set(hints),
        f"{where} does not hold the fields of {cls.__name__} "
        f"(mismatched: {sorted(set(blob) ^ set(hints))})",
    )
    return cls(
        **given,
        **{
            name: _decode(hint, blob[name], f"{where}.{name}")
            for name, hint in hints.items()
        },
    )


def _decode(hint, value: object, where: str) -> object:
    """``value`` checked against type ``hint``: a float accepts an int,
    an int refuses a bool, and a tuple arrives as a list."""
    if hint in _SCALARS:
        if isinstance(value, bool):
            matches = hint is bool
        else:
            kinds = (int, float) if hint is float else hint
            matches = isinstance(value, kinds)
        _require(matches, f"{where} is {value!r:.40}, not {hint.__name__}")
        return value
    if is_dataclass(hint):
        return _decode_fields(hint, value, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        if value is None and type(None) in args:
            return None
        arms = [arm for arm in args if arm is not type(None)]
        for arm in arms[:-1]:
            try:
                return _decode(arm, value, where)
            except CampaignError:
                continue
        return _decode(arms[-1], value, where)
    if origin is tuple:
        _require(isinstance(value, list), f"{where} is not a list")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        _require(len(value) == len(args), f"{where} is not {len(args)} long")
        return tuple(
            _decode(arm, item, f"{where}[{i}]")
            for i, (arm, item) in enumerate(zip(args, value))
        )
    raise TypeError(f"no payload rule for {where}: {hint!r}")


def result_from_payload(
    system: str, config: ScenarioConfig, payload: object
) -> RunResult:
    """Decode one blob into the job's :class:`RunResult`, or raise
    :class:`CampaignError` naming the first value that does not match
    its hint.

    ``system`` and ``config`` come from the job, never the blob: the
    journal's fingerprints guard against a grid change, and a tampered
    blob cannot smuggle a different scenario into the merge.  Values
    pass through uncoerced, which is what makes a merge over payloads
    byte-identical to a merge over live results.
    """
    _require(isinstance(payload, dict), "payload is not an object")
    _require(
        set(payload) == _BLOB_KEYS,
        f"payload keys are {sorted(payload)}, not {sorted(_BLOB_KEYS)}",
    )
    _decode(_REGISTRY, payload["registry"], "registry")
    _decode(Optional[str], payload["trace_hash"], "trace_hash")
    return _decode_fields(
        RunResult,
        payload["run"],
        "run",
        system=system,
        config=config,
        telemetry=None,
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
