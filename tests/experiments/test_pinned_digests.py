"""Pinned-digest goldens: the same bytes as the commit that recorded them.

Every other determinism golden compares two runs of the *same*
checkout, which cannot tell "still deterministic" from "still the same
answer".  These scenarios pin literals instead: the SHA-256 of the
nine ``RunResult`` metric fields (``repr`` of each, so every float is
compared to its last digit) and the ``TraceStream`` fingerprint (every
scheduler dispatch, RNG draw and packet transition, in order).  A third,
``COMPOSED``, pins every fault kind's schedule through its fault-event
log in place of the fingerprint; it was recorded before the chaos
library's round loop was shared and has held since.  The three
baselines run ``COMPOSED`` too (``COMPOSED_FLOODING``): their floods
spread with batteries metered, which no REFER literal reaches.  They
run ``PLAIN`` and ``FAULTED`` as well (``FLOODING``), pinned by the
metric digest alone: ``FAULTED`` drives their in-place congestion
retries and source retransmissions, which no other literal reaches.

The literals were recorded on the one commit that meant to move them
(PR 22's re-pin: leg and fade draws keyed by entity, contention counted
at exact positions; the PR 12-21 refactors ran against the previous
set); REFER's moved once more when the embedding began to ask every
Kautz edge in its forwarding direction, and the baselines', which do
not embed, did not.  They are identical under CPython 3.9, 3.11 and
3.12.  A refactor
that claims "no behaviour change" passes without touching them; a
change that means to move them says so and re-records both from the
values the failing assertions print.

The hash-seed twin reruns both scenarios in a child interpreter under
two fixed, different ``PYTHONHASHSEED`` values: ``str`` hashes — and
with them the iteration order of every set or dict keyed by strings —
differ per process, so a run whose bytes depend on that order cannot
print the recorded literals under both.  The pair is chosen, not
arbitrary: under CPython >= 3.11 seeds 1 and 5 iterate
``set(TrafficClass)`` — enum members hash by name, the one
``str``-hashed key family on the packet path — in exactly opposite
orders, so whichever of two classes a hash-ordered loop serves first,
one of the two children serves the other.  (Small-int keys hash to
themselves under every seed; a set of node ids iterated into an
ordered effect moves the in-process digests instead.)
"""

import hashlib
import os
import subprocess
import sys

import pytest

import repro

from repro.chaos.spec import FAULT_KINDS, FaultSpec
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.qos.config import QosConfig
from repro.recovery.config import RecoveryConfig
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.tracing import TracingConfig

METRIC_FIELDS = (
    "throughput_bps",
    "mean_delay_s",
    "comm_energy_j",
    "construction_energy_j",
    "generated",
    "delivered_qos",
    "delivered_total",
    "dropped",
    "flood_comm_energy_j",
)

_TRACED = TelemetryConfig(tracing=TracingConfig())

#: Mobile sensors, maintenance rounds and CBR traffic; nothing opt-in
#: but the trace that yields the fingerprint.
PLAIN = ScenarioConfig(
    seed=5,
    sensor_count=60,
    area_side=260.0,
    sim_time=20.0,
    warmup=2.0,
    rate_pps=5.0,
    telemetry=_TRACED,
)

#: The branches a geometry or engine refactor can disturb: crash
#: rotation and Gilbert-Elliott link bursts, recovery/ARQ, QoS.
FAULTED = ScenarioConfig(
    seed=9,
    sensor_count=48,
    area_side=230.0,
    sim_time=14.0,
    warmup=2.0,
    rate_pps=5.0,
    fault_spec=(
        FaultSpec(kind="rotation", count=4, period=4.0, start=3.0),
        FaultSpec(kind="links", mean_good=4.0, mean_bad=1.0, start=3.0),
    ),
    recovery=RecoveryConfig(),
    qos=QosConfig(),
    telemetry=_TRACED,
)

PINNED = {
    "plain": (
        PLAIN,
        "24a497d7c48da8dd1c5be08b8ed1973d4ece907001c48bf117941f5d59dcbad8",
        "b447e6e5d52e6496a251f3cdd0ab53cab73c0b07d48db5f0a611d0da7b7f808d",
    ),
    "faulted": (
        FAULTED,
        "21b5adcb66f7d1cd469a47300f1c04fa95db260cc03a869b3ebca33c948ef4bd",
        "66620539d6671e8a4429389712cc0111cdf83d14077b945209c7dbe41474570d",
    ),
}

#: Every fault kind at once, in ``FAULT_KINDS`` order, with recovery
#: on: the attrition, actuator, blackout and battery schedules no
#: literal above covers.  Pinned by its metric digest and the SHA-256
#: of ``repr(result.fault_events)``, not by a trace fingerprint: the
#: fingerprint names the callback each dispatch runs, and a refactor of
#: the chaos library may rename a recovery callback without moving a
#: single fault.
COMPOSED = ScenarioConfig(
    seed=3,
    sensor_count=40,
    area_side=220.0,
    sim_time=16.0,
    warmup=2.0,
    rate_pps=5.0,
    fault_spec=(
        FaultSpec(kind="rotation", count=2, period=4.0, start=2.0),
        FaultSpec(kind="permanent", count=1, period=5.0, start=3.0, rounds=2),
        FaultSpec(kind="actuator", count=1, period=6.0, duration=3.0, start=4.0),
        FaultSpec(kind="blackout", radius=60.0, period=7.0, duration=3.0, start=5.0),
        FaultSpec(kind="battery", count=3, period=5.0, start=2.0, rounds=2),
        FaultSpec(kind="links", mean_good=6.0, mean_bad=1.0, start=3.0),
    ),
    recovery=RecoveryConfig(),
)

COMPOSED_PINNED = (
    "3a5b74f80d2b55af78d9ab26766814e2633d34d5121817e7d5e46d796ebf25d7",
    "27ef36a3949805ed98d93048e7a9ef91e089cf0c56ff31248cbc66edfa30fdd4",
)

#: ``COMPOSED`` run by the three baselines, recorded on the commit
#: before the flood spread walked neighbour bitmasks.  REFER floods only
#: while it builds, before any fault starts; these systems flood to
#: build and to repair, and most of their floods (206 of 207, 11 of 12
#: and 288 of 324) spread while some battery is metered, which a
#: reception drains as it is heard.
COMPOSED_FLOODING = {
    "D-DEAR": (
        "23e72015378e8ae4276a12b7e8d4b29f756461c44cc15e8a52d8f03502637e9b",
        "79d25b8c4345b62a697ffce37a44cc7da92aaf2b66e670f2fa120203c67ffb9b",
    ),
    "DaTree": (
        "423901e18dc783fe447482d55ea529fd1a6163e8f615995d07e2c5c91ace2cf4",
        "79d25b8c4345b62a697ffce37a44cc7da92aaf2b66e670f2fa120203c67ffb9b",
    ),
    "Kautz-overlay": (
        "525223080e3c0642d12ecbf55988520a26a6f5afcfebc0a76378945ba639aede",
        "79d25b8c4345b62a697ffce37a44cc7da92aaf2b66e670f2fa120203c67ffb9b",
    ),
}

#: ``PLAIN`` and ``FAULTED`` run by the three baselines: the metric
#: digest only, as the trace fingerprint also pins each packet's flight
#: events and the names of the callbacks the scheduler dispatches.
FLOODING = {
    ("plain", "D-DEAR"):
        "fd48b9e7a9a4586287049174da452ea25715a8cf3dd8d43fd0a6dce5545995dd",
    ("plain", "DaTree"):
        "3dab11a0e37a6435caa9b5a0e569a4d3873398d00e63eb23789cf9b7b3fc97ed",
    ("plain", "Kautz-overlay"):
        "a56da900816028272c12db4bd9bef579bb00416bdfff33dcf7bd3dd62e73a6a9",
    ("faulted", "D-DEAR"):
        "007251e616c7b6cfbb8868080aea4cf911f68059339859014efea319614cf332",
    ("faulted", "DaTree"):
        "9a41be605bbe4d28ee6f815b611ace770f1ffc34b3028ce5d0943021243aea9e",
    ("faulted", "Kautz-overlay"):
        "8c525f4e84defb641ab1f759f29ccde1876f848d3b3d0c88d07e135d789b76b1",
}


def result_digest(result) -> str:
    fields = [repr(getattr(result, name)) for name in METRIC_FIELDS]
    return hashlib.sha256("|".join(fields).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_matches_the_recorded_bytes(name):
    config, metrics_digest, trace_fingerprint = PINNED[name]
    result = run_scenario("REFER", config)
    assert result.generated > 0 and result.delivered_total > 0
    assert result_digest(result) == metrics_digest, {
        field: getattr(result, field) for field in METRIC_FIELDS
    }
    assert result.telemetry.trace.fingerprint() == trace_fingerprint


def check_composed(system, pinned):
    assert tuple(spec.kind for spec in COMPOSED.fault_spec) == FAULT_KINDS
    result = run_scenario(system, COMPOSED)
    assert {event.model for event in result.fault_events} == {
        "crash-rotation", "permanent-crash", "actuator-outage",
        "regional-blackout", "battery-depletion", "link-burst",
    }
    events_digest = hashlib.sha256(
        repr(result.fault_events).encode()
    ).hexdigest()
    assert (result_digest(result), events_digest) == pinned, {
        field: getattr(result, field) for field in METRIC_FIELDS
    }


def test_every_fault_kind_composed_matches_the_recorded_bytes():
    check_composed("REFER", COMPOSED_PINNED)


@pytest.mark.parametrize("system", sorted(COMPOSED_FLOODING))
def test_the_flood_path_composed_matches_the_recorded_bytes(system):
    check_composed(system, COMPOSED_FLOODING[system])


@pytest.mark.parametrize("name,system", sorted(FLOODING))
def test_the_flood_path_matches_the_recorded_bytes(name, system):
    result = run_scenario(system, PINNED[name][0])
    assert result.generated > 0 and result.delivered_total > 0
    assert result_digest(result) == FLOODING[name, system], {
        field: getattr(result, field) for field in METRIC_FIELDS
    }


@pytest.mark.parametrize("hash_seed", ["1", "5"])
def test_recorded_bytes_hold_under_a_fixed_hash_seed(hash_seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [
        f"{name} {PINNED[name][1]} {PINNED[name][2]}"
        for name in sorted(PINNED)
    ]


def _print_observed() -> None:
    """The child of the hash-seed twin: one line per pinned scenario."""
    for name in sorted(PINNED):
        result = run_scenario("REFER", PINNED[name][0])
        print(name, result_digest(result), result.telemetry.trace.fingerprint())


if __name__ == "__main__":
    _print_observed()
