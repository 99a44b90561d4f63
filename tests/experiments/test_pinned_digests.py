"""Pinned-digest goldens: the same bytes as the commit that recorded them.

Every other determinism golden compares two runs of the *same*
checkout, which cannot tell "still deterministic" from "still the same
answer".  These two scenarios pin literals instead: the SHA-256 of the
nine ``RunResult`` metric fields (``repr`` of each, so every float is
compared to its last digit) and the ``TraceStream`` fingerprint (every
scheduler dispatch, RNG draw and packet transition, in order).

The literals were recorded on the one commit that meant to move them
(PR 22's re-pin: leg and fade draws keyed by entity, contention counted
at exact positions; the PR 12-21 refactors ran against the previous
set) and are identical under CPython 3.9, 3.11 and 3.12.  A refactor
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

from repro.chaos.spec import FaultSpec
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

_TRACED = TelemetryConfig(profiler=False, tracing=TracingConfig())

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
        "ca25edf57a96067de7d4902d91c0f2a8c45f197388f1f5a7aca4de2a4343e587",
        "7fbdce53aa9c8d3a55da283c6e94c68ae81652a87ee4580112ac1b24a6cdaa35",
    ),
    "faulted": (
        FAULTED,
        "aee5aaa59b3a2ce53230f917c5b9a0b67f4ffcd033144a98d499d3d65cbf5497",
        "781012e44d69e3c56e0f91a46b24dc3e96e618b236474cdfe75cd95282ff4647",
    ),
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
