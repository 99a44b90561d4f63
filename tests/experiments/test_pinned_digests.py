"""The golden file's checker: every pinned literal, run and compared.

Every other determinism golden compares two runs of the *same*
checkout, which cannot tell "still deterministic" from "still the same
answer".  ``tests/goldens.json`` pins literals instead, one entry per
run, and this module is the one place that checks them.  An entry
holds its ``literals``, what yields them, the CPython versions they
hold under (``python``) and when they were recorded:

* ``system`` and ``config`` name a ``run_scenario`` call: a
  ``ScenarioConfig`` constant of this module (or ``path::NAME`` of
  another file), and its literals are observables of the result
  (``OBSERVABLES``): ``metrics``, the SHA-256 of the nine ``RunResult``
  metric fields (``repr`` of each, so every float is compared to its
  last digit); ``trace``, the ``TraceStream`` fingerprint (every
  scheduler dispatch, RNG draw and packet transition, in order);
  ``fault_events``, the SHA-256 of ``repr(result.fault_events)``;
  counts and energies as a report prints them;
* ``command`` is a command line run from the repository root with
  ``src`` on the path; each literal key is a regular expression over
  its output whose first group must equal the value, and ``exit``
  (default 0) its exit status.

Under a version an entry does not list, the run still has to succeed
(exit status, ``"correct": true``, packets generated and delivered);
only the comparison is skipped, and the test says so.  An entry marked
``ci_only`` costs more than tier-1 spends; CI's 3.12 job checks it
with ``--ci-only``.  A change that means to move literals re-records
them with ``--record``, which prints before -> after for each moved
one: the re-pin is one diff of the golden file.

The hash-seed twin reruns ``plain`` and ``faulted`` in a child
interpreter under two fixed, different ``PYTHONHASHSEED`` values:
``str`` hashes — and with them the iteration order of every set or
dict keyed by strings — differ per process, so a run whose bytes
depend on that order cannot print the recorded literals under both.
The pair is chosen, not arbitrary: under CPython >= 3.11 seeds 1 and 5
iterate ``set(TrafficClass)`` — enum members hash by name, the one
``str``-hashed key family on the packet path — in exactly opposite
orders, so whichever of two classes a hash-ordered loop serves first,
one of the two children serves the other.  (Small-int keys hash to
themselves under every seed; a set of node ids iterated into an
ordered effect moves the in-process digests instead.)

Run as a script (``PYTHONPATH=src python
tests/experiments/test_pinned_digests.py``): ``--record`` rewrites the
golden file, ``--ci-only`` checks the CI-only entries, and no flag is
the hash-seed twin's child.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from repro.chaos.spec import FAULT_KINDS, FaultSpec
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.qos.config import QosConfig
from repro.recovery.config import RecoveryConfig
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.tracing import TracingConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_FILE = REPO_ROOT / "tests" / "goldens.json"
GOLDENS = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"
PYTHON = "%d.%d" % sys.version_info[:2]

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

#: Every fault kind at once, in ``FAULT_KINDS`` order, with recovery
#: on: the attrition, actuator, blackout and battery schedules no other
#: entry covers.  Pinned by its fault-event log, not by a trace
#: fingerprint: the fingerprint names the callback each dispatch runs,
#: and a refactor of the chaos library may rename a recovery callback
#: without moving a single fault.
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

BASELINES = ("D-DEAR", "DaTree", "Kautz-overlay")


def result_digest(result) -> str:
    fields = [repr(getattr(result, name)) for name in METRIC_FIELDS]
    return hashlib.sha256("|".join(fields).encode()).hexdigest()


#: What an in-process entry's literal keys name.
OBSERVABLES = {
    "metrics": result_digest,
    "trace": lambda result: result.telemetry.trace.fingerprint(),
    "fault_events":
        lambda result: hashlib.sha256(
            repr(result.fault_events).encode()
        ).hexdigest(),
    "generated": lambda result: result.generated,
    "delivered": lambda result: result.delivered_total,
    "construction_energy_j":
        lambda result: "%.2f" % result.construction_energy_j,
    "comm_energy_j": lambda result: "%.2f" % result.comm_energy_j,
}


def _config(reference: str) -> ScenarioConfig:
    """``NAME`` is a constant of this module; ``path::NAME`` one of a
    file under the repository, loaded with its directory on the path."""
    path, _, name = reference.rpartition("::")
    if not path:
        return globals()[name]
    file = REPO_ROOT / path
    sys.path.insert(0, str(file.parent))
    try:
        spec = importlib.util.spec_from_file_location(file.stem, file)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(file.parent))
    return getattr(module, name)


def observe(entry):
    """Run one entry: its observed literals (``None`` for a pattern no
    line matched) and the ``RunResult``, for a run in process."""
    if "command" in entry:
        argv = shlex.split(entry["command"])
        done = subprocess.run(
            [sys.executable if argv[0] == "python" else argv[0], *argv[1:]],
            cwd=REPO_ROOT,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == entry.get("exit", 0), (
            done.stdout + done.stderr
        )
        assert '"correct": false' not in done.stdout, done.stdout
        found = {
            pattern: re.search(pattern, done.stdout, re.M)
            for pattern in entry["literals"]
        }
        return {
            key: match and match.group(1) for key, match in found.items()
        }, None
    result = run_scenario(entry["system"], _config(entry["config"]))
    assert result.generated > 0 and result.delivered_total > 0
    return {key: OBSERVABLES[key](result) for key in entry["literals"]}, result


def check(name):
    """Run the entry ``name`` and compare it with the golden file where
    its literals hold; the ``RunResult`` of a run in process."""
    entry = GOLDENS[name]
    observed, result = observe(entry)
    if PYTHON not in entry["python"].split():
        pytest.skip(
            f"{name} ran; its literals hold under CPython "
            f"{entry['python']}, not {PYTHON}"
        )
    moved = {
        key: {"recorded": value, "observed": observed[key]}
        for key, value in entry["literals"].items()
        if observed[key] != value
    }
    assert not moved, (moved, result and {
        field: getattr(result, field) for field in METRIC_FIELDS
    })
    return result


#: The entries checked by a test of their own, named as they were
#: before the golden file held them.
RUNS = ("plain", "faulted")
FLOODING = [(name, system) for name in sorted(RUNS) for system in BASELINES]
NAMED = {
    *RUNS,
    "composed",
    *(f"composed-{system}" for system in BASELINES),
    *(f"{name}-{system}" for name, system in FLOODING),
}
CI_ONLY = sorted(
    name for name, entry in GOLDENS.items() if entry.get("ci_only")
)
#: Every other entry, checked by the one generic test.
OTHERS = sorted(set(GOLDENS) - NAMED - set(CI_ONLY))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_the_recorded_bytes(name):
    check(name)


def _check_composed(name):
    assert tuple(spec.kind for spec in COMPOSED.fault_spec) == FAULT_KINDS
    result = check(name)
    assert {event.model for event in result.fault_events} == {
        "crash-rotation", "permanent-crash", "actuator-outage",
        "regional-blackout", "battery-depletion", "link-burst",
    }


def test_every_fault_kind_composed_matches_the_recorded_bytes():
    _check_composed("composed")


@pytest.mark.parametrize("system", BASELINES)
def test_the_flood_path_composed_matches_the_recorded_bytes(system):
    _check_composed(f"composed-{system}")


@pytest.mark.parametrize("name,system", FLOODING)
def test_the_flood_path_matches_the_recorded_bytes(name, system):
    check(f"{name}-{system}")


@pytest.mark.parametrize("name", OTHERS)
def test_the_entry_matches_the_recorded_literals(name):
    check(name)


def test_every_entry_is_checked_somewhere():
    """An entry is checked by a tier-1 test above or marked
    ``ci_only``, and CI's ``--ci-only`` step runs under a version every
    CI-only entry holds under: no literal is checked nowhere."""
    assert NAMED <= set(GOLDENS) - set(CI_ONLY)
    assert NAMED | set(OTHERS) | set(CI_ONLY) == set(GOLDENS)
    steps = re.split(
        r"^      - name: ", CI.read_text(encoding="utf-8"), flags=re.M
    )
    runners = [
        step for step in steps if "test_pinned_digests.py --ci-only" in step
    ]
    assert len(runners) == 1, "ci.yml has no step that runs --ci-only"
    versions = re.findall(r"python-version == '([\d.]+)'", runners[0])
    assert versions, "the --ci-only step names no python-version"
    for name in CI_ONLY:
        assert set(versions) <= set(GOLDENS[name]["python"].split()), name


@pytest.mark.parametrize("hash_seed", ["1", "5"])
def test_recorded_bytes_hold_under_a_fixed_hash_seed(hash_seed):
    env = dict(
        os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(REPO_ROOT / "src")
    )
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [
        f"{name} {GOLDENS[name]['literals']['metrics']} "
        f"{GOLDENS[name]['literals']['trace']}"
        for name in sorted(RUNS)
    ]


def _print_observed() -> None:
    """The child of the hash-seed twin: one line per traced run."""
    for name in sorted(RUNS):
        result = run_scenario("REFER", _config(GOLDENS[name]["config"]))
        print(
            name, result_digest(result), result.telemetry.trace.fingerprint()
        )


def _check_ci_only() -> None:
    for name in CI_ONLY:
        try:
            check(name)
        except pytest.skip.Exception as skipped:
            print(skipped.msg)
            continue
        print(f"{name}: the recorded literals hold")


def _record() -> None:
    """Re-run every entry that holds here and rewrite the golden file,
    printing each literal that moved."""
    moved = 0
    for name, entry in GOLDENS.items():
        if PYTHON not in entry["python"].split():
            print(f"{name}: not re-run, its literals hold under "
                  f"CPython {entry['python']}")
            continue
        observed, _ = observe(entry)
        for key, value in entry["literals"].items():
            if observed[key] is None:
                sys.exit(f"{name}: no output line matches {key!r}")
            if observed[key] != value:
                moved += 1
                print(f"{name} {key}: {value} -> {observed[key]}")
        entry["literals"] = observed
    GOLDEN_FILE.write_text(
        json.dumps(GOLDENS, indent=2) + "\n", encoding="utf-8"
    )
    print(f"{moved} literal(s) moved")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true",
                      help="re-run every entry and rewrite tests/goldens.json")
    mode.add_argument("--ci-only", action="store_true",
                      help="check the entries marked ci_only")
    args = parser.parse_args()
    if args.record:
        _record()
    elif args.ci_only:
        _check_ci_only()
    else:
        _print_observed()
