"""The keep rule of ``src/repro``, measured at run time.

``test_every_definition_is_reached_by_name`` keeps a definition whose
name appears anywhere, so a dead method passes on any other object's
use of its name.  This check keeps a function or method only if the
product's own entry points execute a line of its body.  It traces
``src/repro`` with :class:`repro.devtools.cover.LineCoverage`, with no
test running, over:

* the four ``benchmarks/e2e`` workloads at seed 1 (``refer_steady``
  cut to 20 s);
* ``repro.telemetry.report``: CI's telemetry and QoS smokes and one
  run with every option and export;
* ``repro.experiments``: ``fig4``, ``fig6``, ``fig8``, ``fig10`` and
  ``run REFER --faults 3``, at small sizes;
* CI's smokes in process: the resilience grid (all six fault classes,
  recovery on), the recovery and QoS runs, the parallel smoke's grid at
  ``workers=0`` with a journal, then resumed from it, and rendered as
  the ``campaign`` command renders it;
* ``repro.devtools``: the divergence smoke and the linter's CLI;
* the five examples, and every ``benchmarks/*.py`` at
  ``REFER_BENCH_SEEDS=1 REFER_BENCH_SIM_TIME=4``, with a stand-in for
  pytest-benchmark's fixture that calls its target once.  What counts
  is the lines a bench executes, not its verdict: at that size
  ``test_fig4``, ``test_fig7`` and ``test_resilience_recovery`` fail
  their shape asserts after their code has run.  The pool speed-up gate
  is deselected, because it skips on hosts with fewer than four CPUs
  and the measurement must not depend on the host.

It asserts that the definitions with no executed body line are exactly
``KEPT_FOR_TESTS`` and ``EXECUTED_ONLY_BY_TESTS``
(``tests/test_package_quality.py``), so the two lists can only shrink.
A class body runs on import, so classes are not measured, and neither
is a function whose body only declares a contract (a docstring, ``...``,
``pass`` or ``raise NotImplementedError``).  ``__repr__`` is exempt as a
debugging aid, and ``devtools/cover.py`` is not measured because the
tracer cannot trace itself.

It is a CI step and not part of tier-1 (its name is outside the
``test_*.py`` pattern)::

    PYTHONPATH=src python -m pytest -q tests/keep_at_run_time.py
"""

import ast
import contextlib
import dataclasses
import io
import pathlib
import runpy
import sys

import pytest

from repro.devtools.cover import LineCoverage, executable_lines

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

#: The tracer's own module: its functions run before tracing starts or
#: inside the trace hook, where nothing is traced.
UNMEASURED = ("src/repro/devtools/cover.py",)

#: Measured seconds of each e2e workload run (``refer_steady`` is 120).
E2E_SIM_TIME = 20.0

BENCH_ENV = {
    "REFER_BENCH_SEEDS": "1",
    "REFER_BENCH_SIM_TIME": "4",
    "REFER_BENCH_WORKERS": "0",
}


def _e2e_workloads(tmp_path):
    from repro.experiments.runner import run_scenario

    sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for name in workloads.WORKLOADS:
        for system, config in workloads.build(name, 1):
            sim_time = min(config.sim_time, E2E_SIM_TIME)
            run_scenario(system, dataclasses.replace(config, sim_time=sim_time))


def _report_cli(tmp_path):
    from repro.telemetry.report import main

    small = ["--sensors", "40", "--area", "220", "--warmup", "2"]
    exports = [
        "--metrics-jsonl", str(tmp_path / "m.jsonl"),
        "--flight-jsonl", str(tmp_path / "f.jsonl"),
        "--prom", str(tmp_path / "p.prom"),
        "--trace-jsonl", str(tmp_path / "t.jsonl"),
    ]
    for argv in (
        [*small, "--sim-time", "10", "--rate", "5", "--chaos", "rotation",
         "--recovery", "--wall", *exports],
        [*small, "--sim-time", "8", "--qos", "--bursty", "10", "--load", "10"],
        [*small, "--sim-time", "10", "--rate", "5", "--chaos", "rotation",
         "--recovery", "--qos", "--bursty", "10", "--trace", *exports],
    ):
        assert main(argv) == 0, argv


def _experiments_cli(tmp_path):
    from repro.experiments.__main__ import main

    small = ["--seeds", "1", "--sim-time", "4", "--sensors", "40"]
    for argv in (
        ["fig4", *small, "--points", "1", "3"],
        ["fig6", *small, "--points", "0", "3"],
        ["fig8", *small, "--points", "40", "80"],
        ["fig10", *small, "--points", "40", "80"],
        ["run", "REFER", "--faults", "3", "--sensors", "60", "--sim-time", "6"],
    ):
        assert main(argv) == 0, argv


def _ci_smokes(tmp_path):
    from repro.chaos.spec import FaultSpec
    from repro.experiments.campaign import campaign_report, run_campaign
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.resilience import (
        DEFAULT_FAULT_CLASSES,
        format_resilience,
        resilience_campaign,
    )
    from repro.experiments.runner import run_scenario
    from repro.qos import BurstyConfig, QosConfig
    from repro.recovery import RecoveryConfig

    small = ScenarioConfig(
        sensor_count=40, area_side=220.0, sim_time=10.0, warmup=2.0,
        rate_pps=6.0,
    )
    format_resilience(
        resilience_campaign(
            small, systems=("REFER", "DaTree"),
            fault_classes=DEFAULT_FAULT_CLASSES, intensities=(4,), seeds=1,
            recovery=RecoveryConfig(),
        )
    )
    run_scenario(
        "REFER",
        ScenarioConfig(
            seed=7, sensor_count=60, area_side=260.0, sim_time=30.0,
            warmup=6.0, rate_pps=6.0,
            fault_spec=(FaultSpec(kind="actuator", count=1, period=20.0,
                                  duration=10.0, rounds=1, start=10.0),),
            recovery=RecoveryConfig(),
        ),
    )
    run_scenario(
        "REFER",
        dataclasses.replace(
            small, seed=1, sim_time=8.0, qos=QosConfig(),
            bursty=BurstyConfig(sources=10, peak_rate_pps=12.0,
                                load_multiplier=10.0),
        ),
    )
    grid = dict(seeds=1, figures=["fig4"],
                sweeps={"fig4": (2.0, 4.0, 6.0, 8.0)})
    journal = str(tmp_path / "campaign.jsonl")
    run_campaign(small, **grid, journal=journal)
    campaign_report(run_campaign(small, **grid, journal=journal, resume=True))


def _devtools_clis(tmp_path):
    from repro.devtools import divergence, lint

    fixture = REPO_ROOT / "tests" / "devtools" / "fixtures"
    assert divergence.main(
        ["inproc", "inproc", "--fixture", str(fixture / "unordered_sources.py")]
    ) == 2
    assert lint.main([str(REPO_ROOT / top) for top in
                      ("src", "tests", "benchmarks", "examples")]) == 0


def _examples(tmp_path):
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")


class _OneRound:
    """pytest-benchmark's ``benchmark`` fixture, reduced to one call."""

    def __call__(self, target, *args, **kwargs):
        return target(*args, **kwargs)

    def pedantic(self, target, args=(), kwargs=None, **_):
        return target(*args, **(kwargs or {}))


class _BenchPlugin:
    @pytest.fixture
    def benchmark(self):
        return _OneRound()


def _benches(tmp_path):
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import _common
    finally:
        sys.path.pop(0)
    # The benches write their tables beside the committed ones.
    _common.RESULTS_DIR = tmp_path / "results"
    pytest.main(
        [
            "-q", "-p", "no:benchmark", "-p", "no:cacheprovider",
            "--rootdir", str(REPO_ROOT),
            "-k", "not test_pool_speedup_gate",
            *sorted(str(p) for p in (REPO_ROOT / "benchmarks").glob("*.py")
                    if p.name != "_common.py"),
        ],
        plugins=[_BenchPlugin()],
    )


ENTRY_POINTS = (
    _e2e_workloads,
    _report_cli,
    _experiments_cli,
    _ci_smokes,
    _devtools_clis,
    _examples,
    _benches,
)


def _declaration(body):
    """Whether a function body (docstring dropped) only declares a
    contract: it is empty, ``...``, ``pass`` or ``raise
    NotImplementedError``, so there is nothing in it to run."""
    if len(body) > 1:
        return False
    if not body or isinstance(body[0], ast.Pass):
        return True
    statement = body[0]
    if isinstance(statement, ast.Expr):
        return statement.value.__class__ is ast.Constant and (
            statement.value.value is Ellipsis
        )
    return isinstance(statement, ast.Raise) and (
        ast.unparse(statement.exc) == "NotImplementedError"
    )


def _function_body_lines(path):
    """``(dotted name, executable body lines)`` of every function and
    method in ``path``; a body starts after its docstring."""
    executable = executable_lines(path)
    found = []

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                dotted = ".".join([*enclosing, child.name])
                if not isinstance(child, ast.ClassDef):
                    body = child.body
                    if (
                        isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)
                    ):
                        body = body[1:]
                    if not _declaration(body):
                        found.append((dotted, {
                            line for line in executable
                            if body[0].lineno <= line <= child.end_lineno
                        }))
                visit(child, [*enclosing, child.name])
            else:
                visit(child, enclosing)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def unexecuted(seen, skip):
    """Keys (``path::dotted``) of the measured definitions none of
    whose body lines is in ``seen`` (resolved path -> lines)."""
    keys = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        if relative in skip:
            continue
        ran = seen.get(str(path.resolve()), set())
        for dotted, lines in _function_body_lines(path):
            if dotted.rsplit(".", 1)[-1] == "__repr__":
                continue
            if not lines & ran:
                keys.append(f"{relative}::{dotted}")
    return keys


def test_every_definition_runs_in_a_product_entry_point(tmp_path, monkeypatch):
    for name, value in BENCH_ENV.items():
        monkeypatch.setenv(name, value)
    monkeypatch.delenv("REFER_BENCH_FULL", raising=False)
    monkeypatch.chdir(tmp_path)
    universe = {
        str(path.resolve()): executable_lines(path)
        for path in PACKAGE.rglob("*.py")
    }
    tracer = LineCoverage(universe)
    out = io.StringIO()
    tracer.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            for entry in ENTRY_POINTS:
                entry(tmp_path)
    finally:
        tracer.stop()

    from tests.test_package_quality import (
        AWAITING_DELETION,
        EXECUTED_ONLY_BY_TESTS,
        KEPT_FOR_TESTS,
    )

    found = unexecuted(tracer._seen, set(AWAITING_DELETION) | set(UNMEASURED))
    kept = {**KEPT_FOR_TESTS, **EXECUTED_ONLY_BY_TESTS}
    assert sorted(found) == sorted(kept), (
        "no entry point runs, and not kept:\n  "
        + "\n  ".join(sorted(set(found) - set(kept)))
        + "\nkept, but an entry point runs it or it is gone:\n  "
        + "\n  ".join(sorted(set(kept) - set(found)))
    )
