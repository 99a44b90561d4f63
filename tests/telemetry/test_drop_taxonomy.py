"""The drop-reason taxonomy is closed: no reason escapes DROP_REASONS.

Walks the library's AST and collects every string literal that can end
up in ``packet.meta["drop_reason"]``:

* direct stamps — ``meta["drop_reason"] = "..."`` and the QoS twin
  ``meta["qos_terminal"] = "..."``;
* router and baseline drops — the reason argument of
  ``self._drop(...)`` calls (``baselines/`` has no other way to drop,
  and every call there must name a literal reason);
* QoS verdicts — string returns of the ``refusal``/``admit``
  gatekeepers, which the network layer stamps verbatim.

Any new drop site must either reuse a taxonomy entry or extend
:data:`repro.telemetry.flight.DROP_REASONS` — this test is what makes
that a hard invariant instead of a convention.

The static closure is complemented by a *runtime* closure
(:class:`TestTraceClosure`): a traced chaos+QoS run must surface every
drop reason it actually emits as a ``flight``/``drop`` lifecycle
transition in the :class:`~repro.telemetry.tracing.TraceStream`, so
the trace the divergence debugger compares never under-reports drops.
"""

import ast
import pathlib

import pytest

from repro.chaos.spec import FaultSpec
from repro.experiments.config import FaultConfig, ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.qos.config import BurstyConfig, QosConfig
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.flight import DROP_REASONS, HOP_FAIL_CAUSES
from repro.telemetry.tracing import TracingConfig

SRC_ROOT = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Functions whose string return values the callers stamp as a drop
#: reason (the QoS gatekeeper protocol).
REASON_RETURNING = frozenset({"refusal", "admit"})

META_KEYS = frozenset({"drop_reason", "qos_terminal"})


def _const_str(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _ReasonCollector(ast.NodeVisitor):
    """Collects (reason, path, lineno) for every statically stamped reason."""

    def __init__(self, path):
        self.path = path
        self.found = []
        self.drop_calls = []
        self._in_reason_fn = 0

    def _note(self, value, node):
        if value is not None:
            self.found.append((value, self.path, node.lineno))

    def visit_Assign(self, node):
        for target in node.targets:
            if (
                isinstance(target, ast.Subscript)
                and _const_str(target.slice) in META_KEYS
            ):
                self._note(_const_str(node.value), node)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "_drop":
            self.drop_calls.append(node.lineno)
            if len(node.args) >= 3:
                self._note(_const_str(node.args[2]), node)
            for keyword in node.keywords:
                if keyword.arg == "reason":
                    self._note(_const_str(keyword.value), node)
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        inside = node.name in REASON_RETURNING
        self._in_reason_fn += inside
        self.generic_visit(node)
        self._in_reason_fn -= inside

    def visit_Return(self, node):
        if self._in_reason_fn and node.value is not None:
            self._note(_const_str(node.value), node)
        self.generic_visit(node)


def _collect(root=SRC_ROOT):
    """One visited collector per python file under ``root``."""
    collectors = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        collector = _ReasonCollector(path.relative_to(SRC_ROOT))
        collector.visit(tree)
        collectors.append(collector)
    return collectors


def _collect_stamped_reasons():
    return [found for collector in _collect() for found in collector.found]


class TestDropTaxonomy:
    def test_every_stamped_reason_is_in_the_taxonomy(self):
        stamped = _collect_stamped_reasons()
        assert stamped, "the AST scan found no drop sites — broken scan?"
        strays = [
            f"{path}:{line}: {reason!r}"
            for reason, path, line in stamped
            if reason not in DROP_REASONS
        ]
        assert not strays, (
            "drop reasons outside DROP_REASONS:\n" + "\n".join(strays)
        )

    def test_scan_sees_the_qos_reasons(self):
        """The collector genuinely covers the QoS stamp sites."""
        reasons = {reason for reason, _, _ in _collect_stamped_reasons()}
        assert {
            "deadline_expired", "admission_rejected", "backpressure_shed"
        } <= reasons

    def test_scan_sees_the_router_reasons(self):
        reasons = {reason for reason, _, _ in _collect_stamped_reasons()}
        assert {"hop-limit", "no-successor"} <= reasons

    def test_every_baseline_drop_names_a_literal_reason(self):
        """``baselines/`` drops through ``_drop`` only, and a reason
        passed in a variable would escape the scan above."""
        collectors = _collect(SRC_ROOT / "baselines")
        calls = sum(len(c.drop_calls) for c in collectors)
        assert calls >= 10, "the scan lost the baselines' drop sites"
        unnamed = [
            f"{c.path}:{line}"
            for c in collectors
            for line in c.drop_calls
            if line not in {found_line for _, _, found_line in c.found}
        ]
        assert not unnamed, "_drop without a literal reason:\n" + "\n".join(
            unnamed
        )
        reasons = {r for c in collectors for r, _, _ in c.found}
        assert {"retries-exhausted", "no-route", "hop-limit"} <= reasons

    def test_taxonomy_has_no_duplicates(self):
        assert len(DROP_REASONS) == len(set(DROP_REASONS))
        assert len(HOP_FAIL_CAUSES) == len(set(HOP_FAIL_CAUSES))

    def test_qos_hop_fail_causes_mirror_their_drop_reasons(self):
        """QoS refusals surface as hop failures with the same name."""
        assert "deadline_expired" in HOP_FAIL_CAUSES
        assert "backpressure_shed" in HOP_FAIL_CAUSES


@pytest.mark.parametrize("system", ["DaTree", "D-DEAR", "Kautz-overlay"])
def test_a_baseline_under_faults_drops_nothing_as_unknown(system):
    """Every drop of a faulted baseline run carries the reason its
    router gave up for (``benchmarks/e2e``'s ``baselines_flood``, cut
    to 10 s)."""
    result = run_scenario(
        system,
        ScenarioConfig(
            seed=1000, sensor_count=200, faults=FaultConfig(count=10),
            sim_time=10.0, warmup=2.0, rate_pps=12.0, packet_bytes=1000,
            telemetry=TelemetryConfig(),
        ),
    )
    dropped = result.telemetry.registry.as_dict()["packets_dropped"]
    assert sum(dropped.values()) > 0, "no drops: the scenario lost its bite"
    assert ("unknown",) not in dropped
    assert {reason for (reason,) in dropped} <= set(DROP_REASONS)


class TestTraceClosure:
    """Every drop a traced run emits is visible in its trace stream."""

    #: Chaos + QoS + bursty overload with tight deadlines: the config
    #: is chosen to exercise multiple taxonomy entries (token-bucket
    #: admission rejections *and* deadline expiries), not just one.
    SCENARIO = ScenarioConfig(
        seed=11,
        sensor_count=40,
        area_side=220.0,
        sim_time=10.0,
        warmup=2.0,
        rate_pps=12.0,
        fault_spec=(FaultSpec(kind="rotation", start=3.0),),
        qos=QosConfig(),
        bursty=BurstyConfig(
            sources=4,
            load_multiplier=8.0,
            alarm_deadline=0.02,
            control_deadline=0.03,
            bulk_deadline=0.05,
        ),
        telemetry=TelemetryConfig(
            profiler=False,
            flight_capacity=1 << 16,
            # Full capture so no drop event is evicted from the ring.
            tracing=TracingConfig(capture=(0, 2 ** 62)),
        ),
    )

    def test_every_emitted_drop_reason_appears_in_the_trace(self):
        result = run_scenario("REFER", self.SCENARIO)
        telemetry = result.telemetry
        emitted = telemetry.flight.drop_reasons()
        assert result.dropped > 0 and emitted, (
            "the scenario produced no drops — broken closure scenario?"
        )
        traced_reasons = {
            event.detail.split(" ", 3)[3]
            for event in telemetry.trace.captured()
            if event.kind == "flight" and event.label == "drop"
        }
        missing = set(emitted) - traced_reasons
        assert not missing, (
            f"drop reasons emitted but absent from the trace: {missing}"
        )
        # And the trace never invents reasons outside the taxonomy.
        assert traced_reasons <= set(DROP_REASONS)
        # The run exercised more than one taxonomy entry.
        assert len(traced_reasons) >= 2
