"""The drop-reason taxonomy is closed: no reason escapes DROP_REASONS.

A reason travels as an argument, never on the packet: a failed hop
hands ``on_failed(packet, cause)`` its cause and a system that gives
up hands ``on_dropped(packet, reason)`` its reason.  This walks the
library's AST and collects every string literal that can become one:

* drop reasons — the reason argument of ``self._drop(...)`` (router
  and baselines; ``baselines/`` has no other way to drop, and every
  call there must name a literal reason) and of ``on_dropped(...)``;
* hop causes — the cause argument of ``WirelessNetwork._fail`` and of
  ``on_result(...)`` (the MAC's report), and a literal bound to a
  local named ``cause``;
* QoS verdicts — string returns of the ``refusal``/``admit``
  gatekeepers, which their callers hand on verbatim as a hop cause or
  a drop reason.

Any new drop site must either reuse a taxonomy entry or extend
:data:`repro.telemetry.flight.DROP_REASONS` — this test is what makes
that a hard invariant instead of a convention, for sites no run
reaches too; ``MetricsCollector.on_dropped`` checks the same at run
time.

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
from repro.net.network import QOS_VERDICTS
from repro.qos.config import BurstyConfig, QosConfig
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.flight import DROP_REASONS, HOP_FAIL_CAUSES
from repro.telemetry.tracing import TracingConfig

SRC_ROOT = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Functions whose string return values the callers hand on as a drop
#: reason or a hop cause (the QoS gatekeeper protocol).
REASON_RETURNING = frozenset({"refusal", "admit"})

#: ``name: (position, keyword)`` of the drop reason in a call of
#: ``name``, and of the hop cause.
REASON_ARGS = {"_drop": (2, "reason"), "on_dropped": (1, "reason")}
CAUSE_ARGS = {"_fail": (4, "cause"), "on_result": (0, None)}


def _const_str(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _call_name(node):
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _argument(node, position, keyword):
    if len(node.args) > position:
        return node.args[position]
    for given in node.keywords:
        if given.arg == keyword:
            return given.value
    return None


class _ReasonCollector(ast.NodeVisitor):
    """Collects (reason, path, lineno) for every literal drop reason and
    hop cause, and the keys written into a ``meta`` dict."""

    def __init__(self, path):
        self.path = path
        self.found = []
        self.causes = []
        self.drop_calls = []
        self.meta_keys = []
        self._in_reason_fn = 0

    def _note(self, into, value, node):
        if value is not None:
            into.append((value, self.path, node.lineno))

    def _bind(self, target, value, node):
        if isinstance(target, ast.Name) and target.id == "cause":
            self._note(self.causes, _const_str(value), node)
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "meta"
        ):
            self._note(self.meta_keys, _const_str(target.slice), node)

    def visit_Assign(self, node):
        for target in node.targets:
            self._bind(target, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._bind(node.target, node.value, node)
        self.generic_visit(node)

    def visit_Call(self, node):
        name = _call_name(node)
        if name == "_drop":
            self.drop_calls.append(node.lineno)
        for table, into in (
            (REASON_ARGS, self.found), (CAUSE_ARGS, self.causes)
        ):
            if name in table:
                arg = _argument(node, *table[name])
                self._note(into, _const_str(arg), node)
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        inside = node.name in REASON_RETURNING
        self._in_reason_fn += inside
        self.generic_visit(node)
        self._in_reason_fn -= inside

    def visit_Return(self, node):
        if self._in_reason_fn and node.value is not None:
            self._note(self.found, _const_str(node.value), node)
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
        """The collector genuinely covers the QoS drop sites."""
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
        assert calls == 9, "the scan lost the baselines' drop sites"
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
        """QoS refusals surface as hop failures with the same name, and
        those are the verdicts a system drops under."""
        assert QOS_VERDICTS == {"deadline_expired", "backpressure_shed"}
        assert QOS_VERDICTS <= set(HOP_FAIL_CAUSES) & set(DROP_REASONS)

    def test_every_literal_hop_cause_is_named(self):
        causes = [
            found for collector in _collect() for found in collector.causes
        ]
        assert {"src-unusable", "link-break", "dst-unusable", "mac-loss"} <= {
            cause for cause, _, _ in causes
        }, "the scan lost the network layer's hop causes"
        strays = [
            f"{path}:{line}: {cause!r}"
            for cause, path, line in causes
            if cause not in HOP_FAIL_CAUSES
        ]
        assert not strays, (
            "hop causes outside HOP_FAIL_CAUSES:\n" + "\n".join(strays)
        )

    def test_packet_meta_carries_no_verdict(self):
        """``packet.meta`` is written for the baselines' congestion
        retry count alone: no hop or drop outcome rides on a packet."""
        keys = {
            key for collector in _collect() for key, _, _ in collector.meta_keys
        }
        assert keys == {"congestion_retries"}


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

    #: Chaos + QoS + bursty overload in 16 KB frames: each hop's
    #: airtime (64 ms) queues alarm frames past their deadline, so the
    #: config exercises several taxonomy entries (token-bucket
    #: admission rejections, full-lane sheds *and* deadline expiries),
    #: not just one.  It generates fewer packets than the flight
    #: recorder retains.
    SCENARIO = ScenarioConfig(
        seed=11,
        sensor_count=40,
        area_side=220.0,
        sim_time=10.0,
        warmup=2.0,
        rate_pps=12.0,
        packet_bytes=16000,
        fault_spec=(FaultSpec(kind="rotation", start=3.0),),
        qos=QosConfig(),
        bursty=BurstyConfig(sources=4, load_multiplier=8.0),
        telemetry=TelemetryConfig(
            # Full capture: every drop event is retained.
            tracing=TracingConfig(capture=(0, 2 ** 62)),
        ),
    )

    def test_every_emitted_drop_reason_appears_in_the_trace(self):
        result = run_scenario("REFER", self.SCENARIO)
        telemetry = result.telemetry
        emitted = {
            reason
            for (reason,), _ in telemetry.registry.get("packets_dropped").items()
        }
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
        assert {"admission_rejected", "deadline_expired"} <= traced_reasons
