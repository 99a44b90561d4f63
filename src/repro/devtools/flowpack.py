"""The determinism rule pack: REF008–REF012, built on the flow engine.

Where :mod:`repro.devtools.rulepack` matches single expressions, these
rules consume the scope-aware dataflow analysis
(:mod:`repro.devtools.scopes`, :mod:`repro.devtools.dataflow`) and the
cross-module call graph (:mod:`repro.devtools.callgraph`): they flag
nondeterminism that only exists as a *flow* — a set iterated into the
event scheduler three statements later, a wall-clock value laundered
through a ``util`` helper into simulation code.

Importing this module registers REF008–REF012 with
:mod:`repro.devtools.rules`.  Ids are stable (suppressions and
baselines reference them); rules are never renumbered, only retired.

All five are library rules: test files may iterate sets and drive
clocks on purpose — and the analyzer's own fixture corpus *must* be
allowed to contain violations.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from repro.devtools import dataflow
from repro.devtools.rules import Rule, RuleContext, dotted_name, register

#: Directories whose code runs inside (or feeds) the simulation loop —
#: the scope of the wall-clock rules, mirrored from REF002.
SIM_SCOPED_DIRS = (
    "sim",
    "net",
    "core",
    "wsan",
    "chaos",
    "recovery",
    "telemetry",
    "qos",
)

#: Protocol packages whose objects are "sim objects" for REF010.
PROTOCOL_DIRS = (
    "sim",
    "net",
    "core",
    "wsan",
    "chaos",
    "recovery",
    "kautz",
    "dht",
    "baselines",
    "qos",
)


def in_sim_scope(ctx: RuleContext) -> bool:
    """REF002/REF012 scope: sim subsystems plus the runtime tracer.

    The campaign supervisor, its journal and the divergence debugger
    are host-side code, but they sit one import away from the runner
    (the debugger replays whole sim runs in-process), so they are held
    to the same wall-clock discipline: every deliberate host-clock
    read (worker deadlines) carries an individually justified
    suppression instead of being waved through by scope.
    """
    return (
        ctx.in_directory(*SIM_SCOPED_DIRS)
        or ctx.path.endswith("devtools/cover.py")
        or ctx.path.endswith("devtools/divergence.py")
        or ctx.path.endswith("experiments/parallel.py")
        or ctx.path.endswith("experiments/journal.py")
    )


class _FlowRule(Rule):
    """Base for rules that read the shared per-file flow analysis."""

    #: Observation kinds (``dataflow.*``) this rule turns into findings.
    observation_kinds: Tuple[str, ...] = ()

    def applies_to(self, ctx: RuleContext) -> bool:
        return not ctx.is_test_file

    def finish(self, tree: ast.Module, ctx: RuleContext) -> None:
        flow = ctx.module_flow()
        if flow is None:
            return
        for obs in flow.observations():
            if obs.kind in self.observation_kinds:
                self.report_observation(obs, ctx)

    def report_observation(
        self, obs: "dataflow.Observation", ctx: RuleContext
    ) -> None:
        raise NotImplementedError


@register
class NoUnorderedFlow(_FlowRule):
    """REF008 — unordered iteration must not drive ordered effects.

    Iterating a ``set`` (or anything the dataflow engine tainted as
    unordered — frozensets, set unions, dict views of them, lists
    materialised from them) is harmless until the iteration *order*
    becomes observable: events scheduled per element enter the queue in
    hash order, RNG draws consume the stream in hash order, a returned
    list freezes hash order into the caller's world.  Any of those makes
    a run depend on ``PYTHONHASHSEED`` and the interpreter's set
    implementation — and makes deterministic per-shard event-stream
    merge (ROADMAP item 2) impossible by construction.  ``sorted()``
    before the loop is the fix; ``min``/``max``/``len``/``any``/``all``
    and ``math.fsum`` stay legal, they are order-free.
    """

    rule_id = "REF008"
    title = "no unordered iteration into scheduling/RNG/emitted sequences"
    rationale = (
        "iterating sets into schedulers, RNG draws or returned "
        "sequences freezes hash order into behaviour; sort first"
    )
    observation_kinds = (
        dataflow.UNORDERED_SCHEDULE,
        dataflow.UNORDERED_DRAW,
        dataflow.UNORDERED_EMIT,
    )

    _WHAT = {
        dataflow.UNORDERED_SCHEDULE: "schedules events",
        dataflow.UNORDERED_DRAW: "draws from an RNG stream",
        dataflow.UNORDERED_EMIT: "is emitted to callers",
    }

    def report_observation(self, obs, ctx: RuleContext) -> None:
        what = self._WHAT[obs.kind]
        ctx.report(
            self,
            obs.node,
            f"unordered iteration order {what} ({obs.detail}); "
            "iterate sorted(...) instead",
        )


#: File allowed to construct ``random.Random`` directly: the stream
#: factory itself.
_RNG_FACTORY_SUFFIX = "util/rng.py"


@register
class RngStreamDiscipline(Rule):
    """REF009 — every generator is a named, registered, package-local stream.

    ``RngStreams`` only isolates subsystems if everybody goes through
    it: a ``random.Random(seed)`` constructed ad hoc is an unnamed
    stream no fork can reproduce, a dynamic stream name escapes review,
    and two packages drawing from the *same* name re-couple the exact
    components the streams exist to decouple.  The checked registry is
    :data:`repro.util.rng.KNOWN_STREAM_NAMES`; dynamic families are
    declared there with a ``"prefix.*"`` entry and must spell the
    prefix as the literal head of an f-string.  Registry entries nobody
    draws from any more are flagged where the registry is defined.
    """

    rule_id = "REF009"
    title = "RNG streams are named literals from the checked registry"
    rationale = (
        "ad-hoc random.Random and dynamic or cross-package stream "
        "names break per-component reproducibility"
    )

    def applies_to(self, ctx: RuleContext) -> bool:
        # Library code only: standalone drivers (benchmarks/) seed
        # their own synthetic workloads and are no more a subsystem
        # than a test is.
        return not ctx.is_test_file and ctx.in_directory("repro")

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _registry() -> frozenset:
        from repro.util.rng import KNOWN_STREAM_NAMES

        return KNOWN_STREAM_NAMES

    @staticmethod
    def _registered(name: str, registry: frozenset) -> bool:
        if name in registry:
            return True
        return any(
            entry.endswith(".*") and name.startswith(entry[:-1])
            for entry in registry
        )

    @staticmethod
    def _fstring_prefix(node: ast.JoinedStr) -> Optional[str]:
        if node.values and isinstance(node.values[0], ast.Constant):
            value = node.values[0].value
            if isinstance(value, str):
                return value
        return None

    def _check_construction(self, node: ast.Call, ctx: RuleContext) -> None:
        func = node.func
        name = dotted_name(func)
        is_ctor = name == "random.Random"
        if not is_ctor and isinstance(func, ast.Name) and func.id == "Random":
            scopes = ctx.scopes
            binding = (
                scopes.module.resolve("Random") if scopes is not None else None
            )
            is_ctor = binding is not None and binding.target == "random.Random"
        if is_ctor and not ctx.path.endswith(_RNG_FACTORY_SUFFIX):
            ctx.report(
                self,
                node,
                "random.Random constructed outside RngStreams; every "
                "generator must come from RngStreams.stream(name)",
            )

    def _check_stream_call(
        self, node: ast.Call, ctx: RuleContext, registry: frozenset
    ) -> None:
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not self._registered(arg.value, registry):
                ctx.report(
                    self,
                    node,
                    f"stream name {arg.value!r} is not in the checked "
                    "registry repro.util.rng.KNOWN_STREAM_NAMES",
                )
            return
        if isinstance(arg, ast.JoinedStr):
            prefix = self._fstring_prefix(arg)
            if prefix and any(
                entry.endswith(".*") and prefix.startswith(entry[:-1])
                for entry in registry
            ):
                return  # a declared dynamic family, e.g. "chaos.*"
        ctx.report(
            self,
            node,
            "stream name is not a string literal (or the literal head "
            "of a registered 'prefix.*' family); dynamic names escape "
            "the checked registry",
        )

    def _check_sharing(self, uses, ctx: RuleContext) -> None:
        packages = ctx.project.stream_packages()
        for use in uses:
            if use.path != ctx.path or use.name is None:
                continue
            shared = packages.get(use.name, [])
            if len(shared) > 1:
                ctx.report(
                    self,
                    None,
                    f"stream {use.name!r} is drawn from multiple subsystem "
                    f"packages ({', '.join(shared)}); streams must stay "
                    "package-local",
                    line=use.line,
                )

    def _check_stale_registry(
        self, tree: ast.Module, ctx: RuleContext
    ) -> None:
        registry_node = None
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "KNOWN_STREAM_NAMES"
            ):
                registry_node = stmt
        if registry_node is None:
            return
        # The entries as spelled in the file under lint (not the
        # imported module — the two only differ when someone edits the
        # registry, which is exactly when the check must see the edit).
        entries = sorted(
            node.value
            for node in ast.walk(registry_node.value)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
        )
        used = ctx.project.literal_stream_names()
        for entry in entries:
            if entry.endswith(".*") or entry in used:
                continue
            ctx.report(
                self,
                registry_node,
                f"registry entry {entry!r} is never drawn from; remove "
                "it or the stream it names",
            )

    # -- rule body -----------------------------------------------------------

    def finish(self, tree: ast.Module, ctx: RuleContext) -> None:
        registry = self._registry()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            self._check_construction(node, ctx)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "stream"
                and len(node.args) == 1
                and not node.keywords
            ):
                self._check_stream_call(node, ctx, registry)
        if ctx.project is not None:
            self._check_sharing(ctx.project.stream_uses, ctx)
            if ctx.path.endswith(_RNG_FACTORY_SUFFIX):
                self._check_stale_registry(tree, ctx)


@register
class NoIdentityOrder(_FlowRule):
    """REF010 — memory addresses are not keys and not an order.

    ``id(obj)`` and the default object ``hash()`` are the allocator's
    output: stable within one process, different in the next.  Used as
    a sort key, dict/set key or comparison operand on sim objects they
    make tie-breaks — and therefore event order, routing choices,
    anything downstream — irreproducible across processes, which is
    fatal for the sharded runner (cross-shard merge compares streams
    from *different* processes).  Key on the object's stable identity
    (``node.id``, ``cell.cid``) or use ``repro.util.hashing`` for
    content hashes.
    """

    rule_id = "REF010"
    title = "no id()/object-hash in sort keys, container keys, comparisons"
    rationale = (
        "memory addresses differ per process; key and order sim "
        "objects by their stable ids"
    )
    observation_kinds = (
        dataflow.IDENTITY_SORT_KEY,
        dataflow.IDENTITY_DICT_KEY,
        dataflow.IDENTITY_COMPARE,
    )

    _WHAT = {
        dataflow.IDENTITY_SORT_KEY: "as a sort key",
        dataflow.IDENTITY_DICT_KEY: "as a container key",
        dataflow.IDENTITY_COMPARE: "in a comparison",
    }

    def applies_to(self, ctx: RuleContext) -> bool:
        return not ctx.is_test_file and ctx.in_directory(*PROTOCOL_DIRS)

    def report_observation(self, obs, ctx: RuleContext) -> None:
        ctx.report(
            self,
            obs.node,
            f"id()/object-hash value used {self._WHAT[obs.kind]} "
            f"({obs.detail}); use the object's stable id instead",
        )


@register
class NoUnorderedFloatReduction(_FlowRule):
    """REF011 — float accumulation must not depend on iteration order.

    Float addition is not associative: ``sum()`` over a set (or any
    taint-carrying iterable), and ``acc += x`` inside unordered
    iteration, produce different low bits for different hash orders —
    exactly the kind of drift the byte-identical goldens exist to
    catch, except here it hides until a hash seed or interpreter
    changes.  Sort the iterable first, or use ``math.fsum`` (exact for
    any order) when the reduction itself is the point.
    """

    rule_id = "REF011"
    title = "no order-sensitive float reduction over unordered iterables"
    rationale = (
        "float sums differ by iteration order; sorted(...) or "
        "math.fsum make the reduction order-free"
    )
    observation_kinds = (dataflow.UNORDERED_REDUCTION,)

    def report_observation(self, obs, ctx: RuleContext) -> None:
        ctx.report(
            self,
            obs.node,
            f"order-sensitive reduction ({obs.detail}); use "
            "sorted(...) or math.fsum",
        )


@register
class NoWallClockThroughHelpers(_FlowRule):
    """REF012 — wall-clock time must not reach sim code via helpers.

    The interprocedural closure of REF002: a helper defined where
    wall-clock calls are legal (``util/``, ``experiments/``) that
    *returns* a host-clock reading re-introduces the exact
    nondeterminism REF002 guards against the moment simulation code
    calls it — without any ``time.`` spelling in the flagged file.  The
    call graph's function summaries carry the taint across module
    boundaries; the finding lands on the sim-side call site, naming
    the original clock source.
    """

    rule_id = "REF012"
    title = "no wall-clock values returned through helpers into sim code"
    rationale = (
        "helpers that return time.time()&co re-import host-machine "
        "time into simulation code; pass sim.now in"
    )
    observation_kinds = (dataflow.WALLCLOCK_HELPER,)

    def applies_to(self, ctx: RuleContext) -> bool:
        return not ctx.is_test_file and in_sim_scope(ctx)

    def report_observation(self, obs, ctx: RuleContext) -> None:
        ctx.report(
            self,
            obs.node,
            "call returns a wall-clock value (traces to "
            f"{obs.detail}()); simulation code must use the sim clock "
            "(Simulator.now)",
        )
