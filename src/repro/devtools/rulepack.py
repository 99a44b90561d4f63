"""The REFER rule pack: the invariants the type system cannot see.

Importing this module registers every built-in rule (REF000–REF007,
REF009, REF010) with :mod:`repro.devtools.rules`.  The ids are stable
— suppression comments reference them — so rules are never renumbered,
only retired: REF008, REF011 and REF012 (hash-order flow into
scheduling, float sums over sets, wall-clock through helpers) needed a
taint engine that caught nothing the pinned digests did not, and are
gone (DESIGN.md, "What guards determinism").

Every rule matches one expression of one file.  Where the thing to
forbid is a *flow* — a clock value reaching sim code through a helper
— the rule's scope is widened until no flow needs tracking: the clock
may not be read anywhere under ``repro/``, so the helper itself is the
finding.

Scope conventions:

* *Library rules* (REF001, REF004, REF007) skip test files — tests
  legitimately assert exact floats of deterministic runs, may drive
  ``random.Random`` instances directly, and may print.  REF002, REF009
  and REF010 narrow that to library code under ``repro/``: standalone
  drivers (``benchmarks/``, ``examples/``) time themselves and seed
  their own synthetic workloads.
* *Universal rules* (REF003, REF005, REF006) run everywhere: silently
  swallowed exceptions and mutable defaults are as harmful in a test
  as in the library.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.devtools.rules import Rule, RuleContext, dotted_name, register


def _is_library(ctx: RuleContext) -> bool:
    """Non-test code under ``repro/`` — the scope of REF002/REF009/REF010."""
    return not ctx.is_test_file and ctx.in_directory("repro")


@register
class FileParses(Rule):
    """REF000 — the file parses.

    Matches nothing itself: the driver reports REF000 for a file it
    cannot read or parse, so that a broken file fails CI instead of
    crashing the linter.  Registered so the id has its row in
    ``--list-rules`` like every other.
    """

    rule_id = "REF000"
    title = "file parses"
    rationale = "a broken file must fail CI, not crash the linter"


@register
class NoGlobalRandom(Rule):
    """REF001 — randomness must flow through ``RngStreams``.

    Calls to the module-level functions of :mod:`random`
    (``random.random()``, ``random.seed()``, …) consume the interpreter's
    *shared* global generator: one stray draw anywhere perturbs every
    downstream component and destroys bit-reproducibility — exactly what
    the per-component streams in ``repro.util.rng`` exist to prevent.
    Constructing ``random.Random(seed)`` instances (and annotating with
    ``random.Random``) stays legal; so does calling methods on such an
    instance.
    """

    rule_id = "REF001"
    title = "no global random.* calls"
    rationale = (
        "the shared global RNG breaks bit-reproducibility; "
        "use a named RngStreams stream"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def applies_to(self, ctx: RuleContext) -> bool:
        return not ctx.is_test_file

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        if isinstance(node, ast.ImportFrom):
            if node.module != "random" or node.level:
                return
            for alias in node.names:
                if alias.name != "Random":
                    ctx.report(
                        self,
                        node,
                        f"'from random import {alias.name}' bypasses "
                        "RngStreams; import the module and pass "
                        "random.Random instances instead",
                    )
            return
        func = node.func  # type: ignore[attr-defined]
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr != "Random"
        ):
            ctx.report(
                self,
                node,
                f"call to global random.{func.attr}(); draw from a named "
                "RngStreams stream instead",
            )


#: Wall-clock entry points, in every spelling the codebase could import.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)


#: The clock-reading names of :mod:`time`, refused as ``from time
#: import`` targets (``sleep`` and friends stay importable).
_TIME_CLOCK_NAMES = frozenset(
    name.split(".", 1)[1]
    for name in _WALL_CLOCK_CALLS
    if name.startswith("time.")
)


@register
class NoWallClock(Rule):
    """REF002 — library code reads time from the sim clock only.

    Every timestamp under ``repro/`` must come from ``Simulator.now``:
    a single ``time.time()`` makes latency, deadlines and event
    ordering depend on the host machine and silently kills run-to-run
    reproducibility.  The scope is the whole library, not only the
    simulation packages, so a ``util/`` helper that returns the host
    clock is flagged where it is written rather than where simulation
    code calls it; ``from time import perf_counter`` is refused the way
    REF001 refuses ``from random import``, because the bare name would
    escape the call pattern.  (Deliberate host-clock reads — the
    profiler measuring *host* cost of sim work, the supervisor's worker
    deadline — carry an inline suppression with their justification.)
    """

    rule_id = "REF002"
    title = "no wall-clock time in library code"
    rationale = (
        "everything under repro/ must use the simulation clock "
        "(sim.now); host-clock reads are suppressed one by one"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def applies_to(self, ctx: RuleContext) -> bool:
        return _is_library(ctx)

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        if isinstance(node, ast.ImportFrom):
            if node.module != "time" or node.level:
                return
            for alias in node.names:
                if alias.name in _TIME_CLOCK_NAMES:
                    ctx.report(
                        self,
                        node,
                        f"'from time import {alias.name}' hides a "
                        "wall-clock read behind a bare name; library "
                        "code must use the sim clock (Simulator.now)",
                    )
            return
        name = dotted_name(node.func)  # type: ignore[attr-defined]
        if name in _WALL_CLOCK_CALLS:
            ctx.report(
                self,
                node,
                f"wall-clock call {name}(); library code must use the "
                "sim clock (Simulator.now)",
            )


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    """Bare ``except:`` or any handler catching (Base)Exception."""
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
        for t in types
    )


@register
class NoSilentExcept(Rule):
    """REF003 — never swallow broad exceptions silently.

    A ``except Exception:`` whose whole body is ``pass``/``continue``
    turns *every* bug — typos, broken invariants, API misuse — into a
    silent behaviour change (in routing: "no candidate found").  REFER's
    local fault recovery (Section III-C2) depends on failure causes
    staying distinguishable, so broad catches must either handle, log,
    re-raise, or be narrowed to the typed ``ReproError`` subclasses.
    """

    rule_id = "REF003"
    title = "no silent broad except"
    rationale = (
        "except Exception: pass hides real bugs; catch the typed "
        "repro.errors classes instead"
    )
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        handler = node  # type: ignore[assignment]
        if not _is_broad_handler(handler):
            return
        if all(
            isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in handler.body
        ):
            what = (
                "bare except:"
                if handler.type is None
                else "broad except"
            )
            ctx.report(
                self,
                handler,
                f"{what} with a body of only pass/continue silently "
                "swallows all errors; catch specific exception types",
            )


@register
class NoFloatLiteralEquality(Rule):
    """REF004 — no ``==``/``!=`` against float literals.

    Time, energy and link-quality values are accumulated floats;
    comparing them for exact equality with a literal (``remaining ==
    0.0``) is one rounding error away from a missed branch.  Use an
    ordering form (``<= 0.0``) or an explicit tolerance.
    """

    rule_id = "REF004"
    title = "no float-literal equality comparison"
    rationale = (
        "accumulated time/energy floats must be compared with "
        "orderings or tolerances, not == literal"
    )
    node_types = (ast.Compare,)

    def applies_to(self, ctx: RuleContext) -> bool:
        return not ctx.is_test_file

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        compare = node  # type: ignore[assignment]
        operands = [compare.left] + list(compare.comparators)
        for i, op in enumerate(compare.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (operands[i], operands[i + 1]):
                if isinstance(side, ast.Constant) and type(side.value) is float:
                    ctx.report(
                        self,
                        compare,
                        f"equality comparison against float literal "
                        f"{side.value!r}; use an ordering or tolerance",
                    )
                    return


@register
class NoMutableDefault(Rule):
    """REF005 — no mutable default arguments.

    A ``def f(acc=[])`` default is evaluated once and shared across
    every call; in a long-lived simulation that is cross-run state
    leakage.  Default to ``None`` and construct inside the body.
    """

    rule_id = "REF005"
    title = "no mutable default arguments"
    rationale = "shared mutable defaults leak state between calls/runs"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict"}

    def _is_mutable(self, default: ast.AST) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                ast.DictComp, ast.SetComp)):
            return True
        if isinstance(default, ast.Call):
            func = default.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            return name in self._MUTABLE_CALLS
        return False

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        args = node.args  # type: ignore[attr-defined]
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                ctx.report(
                    self,
                    default,
                    "mutable default argument; use None and construct "
                    "inside the function body",
                )


@register
class NoPrintInProtocolCode(Rule):
    """REF007 — protocol modules never ``print()``.

    A ``print()`` inside the simulation stack is observability by
    stdout: it interleaves with sweep progress output, cannot be
    filtered or capped, and tempts callers into parsing text that was
    never a contract.  Protocol code records what happened through the
    telemetry registry (counters, histograms) or the flight recorder;
    rendering is the job of the report/figure CLIs.
    """

    rule_id = "REF007"
    title = "no print() in protocol modules"
    rationale = (
        "protocol code must report through telemetry (registry, "
        "flight recorder), not stdout"
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: RuleContext) -> bool:
        return not ctx.is_test_file and (
            ctx.in_directory(
                "sim", "net", "core", "wsan", "chaos", "recovery",
                "kautz", "dht", "baselines", "telemetry", "qos",
            )
            or ctx.path.endswith("devtools/cover.py")
            # The divergence debugger's only stdout is the final
            # report/JSON verdict, suppressed at the emit site; any
            # other print() in its replay machinery is a bug.
            or ctx.path.endswith("devtools/divergence.py")
            # The campaign supervisor runs under sweep CLIs whose
            # stdout is the report; worker/journal progress goes
            # through SupervisorStats, never print().
            or ctx.path.endswith("experiments/parallel.py")
            or ctx.path.endswith("experiments/journal.py")
        )

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        func = node.func  # type: ignore[attr-defined]
        if isinstance(func, ast.Name) and func.id == "print":
            ctx.report(
                self,
                node,
                "print() in protocol code; record through the telemetry "
                "registry / flight recorder instead",
            )


#: File allowed to construct ``random.Random`` directly: the stream
#: factory itself.
_RNG_FACTORY_SUFFIX = "util/rng.py"


@register
class RngConstructedInFactoryOnly(Rule):
    """REF009 — ``random.Random`` is constructed in ``util/rng.py`` only.

    ``RngStreams`` only isolates subsystems if everybody goes through
    it: a ``random.Random(seed)`` constructed ad hoc is an unnamed
    stream no fork can reproduce and no trace can see.  ``from random
    import Random`` is refused with it — the bare name would escape the
    call pattern.  (Stream *names* are not checked: every
    ``streams.stream(...)`` call lives in ``run_scenario``, and a
    mistyped name is a different seed, which moves every pinned
    digest.)
    """

    rule_id = "REF009"
    title = "random.Random is constructed in util/rng.py only"
    rationale = (
        "an ad-hoc random.Random is a stream no fork reproduces and "
        "no trace sees; take one from RngStreams.stream(name)"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def applies_to(self, ctx: RuleContext) -> bool:
        return _is_library(ctx) and not ctx.path.endswith(_RNG_FACTORY_SUFFIX)

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        if isinstance(node, ast.ImportFrom):
            hit = (
                node.module == "random"
                and not node.level
                and any(alias.name == "Random" for alias in node.names)
            )
        else:
            func = node.func  # type: ignore[attr-defined]
            hit = dotted_name(func) == "random.Random"
        if hit:
            ctx.report(
                self,
                node,
                "random.Random constructed outside RngStreams; every "
                "generator must come from RngStreams.stream(name)",
            )


_IDENTITY_BUILTINS = ("id", "hash")


@register
class NoIdentityOrHash(Rule):
    """REF010 — no ``id()``/``hash()`` outside a ``__hash__`` body.

    ``id(obj)`` is the allocator's output and ``hash()`` of a ``str``
    is salted per process: stable within one interpreter, different in
    the next.  As a sort key, container key or comparison operand they
    make tie-breaks — and therefore event order, routing choices,
    anything downstream — irreproducible across processes, so the
    library does not call them at all; ``key=id`` / ``key=hash``
    (the builtin passed, not called) is refused with them.  The one
    legitimate use, combining fields inside ``__hash__``, stays legal.
    Key on the object's stable identity (``node.id``, ``cell.cid``) or
    use ``repro.util.hashing`` for content hashes.
    """

    rule_id = "REF010"
    title = "no id()/hash() outside __hash__, no key=id/key=hash"
    rationale = (
        "addresses and salted hashes differ per process; key and "
        "order objects by their stable ids (or util.hashing)"
    )

    def applies_to(self, ctx: RuleContext) -> bool:
        return _is_library(ctx)

    def finish(self, tree: ast.Module, ctx: RuleContext) -> None:
        # Own walk, not the driver's dispatch: the driver hands rules
        # nodes without their ancestry, and this one must not descend
        # into ``__hash__``.
        stack: List[ast.AST] = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef) and node.name == "__hash__":
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in _IDENTITY_BUILTINS:
                ctx.report(
                    self,
                    node,
                    f"{func.id}() outside __hash__; its value differs "
                    "per process — use the object's stable id",
                )
            for keyword in node.keywords:
                value = keyword.value
                if (
                    keyword.arg == "key"
                    and isinstance(value, ast.Name)
                    and value.id in _IDENTITY_BUILTINS
                ):
                    ctx.report(
                        self,
                        value,
                        f"key={value.id} orders by a per-process value; "
                        "use the object's stable id",
                    )


@register
class ExportsResolveAndDocumented(Rule):
    """REF006 — ``__all__`` entries must exist and be documented.

    An ``__all__`` naming something the module never defines makes
    ``from pkg import *`` raise at import time; an undocumented export
    is an API surface nobody explained.  Every entry must resolve to a
    top-level definition or import, and entries defined *in this module*
    as functions/classes must carry a docstring.  A module with a
    top-level ``__getattr__`` (PEP 562 lazy exports) may serve any
    name at attribute time, so unresolved entries are not flagged there.
    """

    rule_id = "REF006"
    title = "__all__ exports exist and are documented"
    rationale = (
        "stale __all__ breaks star-imports; exported defs/classes "
        "need docstrings"
    )

    def finish(self, tree: ast.Module, ctx: RuleContext) -> None:
        all_node = None
        exported = None
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "__all__"
                and isinstance(stmt.value, (ast.List, ast.Tuple))
            ):
                values = stmt.value.elts
                if all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in values
                ):
                    all_node = stmt
                    exported = [e.value for e in values]
        if exported is None:
            return
        lazy_exports = any(
            isinstance(stmt, ast.FunctionDef) and stmt.name == "__getattr__"
            for stmt in tree.body
        )
        defined: Set[str] = set()
        documented_defs: Set[str] = set()
        undocumented_defs: Set[str] = set()
        for stmt in tree.body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined.add(stmt.name)
                if ast.get_docstring(stmt):
                    documented_defs.add(stmt.name)
                else:
                    undocumented_defs.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            defined.add(name_node.id)
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    defined.add(stmt.target.id)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    defined.add(
                        alias.asname or alias.name.split(".")[0]
                    )
        for name in exported:
            if name not in defined:
                if lazy_exports:
                    continue
                ctx.report(
                    self,
                    all_node,
                    f"__all__ exports {name!r} which is never defined "
                    "or imported in this module",
                )
            elif name in undocumented_defs:
                ctx.report(
                    self,
                    all_node,
                    f"__all__ exports {name!r} but its definition has "
                    "no docstring",
                )
