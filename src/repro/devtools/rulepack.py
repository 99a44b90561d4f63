"""The REFER rule pack: the invariants the type system cannot see.

Each rule is a function of one file's AST nodes, bucketed by exact type
(``nodes[ast.Call]`` is every call, ``nodes[ast.Module][0]`` the module
itself), that yields ``(node, message)`` for every violation.
:data:`RULES` lists them in id order, each with its scope, a plain
predicate on the file's path (:mod:`repro.devtools.rules`).  The ids are
stable — the allow-list and the docs name them — so rules are never
renumbered, only retired: REF008, REF011 and REF012 (hash-order flow
into scheduling, float sums over sets, wall-clock through helpers)
needed a taint engine that caught nothing the pinned digests did not,
and are gone (DESIGN.md, "What guards determinism"); REF000 ("file
parses") went when a file that does not parse began to raise.

Every rule matches one expression of one file.  Where the thing to
forbid is a *flow* — a clock value reaching sim code through a helper
— the rule's scope is widened until no flow needs tracking: the clock
may not be read anywhere under ``repro/``, so the helper itself is the
finding.
"""

import ast
from typing import DefaultDict, Iterator, List, Optional, Set, Tuple, Type

from repro.devtools.rules import (
    anywhere,
    library,
    library_but_package_init,
    library_but_rng_factory,
    not_tests,
    protocol_code,
)

#: One file's nodes by exact type, as the driver's single walk files them.
Nodes = DefaultDict[Type[ast.AST], List[ast.AST]]
#: What a rule yields: the node its finding is anchored at, and the message.
Hits = Iterator[Tuple[ast.AST, str]]


def dotted_name(node: ast.AST) -> Optional[str]:
    """The ``a.b.c`` form of an attribute chain, or ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _imported_from(
    nodes: Nodes, module: str
) -> Iterator[Tuple[ast.AST, str]]:
    """``(statement, name)`` per absolute ``from <module> import name``."""
    for node in nodes[ast.ImportFrom]:
        if node.module == module and not node.level:
            for alias in node.names:
                yield node, alias.name


def no_global_random(nodes: Nodes) -> Hits:
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
    for node, name in _imported_from(nodes, "random"):
        if name != "Random":
            yield node, (
                f"'from random import {name}' bypasses RngStreams; import "
                "the module and pass random.Random instances instead"
            )
    for node in nodes[ast.Call]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr != "Random"
        ):
            yield node, (
                f"call to global random.{func.attr}(); draw from a named "
                "RngStreams stream instead"
            )


#: The clock-reading names of :mod:`time`: refused as calls and as
#: ``from time import`` targets (``sleep`` and friends stay importable).
_TIME_CLOCK_NAMES = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
    "thread_time", "thread_time_ns", "clock_gettime", "clock_gettime_ns",
})

#: Host-clock entry points, in every spelling the codebase could import.
_WALL_CLOCK_CALLS = frozenset(
    {f"time.{name}" for name in _TIME_CLOCK_NAMES}
    | {
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    }
)


def no_wall_clock(nodes: Nodes) -> Hits:
    """REF002 — library code reads time from the sim clock only.

    Every timestamp under ``repro/`` must come from ``Simulator.now``:
    a single ``time.time()`` makes latency, deadlines and event
    ordering depend on the host machine and silently kills run-to-run
    reproducibility.  The scope is the whole library, not only the
    simulation packages, so a ``util/`` helper that returns the host
    clock is flagged where it is written rather than where simulation
    code calls it; ``from time import perf_counter`` is refused the way
    REF001 refuses ``from random import``, because the bare name would
    escape the call pattern.  (A deliberate host-clock read would be an
    entry of the driver's allow-list; there is none.)
    """
    for node, name in _imported_from(nodes, "time"):
        if name in _TIME_CLOCK_NAMES:
            yield node, (
                f"'from time import {name}' hides a wall-clock read behind "
                "a bare name; library code must use the sim clock "
                "(Simulator.now)"
            )
    for node in nodes[ast.Call]:
        name = dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS:
            yield node, (
                f"wall-clock call {name}(); library code must use the "
                "sim clock (Simulator.now)"
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


def no_silent_except(nodes: Nodes) -> Hits:
    """REF003 — never swallow broad exceptions silently.

    A ``except Exception:`` whose whole body is ``pass``/``continue``
    turns *every* bug — typos, broken invariants, API misuse — into a
    silent behaviour change (in routing: "no candidate found").  REFER's
    local fault recovery (Section III-C2) depends on failure causes
    staying distinguishable, so broad catches must either handle, log,
    re-raise, or be narrowed to the typed ``ReproError`` subclasses.
    """
    for handler in nodes[ast.ExceptHandler]:
        if _is_broad_handler(handler) and all(
            isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in handler.body
        ):
            what = "bare except:" if handler.type is None else "broad except"
            yield handler, (
                f"{what} with a body of only pass/continue silently "
                "swallows all errors; catch specific exception types"
            )


def no_float_literal_equality(nodes: Nodes) -> Hits:
    """REF004 — no ``==``/``!=`` against float literals.

    Time, energy and link-quality values are accumulated floats;
    comparing them for exact equality with a literal (``remaining ==
    0.0``) is one rounding error away from a missed branch.  Use an
    ordering form (``<= 0.0``) or an explicit tolerance.  One finding
    per comparison, naming its first such literal.
    """
    for compare in nodes[ast.Compare]:
        operands = [compare.left, *compare.comparators]
        literals = (
            side.value
            for op, left, right in zip(compare.ops, operands, operands[1:])
            if isinstance(op, (ast.Eq, ast.NotEq))
            for side in (left, right)
            if isinstance(side, ast.Constant) and type(side.value) is float
        )
        literal = next(literals, None)
        if literal is not None:
            yield compare, (
                f"equality comparison against float literal {literal!r}; "
                "use an ordering or tolerance"
            )


_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})


def _is_mutable(default: ast.AST) -> bool:
    if isinstance(default, _MUTABLE_LITERALS):
        return True
    if isinstance(default, ast.Call):
        func = default.func
        if isinstance(func, ast.Name):
            return func.id in _MUTABLE_CALLS
        return isinstance(func, ast.Attribute) and func.attr in _MUTABLE_CALLS
    return False


def no_mutable_default(nodes: Nodes) -> Hits:
    """REF005 — no mutable default arguments.

    A ``def f(acc=[])`` default is evaluated once and shared across
    every call; in a long-lived simulation that is cross-run state
    leakage.  Default to ``None`` and construct inside the body.
    """
    for kind in (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda):
        for function in nodes[kind]:
            args = function.args
            for default in [*args.defaults, *args.kw_defaults]:
                if default is not None and _is_mutable(default):
                    yield default, (
                        "mutable default argument; use None and construct "
                        "inside the function body"
                    )


def exports_resolve_and_documented(nodes: Nodes) -> Hits:
    """REF006 — ``__all__`` entries must exist and be documented.

    An ``__all__`` naming something the module never defines makes
    ``from pkg import *`` raise at import time; an undocumented export
    is an API surface nobody explained.  Every entry must resolve to a
    top-level definition or import, and entries defined *in this module*
    as functions/classes must carry a docstring.  A module with a
    top-level ``__getattr__`` (PEP 562 lazy exports) may serve any
    name at attribute time, so unresolved entries are not flagged there.
    A computed ``__all__`` cannot be checked and is ignored.
    """
    body = nodes[ast.Module][0].body
    all_node = None
    exported: List[str] = []
    for stmt in body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "__all__"
            and isinstance(stmt.value, (ast.List, ast.Tuple))
            and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in stmt.value.elts
            )
        ):
            all_node = stmt
            exported = [e.value for e in stmt.value.elts]
    if all_node is None:
        return
    lazy_exports = any(
        isinstance(stmt, ast.FunctionDef) and stmt.name == "__getattr__"
        for stmt in body
    )
    defined: Set[str] = set()
    undocumented: Set[str] = set()
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
            if not ast.get_docstring(stmt):
                undocumented.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            defined.update(
                name.id
                for target in stmt.targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            defined.add(stmt.target.id)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            defined.update(
                alias.asname or alias.name.split(".")[0]
                for alias in stmt.names
                if alias.name != "*"
            )
    for name in exported:
        if name not in defined and not lazy_exports:
            yield all_node, (
                f"__all__ exports {name!r} which is never defined or "
                "imported in this module"
            )
        elif name in undocumented:
            yield all_node, (
                f"__all__ exports {name!r} but its definition has no "
                "docstring"
            )


def no_print(nodes: Nodes) -> Hits:
    """REF007 — protocol modules never ``print()``.

    A ``print()`` inside the simulation stack is observability by
    stdout: it interleaves with sweep progress output, cannot be
    filtered or capped, and tempts callers into parsing text that was
    never a contract.  Protocol code records what happened through the
    telemetry registry (counters, histograms) or the flight recorder;
    rendering is the job of the report/figure CLIs.  Only the builtin
    name is matched, not ``obj.print()``.
    """
    for node in nodes[ast.Call]:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield node, (
                "print() in protocol code; record through the telemetry "
                "registry / flight recorder instead"
            )


_FACTORY_MESSAGE = (
    "random.Random constructed outside RngStreams; every generator must "
    "come from RngStreams.stream(name)"
)


def random_from_factory_only(nodes: Nodes) -> Hits:
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
    for node, name in _imported_from(nodes, "random"):
        if name == "Random":
            yield node, _FACTORY_MESSAGE
    for node in nodes[ast.Call]:
        if dotted_name(node.func) == "random.Random":
            yield node, _FACTORY_MESSAGE


_IDENTITY_BUILTINS = ("id", "hash")


def no_identity_or_hash(nodes: Nodes) -> Hits:
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
    inside_hash = {
        node
        for function in nodes[ast.FunctionDef]
        if function.name == "__hash__"
        for node in ast.walk(function)
    }
    for call in nodes[ast.Call]:
        if call in inside_hash:
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id in _IDENTITY_BUILTINS:
            yield call, (
                f"{func.id}() outside __hash__; its value differs per "
                "process — use the object's stable id"
            )
        for keyword in call.keywords:
            value = keyword.value
            if (
                keyword.arg == "key"
                and isinstance(value, ast.Name)
                and value.id in _IDENTITY_BUILTINS
            ):
                yield value, (
                    f"key={value.id} orders by a per-process value; use "
                    "the object's stable id"
                )


def no_unused_import(nodes: Nodes) -> Hits:
    """REF013 — every module-level import of library code is used.

    The package's keep rules follow import statements
    (``test_every_module_is_reached_by_a_run_a_cli_or_a_bench``), so
    an import nothing reads can make an unreached module look reached.
    A name counts as used when it is read anywhere in the module or
    named in ``__all__``; one only quoted in a string annotation is
    not read (unquote it: the modules import ``annotations`` from
    ``__future__``).  ``__init__.py`` is out of scope: its imports are
    the package's re-exports.
    """
    used = {node.id for node in nodes[ast.Name]}
    for stmt in nodes[ast.Module][0].body:
        if (
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in stmt.targets
            )
        ):
            used.update(
                element.value
                for element in ast.walk(stmt.value)
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            )
    for stmt in nodes[ast.Module][0].body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and name not in used:
                yield stmt, f"{name!r} is imported but never used"


#: Every rule, in id order: ``(rule id, scope, check)``.
RULES = (
    ("REF001", not_tests, no_global_random),
    ("REF002", library, no_wall_clock),
    ("REF003", anywhere, no_silent_except),
    ("REF004", not_tests, no_float_literal_equality),
    ("REF005", anywhere, no_mutable_default),
    ("REF006", anywhere, exports_resolve_and_documented),
    ("REF007", protocol_code, no_print),
    ("REF009", library_but_rng_factory, random_from_factory_only),
    ("REF010", library, no_identity_or_hash),
    ("REF013", library_but_package_init, no_unused_import),
)
