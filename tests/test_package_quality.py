"""Package-level quality gates: docstrings, exports, imports, referlint.

Cheap meta-tests that keep the library presentable: every public
module documents itself, every ``__init__`` export actually resolves,
the package imports cleanly without side effects, the whole tree
passes the referlint invariant checks (``repro.devtools``), every
module is reached by a run, a CLI or a bench, every config field and
every parameter default is set by one of them, every definition is
used by name, and the reference docs stay within their size budget
and name only paths and sections that exist.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
    if "__main__" not in name
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 20, (
        f"{module_name} docstring is too thin"
    )


@pytest.mark.parametrize(
    "package_name",
    [
        "repro.util",
        "repro.kautz",
        "repro.sim",
        "repro.net",
        "repro.dht",
        "repro.wsan",
        "repro.core",
        "repro.baselines",
        "repro.experiments",
        "repro.viz",
        "repro.devtools",
        "repro.chaos",
        "repro.recovery",
        "repro.telemetry",
        "repro.qos",
    ],
)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_version_exposed():
    assert repro.__version__


def test_no_module_requires_third_party_runtime_deps():
    """The runtime library must import with the stdlib alone."""
    import sys

    banned = ("numpy", "scipy", "networkx", "matplotlib")
    for module_name in MODULES:
        importlib.import_module(module_name)
    loaded = [b for b in banned if b in sys.modules]
    assert not loaded, f"runtime package imported {loaded}"


def test_referlint_reports_zero_new_findings():
    """The repo-cleanliness gate: the tree passes its own linter.

    Lints the four trees the keep rules below scan with every rule and
    fails unless the findings are exactly the allow-list's
    (``repro.devtools.driver.ALLOWED``, compared per file and rule) —
    so a planted violation (say, a raw ``random.random()`` call in
    ``src/repro/net/``) fails the suite, and so does an allowed site
    that went away, even with its whole file.
    """
    from repro.devtools.driver import ALLOWED, DEFAULT_PATHS, lint_paths

    problems = lint_paths([str(REPO_ROOT / top) for top in DEFAULT_PATHS])
    assert problems == [], "referlint:\n" + "\n".join(problems)
    gone = [suffix for suffix, _ in ALLOWED if not (SRC / suffix).is_file()]
    assert not gone, f"allow-list names files that are gone: {gone}"


def test_public_classes_have_docstrings():
    import inspect

    undocumented = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isclass(obj) and obj.__module__ == module_name:
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}")
    assert not undocumented, f"undocumented classes: {undocumented}"


SRC = REPO_ROOT / "src"


def _module_file(dotted):
    """The file ``import <dotted>`` runs, or None outside ``src/repro``."""
    base = SRC.joinpath(*dotted.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _imported_files(path):
    """Files the ``import`` statements of ``path`` run (AST only).

    Importing ``a.b.c`` runs ``a``, ``a.b`` and ``a.b.c``;
    ``from a.b import c`` also runs ``a.b.c`` when that is a module.
    The tree has no relative imports (asserted, so one cannot hide).
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path}"
            targets = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for dotted in targets:
            parts = dotted.split(".")
            for depth in range(1, len(parts) + 1):
                found.add(_module_file(".".join(parts[:depth])))
    found.discard(None)
    return found


# Unreached and known: ``benchmarks/e2e``'s self-test asserts more than
# 100 files under ``src/repro`` and a PR that deletes modules may not
# edit that directory.  These go once that floor is lowered
# (ROADMAP 4(ii)); the list is compared exactly, so it can only shrink.
AWAITING_DELETION = [
    "src/repro/kautz/debruijn.py",
    "src/repro/kautz/hamiltonian.py",
    "src/repro/viz/__init__.py",
    "src/repro/viz/svg.py",
]


def test_every_module_is_reached_by_a_run_a_cli_or_a_bench():
    """The keep rule of ``src/repro``: a module stays only if
    ``run_scenario``, a CLI (``repro.experiments``,
    ``repro.telemetry.report``, ``repro.devtools.*``) or a
    ``benchmarks/*.py`` imports it, directly or through what it imports.
    """
    package = SRC / "repro"
    pending = [
        package / "experiments" / "runner.py",
        package / "experiments" / "__main__.py",
        package / "telemetry" / "report.py",
        *sorted((package / "devtools").glob("*.py")),
        *sorted((REPO_ROOT / "benchmarks").glob("*.py")),
    ]
    reached = set()
    while pending:
        path = pending.pop()
        if path not in reached:
            reached.add(path)
            pending.extend(_imported_files(path))
    unreached = sorted(
        path.relative_to(REPO_ROOT).as_posix()
        for path in package.rglob("*.py")
        if path not in reached
    )
    assert unreached == AWAITING_DELETION, (
        "no run, CLI or bench reaches:\n" + "\n".join(unreached)
    )


def _passes_through(keyword):
    """``x=obj.x``: a keyword that forwards a value somebody else set."""
    value = keyword.value
    return isinstance(value, ast.Attribute) and value.attr == keyword.arg


def test_every_config_field_is_set_by_some_caller():
    """A value stays settable only if a run, a CLI or a bench sets it:
    every field of every ``*Config`` dataclass and of ``FaultSpec`` is
    set somewhere in ``src`` or ``benchmarks`` outside the file that
    defines it.  Tests and examples do not count as callers, and
    neither does a pass-through keyword (``x=obj.x``).  A setter is a
    call keyword or a string key of a dict literal (``workloads.py``
    passes ``packet_bytes`` through such a dict).  A field nobody sets
    is a module constant.

    The match is on the keyword's name alone, whatever the callee:
    ``PeriodicProcess(period=...)`` would satisfy ``FaultConfig.period``
    and ``QosManager``'s ``admission=`` a ``QosConfig.admission``, so a
    never-set field with a common name passes (those two were removed
    by hand).  Matching on the callee instead would miss the setters
    that hide it (``ScenarioConfig(**{field: value})``,
    ``with_(**overrides)``) and name fields that are set."""
    fields = {}
    setters = {}
    for top in ("src", "benchmarks"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    names = [
                        keyword.arg
                        for keyword in node.keywords
                        if not _passes_through(keyword)
                    ]
                elif isinstance(node, ast.Dict):
                    names = [
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant)
                    ]
                elif (
                    top == "src"
                    and isinstance(node, ast.ClassDef)
                    and (
                        node.name.endswith("Config")
                        or node.name == "FaultSpec"
                    )
                ):
                    for item in node.body:
                        if isinstance(item, ast.AnnAssign):
                            fields[node.name, item.target.id] = path
                    continue
                else:
                    continue
                for name in names:
                    setters.setdefault(name, set()).add(path)
    assert len(fields) > 30, "the scan lost the config classes"
    unset = sorted(
        f"{owner}.{field}"
        for (owner, field), home in fields.items()
        if not setters.get(field, set()) - {home}
    )
    assert not unset, "fields no run, CLI or bench sets:\n" + "\n".join(unset)


def _python_files(*tops):
    for top in tops:
        yield from sorted((REPO_ROOT / top).rglob("*.py"))


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


class _NameScan(ast.NodeVisitor):
    """The definitions in a set of files and the names their code uses.

    A use is a name, an attribute or a string constant, recorded with
    the definitions around it, so a recursive call or a docstring does
    not reach its own definition.  An ``__all__`` list records nothing,
    and neither does an import (its aliases are not names).  A
    decorator belongs to the scope around its definition.
    """

    def __init__(self):
        #: (path from the repo root, dotted name, node), in file order.
        self.definitions = []
        #: name -> the definitions around each of its uses.
        self.uses = {}
        self._path = ""
        self._enclosing = []

    def scan(self, path):
        self._path = path.relative_to(REPO_ROOT).as_posix()
        self.visit(ast.parse(path.read_text(encoding="utf-8")))

    def _define(self, node):
        for decorator in node.decorator_list:
            self.visit(decorator)
        dotted = ".".join([d.name for d in self._enclosing] + [node.name])
        self.definitions.append((self._path, dotted, node))
        self._enclosing.append(node)
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:
                self.visit(child)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _use(self, name, node):
        self.uses.setdefault(name, []).append(tuple(self._enclosing))
        self.generic_visit(node)

    def visit_Name(self, node):
        self._use(node.id, node)

    def visit_Attribute(self, node):
        self._use(node.attr, node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._use(node.value, node)

    def visit_Assign(self, node):
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            self.generic_visit(node)

    def reached(self, node):
        """Whether ``node``'s name is used outside ``node`` itself."""
        return any(
            node not in enclosing for enclosing in self.uses.get(node.name, ())
        )


def _library_definitions(scan):
    """``(key, node)`` of every definition under ``src/repro`` the keep
    rules apply to: those outside the ``AWAITING_DELETION`` files."""
    for path, dotted, node in scan.definitions:
        if path.startswith("src/repro/") and path not in AWAITING_DELETION:
            yield f"{path}::{dotted}", node


# Unreached and kept: each definition here is used only by the test
# named beside it (an oracle, a debugging aid, or a checker the
# invariant checker of ROADMAP item 2a is to call).  The list is
# compared exactly, here by name and in ``tests/keep_at_run_time.py``
# by execution, so it can only shrink; a definition the tests need no
# more is deleted, not left here.
KEPT_FOR_TESTS = {
    "src/repro/core/cell.py::EmbeddedCell.is_complete":
        "tests/core/test_embedding.py::TestEmbeddingProtocol",
    "src/repro/experiments/workload.py::expected_pareto_duration":
        "tests/qos/test_workload_properties.py::TestParetoCalibration",
    "src/repro/kautz/disjoint.py::predicted_length_accuracy":
        "tests/kautz/test_disjoint_properties.py"
        "::test_realised_lengths_follow_closed_forms",
    "src/repro/kautz/graph.py::KautzGraph.bfs_distance":
        "tests/kautz/test_namespace.py::TestDistanceAgainstBfs",
    "src/repro/kautz/namespace.py::shortest_path":
        "tests/kautz/test_properties.py"
        "::test_shortest_path_is_the_greedy_path",
    "src/repro/net/energy.py::EnergyLedger.grand_total":
        "tests/net/test_energy_handles.py"
        "::test_held_handles_match_per_call_lookup",
    "src/repro/telemetry/flight.py::Journey.hop_spans":
        "tests/telemetry/test_flight.py::TestSpanCausality",
    "src/repro/telemetry/flight.py::Journey.tx_nodes":
        "tests/telemetry/test_flight.py::TestSpanCausality",
}


# Used by name, but executed by no product entry point: each
# definition here runs only in the test or CI step named beside it,
# which is why it stays.  ``tests/keep_at_run_time.py`` (a CI step)
# traces the entry points and compares the definitions none of them
# runs with this dict and ``KEPT_FOR_TESTS``, exactly, so the dict can
# only shrink.
EXECUTED_ONLY_BY_TESTS = {
    "src/repro/core/cell.py::EmbeddedCell.sensor_member_ids":
        "tests/core/test_routing.py::TestSendToActuator: 36 test sites "
        "pick a sensor member with it, and viz/svg.py (awaiting "
        "deletion) draws them",
    "src/repro/core/embedding.py::EmbeddingProtocol._place_vertex.at":
        "tests/core/test_embedding.py::TestEmbeddingProtocol"
        "::test_higher_degree_breaks_no_more_edges_than_before: the "
        "centroid fallback when no candidate carries a frame on any edge",
    "src/repro/core/routing.py::ReferRouter._next_tier_actuator"
    ".cid_distance":
        "tests/core/test_routing.py::TestSendToReferId"
        "::test_an_unrealisable_can_step_falls_back_to_cell_distance: "
        "the greedy cell-space fallback of the actuator tier",
    "src/repro/devtools/divergence.py::_run_in_worker":
        "CI 'Baseline traces are the same in a spawned interpreter' and "
        "tests/devtools/test_divergence.py: it runs in the spawned "
        "process",
    "src/repro/devtools/findings.py::Finding.format_text":
        "tests/devtools/test_cli.py::TestFormats: the linter prints a "
        "finding only when the tree has one",
    "src/repro/dht/can.py::CanOverlay.nodes":
        "tests/dht/test_can.py::TestNeighborsRouting::test_route_reaches_owner "
        "and "
        "tests/dht/test_can_stateful.py: the overlay's members, which "
        "the churn tests enumerate",
    "src/repro/experiments/journal.py::CampaignJournal._corrupt":
        "tests/experiments/test_journal.py::TestTornTail"
        "::test_corrupt_middle_line_raises: the refusal of a damaged "
        "journal",
    "src/repro/experiments/parallel.py::_die_with_parent":
        "CI 'Parallel campaign smoke' and tests/experiments/"
        "test_parallel.py::TestRealWorkerPool: it runs in each spawned "
        "pool worker",
    "src/repro/experiments/parallel.py::_die_with_parent.watch":
        "CI 'Parallel campaign smoke': the pool worker's watch thread",
    "src/repro/experiments/resilience.py::ResilienceResult.cell":
        "benchmarks/bench_resilience_recovery.py reads it after its "
        "shape asserts, which fail at this check's small size",
    "src/repro/kautz/disjoint.py::_bfs_avoiding":
        "tests/kautz/test_disjoint.py"
        "::TestDegenerateLabels::test_known_fallback_pair_routes_through_bfs:"
        " the fallback "
        "when two closed-form paths collide",
    "src/repro/kautz/graph.py::KautzGraph._require":
        "tests/kautz/test_namespace.py::TestDistanceAgainstBfs: the "
        "membership check of the bfs_distance oracle",
    "src/repro/kautz/graph.py::KautzGraph.diameter":
        "tests/kautz/test_properties.py and kautz/hamiltonian.py "
        "(awaiting deletion)",
    "src/repro/kautz/strings.py::KautzString.__reduce__":
        "CI 'Parallel campaign smoke' and tests/kautz/test_strings.py"
        "::TestOneObjectPerLabel: a label pickled for a pool worker",
    "src/repro/qos/mac.py::MacQosScheduler._shed":
        "tests/qos/test_scheduler.py::TestRefusal::test_full_lane_is_shed:"
        " the refusal of a frame its lane cannot hold",
    "src/repro/recovery/healer.py::CanHealer.next_hop":
        "tests/recovery/test_healer.py::TestCanHealer"
        "::test_next_hop_routes_toward_key (ROADMAP 18)",
    "src/repro/sim/core.py::Simulator.run":
        "tests/sim/test_core.py::TestClock: the scheduler's unit tests "
        "drain the queue with it at 42 call sites; every run uses "
        "run_until",
    "src/repro/telemetry/flight.py::FlightRecorder.retransmitted":
        "tests/telemetry/test_flight.py"
        "::test_a_source_retransmission_links_the_two_journeys: a "
        "baseline's source retransmission with telemetry on",
    "src/repro/telemetry/tracing.py::action_label":
        "tests/telemetry/test_tracing.py::TestActionLabel"
        "::test_partial_unwraps: a traced callback without a "
        "__qualname__",
}


def test_every_definition_is_reached_by_name():
    """The keep rule of ``src/repro``, down to definitions: a function,
    method, property or class stays only if its name is used, outside
    its own definition, as a name, an attribute or a string constant in
    ``src``, ``benchmarks`` or ``examples`` (CI runs the examples).
    ``__all__`` entries and imports do not count, and dunders are
    exempt.

    The match is on the name alone, whatever the owner: a ``reset``
    method is reached by any ``.reset`` anywhere.  So an unreached
    method whose name another class shares passes; the rule finds
    names nothing calls, not every dead method."""
    scan = _NameScan()
    for path in _python_files("src", "benchmarks", "examples"):
        scan.scan(path)
    unreached = sorted(
        key
        for key, node in _library_definitions(scan)
        if not _dunder(node.name) and not scan.reached(node)
    )
    assert len(scan.definitions) > 500, "the scan lost the definitions"
    assert unreached == sorted(KEPT_FOR_TESTS), (
        "unreached, not kept: "
        + ", ".join(sorted(set(unreached) - set(KEPT_FOR_TESTS)))
        + "\nkept, but reached or gone: "
        + ", ".join(sorted(set(KEPT_FOR_TESTS) - set(unreached)))
    )


class _CallScan(ast.NodeVisitor):
    """Every call in a set of files, by the name of its callee.

    ``f(...)`` and ``obj.f(...)`` call ``f``; inside class ``C``,
    ``cls(...)`` calls ``C`` and ``super().__init__(...)`` calls each
    of ``C``'s bases.  Also records every class's bases and whether it
    defines ``__init__``, to resolve inherited constructors."""

    def __init__(self):
        self.calls = {}
        #: class name -> (base names, defines ``__init__``).
        self.classes = {}
        self._class = None

    def scan(self, path):
        self.visit(ast.parse(path.read_text(encoding="utf-8")))

    def visit_ClassDef(self, node):
        bases = [
            base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))
        ]
        defines_init = any(
            isinstance(item, ast.FunctionDef) and item.name == "__init__"
            for item in node.body
        )
        self.classes[node.name] = (bases, defines_init)
        outer, self._class = self._class, node
        self.generic_visit(node)
        self._class = outer

    def visit_Call(self, node):
        func = node.func
        names = []
        if isinstance(func, ast.Name):
            if func.id == "cls" and self._class is not None:
                names = [self._class.name]
            else:
                names = [func.id]
        elif isinstance(func, ast.Attribute):
            names = [func.attr]
            inner = func.value
            if (
                func.attr == "__init__"
                and self._class is not None
                and isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "super"
            ):
                names = self.classes[self._class.name][0]
        for name in names:
            self.calls.setdefault(name, []).append(node)
        self.generic_visit(node)

    def constructors(self, class_name):
        """The names that run ``class_name.__init__``: the class and
        every subclass that inherits its constructor."""
        names, pending = set(), [class_name]
        while pending:
            name = pending.pop()
            names.add(name)
            pending.extend(
                sub
                for sub, (bases, defines_init) in self.classes.items()
                if name in bases and not defines_init and sub not in names
            )
        return names


def _defaulted(function, method):
    """``(name, position)`` of each defaulted parameter of ``function``;
    keyword-only ones have no position, and a method's ``self`` or
    ``cls`` takes none."""
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in function.decorator_list
    )
    if method and not static:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    defaulted = [
        (arg.arg, index)
        for index, arg in enumerate(positional)
        if index >= first
    ]
    defaulted += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return defaulted


def _passes(call, name, position):
    """Whether ``call`` sets parameter ``name`` (at ``position``)."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return position is not None and position >= index
        if index == position:
            return True
    return False


def test_every_parameter_default_is_overridden_by_some_caller():
    """The field rule of PR 25, down to parameters: a defaulted
    parameter of a function, method or constructor under ``src/repro``
    stays only if some call of that callee in ``src`` or ``benchmarks``
    passes it — by keyword (a pass-through ``x=obj.x`` counts), by
    position, or through ``*`` / ``**``.  A value only a test varies is
    a module constant the test monkeypatches.

    Callees are matched by name, like the field rule: a call of any
    ``f`` or ``obj.f`` counts for every ``f``.  Exempt: dunders other
    than ``__init__`` (the interpreter calls them) and the definitions
    on ``KEPT_FOR_TESTS``, whose only callers are tests.  The seams a
    test substitutes a fake through (``work=``, ``registry=``) need no
    exemption: runs pass them too."""
    definitions, calls = _NameScan(), _CallScan()
    for path in _python_files("src", "benchmarks"):
        definitions.scan(path)
        calls.scan(path)
    owners = {}
    for _, _, node in definitions.definitions:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                owners[item] = node
    unset = []
    for key, node in _library_definitions(definitions):
        if not isinstance(node, ast.FunctionDef) or key in KEPT_FOR_TESTS:
            continue
        owner = owners.get(node)
        if _dunder(node.name) and not (owner and node.name == "__init__"):
            continue
        if node.name == "__init__":
            callees = calls.constructors(owner.name)
        else:
            callees = {node.name}
        callers = [call for name in callees for call in calls.calls.get(name, ())]
        for name, position in _defaulted(node, owner is not None):
            if not any(_passes(call, name, position) for call in callers):
                unset.append(f"{key}({name})")
    assert len(definitions.definitions) > 500, "the scan lost the definitions"
    assert not unset, "defaults no run, CLI or bench overrides:\n" + "\n".join(
        unset
    )


def test_only_the_simulator_loop_writes_the_clock():
    """``Simulator.now`` is a plain attribute that only the loop in
    ``src/repro/sim/core.py`` may write: nothing else under
    ``src/repro`` assigns, deletes or ``setattr``\\ s an attribute
    named ``now``."""
    writers = []
    for path in _python_files("src"):
        name = path.relative_to(REPO_ROOT).as_posix()
        if name == "src/repro/sim/core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            stored = (
                isinstance(node, ast.Attribute)
                and node.attr == "now"
                and not isinstance(node.ctx, ast.Load)
            )
            set_by_name = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "now"
            )
            if stored or set_by_name:
                writers.append(f"{name}:{node.lineno}")
    assert not writers, "the clock is written outside the loop:\n" + "\n".join(
        writers
    )


#: Bytes each reference document may hold.  A document that grows past
#: its budget fails here: trim it, or raise the number in a reviewed
#: edit.
DOC_BUDGET_BYTES = {
    "docs/API.md": 39600,
    "DESIGN.md": 35050,
    "EXPERIMENTS.md": 28700,
}


@pytest.mark.parametrize("name", sorted(DOC_BUDGET_BYTES))
def test_reference_docs_stay_within_budget(name):
    budget = DOC_BUDGET_BYTES[name]
    size = (REPO_ROOT / name).stat().st_size
    assert size <= budget, (
        f"{name} is {size} bytes, over its budget of {budget}"
    )


#: The documents whose paths and section references must resolve.
REFERENCE_DOCS = (
    "README.md", "CONTRIBUTING.md", "docs/API.md", "DESIGN.md",
    "EXPERIMENTS.md",
)
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_REPO_PATH = re.compile(
    r"(?<![\w/.-])(?:src|tests|benchmarks|examples)/[\w./*-]*"
)
#: A quoted heading, or the start of one, right after the document
#: that holds it (``NAME.md "Heading"``, ``NAME.md, "Heading"``,
#: ``rows 9–11 of NAME.md's table "Heading"``).
_SECTION_REF = re.compile(
    r"(?:[Rr]ows? (\d+)(?:[–-](\d+))? of )?"
    r"\b((?:docs/)?API|DESIGN|EXPERIMENTS|README|CONTRIBUTING)\.md"
    r"(?:'s table)?,? \(?\"([^\"]+)\""
)


def _sections(doc):
    """``heading -> the text under it`` of one document, fences cut."""
    text = _FENCE.sub("", (REPO_ROOT / doc).read_text(encoding="utf-8"))
    parts = re.split(r"^#+[ \t]+(.*)$", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def test_reference_docs_name_what_exists():
    """Every backticked repo path in the reference docs exists, and
    every quoted section reference in them, in ``src/`` and in
    ``tests/`` names an existing heading (its start is enough) — with
    the table rows it cites, where it cites rows."""
    missing = []
    for doc in REFERENCE_DOCS:
        text = _FENCE.sub("", (REPO_ROOT / doc).read_text(encoding="utf-8"))
        for span in _SPAN.findall(text):
            for path in _REPO_PATH.findall(span):
                found = (
                    any(REPO_ROOT.glob(path)) if "*" in path
                    else (REPO_ROOT / path).exists()
                )
                if not found:
                    missing.append(f"{doc}: `{path}` does not exist")
    sections = {doc: _sections(doc) for doc in REFERENCE_DOCS}
    readers = [REPO_ROOT / doc for doc in REFERENCE_DOCS]
    readers += list(_python_files("src", "tests"))
    references = 0
    for reader in readers:
        # Join wrapped lines, and the comment markers that wrap them.
        text = re.sub(
            r"\s*\n\s*(?:#\s*)?", " ", reader.read_text(encoding="utf-8")
        )
        name = reader.relative_to(REPO_ROOT).as_posix()
        for first, last, doc, quoted in _SECTION_REF.findall(text):
            references += 1
            doc = "docs/API.md" if doc.endswith("API") else f"{doc}.md"
            under = [
                body for heading, body in sections[doc].items()
                if heading.startswith(quoted)
            ]
            if not under:
                missing.append(f"{name}: {doc} has no section {quoted!r}")
                continue
            rows = range(int(first), int(last or first) + 1) if first else ()
            for row in rows:
                if not re.search(rf"^\| {row} \|", under[0], re.M):
                    missing.append(
                        f"{name}: {doc} {quoted!r} has no row {row}"
                    )
    assert not missing, "\n".join(missing)
    assert references >= 8, "the scan lost the section references"
