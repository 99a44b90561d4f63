"""Package-level quality gates: docstrings, exports, imports, referlint.

Cheap meta-tests that keep the library presentable: every public
module documents itself, every ``__init__`` export actually resolves,
the package imports cleanly without side effects, the whole tree
passes the referlint invariant checks (``repro.devtools``), every
module is reached by a run, a CLI or a bench, and every config field is
set by one of them.
"""

import ast
import importlib
import pathlib
import pkgutil

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

    Lints ``src`` and ``tests`` with the full REFER rule pack and fails
    on any finding — so a planted violation (say, a raw
    ``random.random()`` call in ``src/repro/net/``) fails the suite,
    not just the CLI.
    """
    from repro.devtools import lint_paths

    findings = lint_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    assert findings == [], "referlint findings:\n" + "\n".join(
        f.format_text() for f in findings
    )


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
# edit that directory.  These go once that floor is lowered (ROADMAP 5c);
# the list is compared exactly, so it can only shrink.
AWAITING_DELETION = [
    "src/repro/kautz/debruijn.py",
    "src/repro/kautz/hamiltonian.py",
    "src/repro/kautz/paths.py",
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
