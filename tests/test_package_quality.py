"""Package-level quality gates: docstrings, exports, imports, referlint.

Cheap meta-tests that keep the library presentable: every public
module documents itself, every ``__init__`` export actually resolves,
the package imports cleanly without side effects, and the whole tree
passes the referlint invariant checks (``repro.devtools``).
"""

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
