"""Rule base class, registry and the per-file :class:`RuleContext`.

A rule is a small object that inspects AST nodes (and, optionally, the
whole module) and reports :class:`~repro.devtools.findings.Finding`\\ s
through its context.  Rules declare which node types they care about so
the driver can parse each file **once** and dispatch every node to every
interested rule in a single walk.

Registering a rule is one decorator::

    @register
    class NoFrobnication(Rule):
        rule_id = "REF099"
        title = "no frobnication"
        rationale = "frobnication breaks determinism"
        node_types = (ast.Call,)

        def visit(self, node, ctx):
            ...
            ctx.report(self, node, "frobnicate() called")
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Tuple, Type

from repro.devtools.findings import ERROR, Finding


def is_test_path(path: str) -> bool:
    """Whether ``path`` is a test file (relaxed rule scope)."""
    parts = PurePosixPath(path.replace("\\", "/")).parts
    name = parts[-1] if parts else ""
    return (
        "tests" in parts
        or name.startswith("test_")
        or name == "conftest.py"
    )

#: The global registry, keyed by rule id.  Populated by :func:`register`
#: (the built-in pack lives in :mod:`repro.devtools.rulepack`).
REGISTRY: Dict[str, Type["Rule"]] = {}


def register(rule_class: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to the global registry."""
    rule_id = rule_class.rule_id
    if not rule_id:
        raise ValueError(f"{rule_class.__name__} lacks a rule_id")
    existing = REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule id {rule_id}")
    REGISTRY[rule_id] = rule_class
    return rule_class


def all_rules() -> List["Rule"]:
    """Fresh instances of every registered rule, sorted by id."""
    # Importing the pack here (not at module import) keeps the registry
    # mechanism independent of the built-in rules.
    from repro.devtools import rulepack  # noqa: F401  (registers)

    return [REGISTRY[rule_id]() for rule_id in sorted(REGISTRY)]


class RuleContext:
    """Per-file state shared by every rule during one driver pass."""

    def __init__(self, path: str, source: str) -> None:
        #: Normalised (posix-separator) path of the file under lint.
        self.path = str(PurePosixPath(*PurePosixPath(path.replace("\\", "/")).parts))
        self.source = source
        self.lines = source.splitlines()
        self.findings: List[Finding] = []
        parts = PurePosixPath(self.path).parts
        self._parts = frozenset(parts)
        #: Test files opt out of the library-only rules (tests assert
        #: exact floats on purpose and may drive RNGs directly).
        self.is_test_file = is_test_path(self.path)

    def in_directory(self, *names: str) -> bool:
        """Whether any path component matches one of ``names``."""
        return any(name in self._parts for name in names)

    def report(self, rule: "Rule", node: ast.AST, message: str) -> None:
        """Record a finding for ``rule`` anchored at ``node``."""
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=rule.rule_id,
                message=message,
                severity=rule.severity,
            )
        )


class Rule:
    """Base class for referlint rules.

    Subclasses set the class attributes and implement :meth:`visit`
    (called for every node whose type is in :attr:`node_types`) and/or
    :meth:`finish` (called once per file with the full tree — for
    whole-module invariants such as ``__all__`` consistency).
    """

    #: Stable identifier, ``REFnnn``.
    rule_id: str = ""
    #: One-line summary used by ``--list-rules`` and the docs table.
    title: str = ""
    #: Why the invariant matters (shown by ``--list-rules``).
    rationale: str = ""
    #: Severity of every finding this rule emits.
    severity: str = ERROR
    #: AST node classes this rule wants to see; empty = finish-only rule.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, ctx: RuleContext) -> bool:
        """Whether this rule runs on ``ctx.path`` (default: every file)."""
        return True

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        """Inspect one node of an interesting type."""

    def finish(self, tree: ast.Module, ctx: RuleContext) -> None:
        """Whole-module pass after the walk (optional)."""


def dotted_name(node: ast.AST) -> Optional[str]:
    """The ``a.b.c`` form of an attribute chain, or ``None``.

    Shared helper for rules matching calls like ``time.time()`` or
    ``datetime.datetime.now()``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
