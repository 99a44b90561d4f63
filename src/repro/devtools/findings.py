"""The :class:`Finding` value type produced by every referlint rule.

A finding is one rule violation at one source location.  Findings are
immutable and orderable (by path, then line, then column, then rule id
— the order the CLI prints them in).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Severity levels, mirroring the usual compiler vocabulary.  Errors
#: fail the build; warnings are reported but (by themselves) keep the
#: exit code at zero.
ERROR = "error"
WARNING = "warning"

SEVERITIES = (ERROR, WARNING)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = ERROR

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def format_text(self) -> str:
        """The one-line human form: ``path:line:col: RULE severity: msg``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.severity}: {self.message}"
        )
