"""The :class:`Finding` value type produced by every referlint rule.

A finding is one rule violation at one source location.  Findings are
tuples, so they order by path, then line, then column, then rule id —
the order the CLI prints them in.
"""

from typing import NamedTuple


class Finding(NamedTuple):
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format_text(self) -> str:
        """The one-line human form: ``path:line:col: RULE message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.message}"
        )
