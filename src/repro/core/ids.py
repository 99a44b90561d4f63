"""REFER node identity: ID = (CID, KID) (Section III-B).

The cell ID locates the Kautz cell; the Kautz ID locates the node
within the cell's K(d, k) graph.  An actuator belongs to several cells
and therefore owns several ReferIds sharing one KID.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kautz.strings import KautzString


@dataclass(frozen=True)
class ReferId:
    """A (CID, KID) pair, e.g. ``(5, 201)`` in the paper's Figure 1."""

    cid: int
    kid: KautzString

    def __str__(self) -> str:
        return f"({self.cid},{self.kid})"
