"""Kautz graph machinery: strings, graphs, and the REFER routing theory.

This package is pure graph theory — no simulator dependencies — and
implements Section III-A and III-C1 of the paper:

* :mod:`repro.kautz.strings` — Kautz string labels (Definition 1).
* :mod:`repro.kautz.graph` — the K(d, k) digraph.
* :mod:`repro.kautz.namespace` — the L(U, V) overlap metric and distance.
* :mod:`repro.kautz.routing` — the greedy shortest protocol and the
  fault-tolerant hop-by-hop router.
* :mod:`repro.kautz.disjoint` — Theorem 3.8: the d node-disjoint paths,
  their successors and lengths, computed from node IDs alone.
* :mod:`repro.kautz.analysis` — Proposition 3.1's degree/diameter tables.
* :mod:`repro.kautz.hamiltonian` — Hamiltonian cycles via Euler circuits.
* :mod:`repro.kautz.coloring` — sequential vertex colouring.
"""

from repro.kautz.strings import KautzString
from repro.kautz.graph import KautzGraph
from repro.kautz.namespace import kautz_distance, overlap
from repro.kautz.routing import (
    FaultTolerantRouter,
    greedy_next_hop,
    greedy_path,
)
from repro.kautz.disjoint import (
    PathCase,
    SuccessorInfo,
    disjoint_paths,
    successor_table,
    verify_node_disjoint,
)

__all__ = [
    "KautzString",
    "KautzGraph",
    "kautz_distance",
    "overlap",
    "FaultTolerantRouter",
    "greedy_next_hop",
    "greedy_path",
    "PathCase",
    "SuccessorInfo",
    "disjoint_paths",
    "successor_table",
    "verify_node_disjoint",
]
