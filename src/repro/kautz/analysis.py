"""Graph-theoretic checks behind Section III-A.

Implements the quantities in Proposition 3.1: the degree/diameter
tradeoff of the Kautz graph against the de Bruijn graph and the
hypercube, and its proximity to the Moore bound.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.kautz.graph import kautz_node_count


def moore_bound(degree: int, diameter: int) -> int:
    """The directed Moore bound: max vertices of a (d, k) digraph.

    ``M(d, k) = 1 + d + d^2 + ... + d^k``.  The Kautz graph reaches
    ``d^k + d^(k-1)``, asymptotically optimal as k decreases — the
    reason REFER uses small-diameter cells (Section III-B).
    """
    if degree == 1:
        return diameter + 1
    return (degree ** (diameter + 1) - 1) // (degree - 1)


def moore_bound_ratio(degree: int, diameter: int) -> float:
    """``N_kautz / M(d, k)`` — density relative to the Moore bound."""
    return kautz_node_count(degree, diameter) / moore_bound(degree, diameter)


def debruijn_node_count(degree: int, diameter: int) -> int:
    """``d^k`` — the de Bruijn graph B(d, k) size, for comparison."""
    return degree ** diameter


def hypercube_diameter(node_count: int) -> int:
    """Diameter of the hypercube with at least ``node_count`` vertices.

    The hypercube Q_m has 2^m nodes, degree m and diameter m; its
    diameter for n nodes is ceil(log2 n) — strictly worse than Kautz at
    equal degree, which Proposition 3.1 leans on.
    """
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    return max(1, math.ceil(math.log2(node_count)))


def kautz_diameter_for(node_count: int, degree: int) -> int:
    """Smallest k with ``(d+1) d^(k-1) >= node_count``."""
    k = 1
    while kautz_node_count(degree, k) < node_count:
        k += 1
    return k


def degree_diameter_table(
    node_count: int, degrees: List[int]
) -> Dict[int, Dict[str, int]]:
    """Kautz vs de Bruijn vs hypercube diameters at the given size.

    Evidence for Proposition 3.1 — used by the topology-comparison
    ablation bench.
    """
    table: Dict[int, Dict[str, int]] = {}
    for d in degrees:
        kautz_k = kautz_diameter_for(node_count, d)
        debruijn_k = 1
        while debruijn_node_count(d, debruijn_k) < node_count:
            debruijn_k += 1
        table[d] = {
            "kautz": kautz_k,
            "debruijn": debruijn_k,
            "hypercube": hypercube_diameter(node_count),
        }
    return table
