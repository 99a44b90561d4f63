"""Hamiltonian cycles in Kautz graphs.

Section III-A uses the fact that K(d, k) is Hamiltonian to argue that a
Kautz overlay can be embedded into a physical topology that admits a
Hamiltonian cycle.  We construct the cycle exactly: K(d, k) is the line
digraph of K(d, k-1), so an Eulerian circuit of K(d, k-1) — which
exists because every vertex has in-degree = out-degree = d and the
graph is strongly connected — visits each edge once, and consecutive
edges of the circuit are adjacent vertices of K(d, k).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import KautzError
from repro.kautz.graph import KautzGraph
from repro.kautz.strings import KautzString


def eulerian_circuit(graph: KautzGraph) -> List[KautzString]:
    """An Eulerian circuit of K(d, k) by Hierholzer's algorithm.

    Returns the vertex sequence; its length is ``edge_count + 1`` and
    the first vertex equals the last.
    """
    remaining: Dict[KautzString, List[KautzString]] = {
        node: node.successors() for node in graph.nodes()
    }
    start = next(iter(graph.nodes()))
    stack = [start]
    circuit: List[KautzString] = []
    while stack:
        vertex = stack[-1]
        out = remaining[vertex]
        if out:
            stack.append(out.pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    if len(circuit) != graph.edge_count + 1:
        raise KautzError("graph is not Eulerian (unexpected for Kautz)")
    return circuit


def hamiltonian_cycle(graph: KautzGraph) -> List[KautzString]:
    """A Hamiltonian cycle of K(d, k), as a vertex list (first == last).

    For k == 1 the Kautz graph is the complete digraph on d + 1
    vertices and any vertex ordering is a cycle.  For k >= 2, lift an
    Eulerian circuit of K(d, k - 1): edge (w, w.shift(a)) corresponds to
    the K(d, k) vertex ``w . a``.
    """
    if graph.diameter == 1:
        nodes = list(graph.nodes())
        return nodes + [nodes[0]]
    base = KautzGraph(graph.degree, graph.diameter - 1)
    circuit = eulerian_circuit(base)
    cycle: List[KautzString] = []
    for w, w_next in zip(circuit, circuit[1:]):
        cycle.append(
            KautzString(w.letters + (w_next.letters[-1],), graph.degree)
        )
    cycle.append(cycle[0])
    return cycle


def is_hamiltonian_cycle(
    graph: KautzGraph, cycle: List[KautzString]
) -> bool:
    """Verifier: the sequence visits every vertex once and uses real edges."""
    if len(cycle) != graph.node_count + 1 or cycle[0] != cycle[-1]:
        return False
    if len(set(cycle[:-1])) != graph.node_count:
        return False
    return all(
        graph.has_edge(a, b) for a, b in zip(cycle, cycle[1:])
    )
