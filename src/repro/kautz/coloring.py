"""Sequential (greedy) vertex colouring.

Section III-B1 assigns Kautz IDs to the actuators of a cell with the
sequential vertex-colouring algorithm: visit vertices in order and give
each the smallest colour unused by its already-coloured neighbours.
For a triangle cell of K(d, 3), three colours suffice, mapping to the
three rotation-related KIDs 012, 120, 201.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Sequence, TypeVar

Node = TypeVar("Node", bound=Hashable)


def sequential_coloring(
    adjacency: Mapping[Node, Iterable[Node]],
    order: Sequence[Node] = (),
) -> Dict[Node, int]:
    """Greedy colouring; returns node -> colour index (0-based).

    ``order`` fixes the visit order (default: sorted by repr for
    determinism).  Neighbour relations are treated as symmetric even if
    the mapping lists them one-way.
    """
    nodes = list(order) if order else sorted(adjacency, key=repr)
    undirected: Dict[Node, set] = {node: set() for node in adjacency}
    for node, neighbors in adjacency.items():
        for other in neighbors:
            undirected.setdefault(node, set()).add(other)
            undirected.setdefault(other, set()).add(node)
    colors: Dict[Node, int] = {}
    for node in nodes:
        taken = {
            colors[nb] for nb in undirected.get(node, ()) if nb in colors
        }
        color = 0
        while color in taken:
            color += 1
        colors[node] = color
    return colors

