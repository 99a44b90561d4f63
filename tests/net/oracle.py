"""The brute-force neighbour oracle the medium's grid is held to.

``WirelessMedium.neighbors`` answers from the position snapshot its
spatial grid holds; the oracle re-derives the same tuple with
``brute_force_within_range`` — an O(n) scan — over that very snapshot,
so a difference is an index bug, never a difference in positions.
"""

from repro.net.spatial import brute_force_within_range


def brute_neighbors(medium, node_id, require_usable=True):
    """``medium.neighbors(node_id, now, require_usable)`` by full scan.

    Call it after a neighbour query at the instant of interest, so the
    snapshot is the one that query was served from.
    """
    grid = medium.spatial_grid
    snapshot = {item: grid.position_of(item) for item in grid.items()}
    reach = medium.node(node_id).transmission_range
    found = []
    for other_id, distance in brute_force_within_range(
        snapshot, snapshot[node_id], reach
    ):
        other = medium.node(other_id)
        if other_id == node_id or (require_usable and not other.usable):
            continue
        if distance <= other.transmission_range:
            found.append(other_id)
    return tuple(found)
