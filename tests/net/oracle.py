"""The brute-force neighbour oracle the medium's grid is held to.

``WirelessMedium.neighbors`` answers from the position snapshot its
spatial grid holds; the oracle re-derives the same tuple with
``brute_force_within_range`` — an O(n) scan — over that very snapshot,
so a difference is an index bug, never a difference in positions.

:func:`grid_within` asks a bare grid the scan's question through its
own cells, for the grid's unit tests.
"""

import copy
import math
from types import SimpleNamespace

from repro.net.spatial import brute_force_within_range

#: A grid item id no test uses: :func:`grid_within`'s probe.
PROBE = -1


def grid_within(grid, point, radius):
    """The items of ``grid`` within ``radius`` of ``point``, sorted, as
    the grid's own pass finds them.

    A probe of reach ``radius`` is inserted at ``point`` into a copy of
    the grid, among items of unbounded reach.  All are ``wide``, so the
    pass pairs the probe with its 3x3 block of cells and tests
    everything further out directly, by cell key: a stale cell or key,
    copied with the rest, shows up as a difference from
    ``brute_force_within_range``.
    """
    probed = copy.deepcopy(grid)
    probed.insert(PROBE, point)
    reach = {
        item: SimpleNamespace(transmission_range=math.inf)
        for item in probed.items()
    }
    reach[PROBE] = SimpleNamespace(transmission_range=radius)
    return probed.mutual_neighbours([PROBE], reach, list(reach))[PROBE]


def brute_neighbors(medium, node_id, require_usable=True):
    """``medium.neighbors(node_id, now, require_usable)`` by full scan.

    Call it after a neighbour query at the instant of interest, so the
    snapshot is the one that query was served from.
    """
    grid = medium.spatial_grid
    snapshot = {item: grid.position_of(item) for item in grid.items()}
    here = snapshot[node_id]
    reach = medium.node(node_id).transmission_range
    found = []
    for other_id in brute_force_within_range(snapshot, here, reach):
        other = medium.node(other_id)
        if other_id == node_id or (require_usable and not other.usable):
            continue
        there = snapshot[other_id]
        if math.hypot(here.x - there.x, here.y - there.y) <= \
                other.transmission_range:
            found.append(other_id)
    return tuple(found)
