"""Deployment geometry: actuator placement, sensor scatter, triangle cells.

The paper's evaluation deploys 5 actuators "uniformly" in a 500 m
square with sensors i.i.d. around them, forming 4 Kautz cells
(Section IV).  We realise that concretely as the *quadrant layout*:
one actuator at the area centre and one at the centre of each
quadrant; each cell is the triangle (centre, quadrant_i, quadrant_{i+1}).
Triangle edges are at most sqrt(2)/4 * side ≈ 177 m, inside the 250 m
actuator range, so the three actuators of every cell can communicate
directly as the embedding requires.

Cell IDs are assigned going around the centre so that *closer cells
have closer CIDs* (Section III-B1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import hypot, inf
from typing import List, Sequence, Tuple

from repro.errors import ConfigError
from repro.util.geometry import Point, centroid


@dataclass(frozen=True)
class Cell:
    """One WSAN cell: a triangle of actuators plus its identity."""

    cid: int
    actuator_indices: Tuple[int, int, int]   # indices into actuator list
    centroid: Point

    def can_point(self, area_side: float) -> Tuple[float, float]:
        """The cell's CAN coordinate: centroid normalised to [0, 1)^2."""
        eps = 1e-9
        return (
            min(self.centroid.x / area_side, 1.0 - eps),
            min(self.centroid.y / area_side, 1.0 - eps),
        )


@dataclass
class DeploymentPlan:
    """Positions and cell structure for one simulation run."""

    area_side: float
    actuator_positions: List[Point]
    sensor_positions: List[Point]
    cells: List[Cell]

    @property
    def actuator_count(self) -> int:
        return len(self.actuator_positions)

    @property
    def sensor_count(self) -> int:
        return len(self.sensor_positions)

    def cell_of_point(self, point: Point) -> Cell:
        """The cell whose centroid is nearest to ``point``; the first
        in ``cells`` order of equally near ones."""
        if not self.cells:
            raise ConfigError("deployment has no cells")
        x, y = point
        best, best_distance = None, inf
        for cell in self.cells:
            c = cell.centroid  # Point.distance_to's operands
            distance = hypot(c.x - x, c.y - y)
            if best is None or distance < best_distance:
                best, best_distance = cell, distance
        return best


def quadrant_actuator_positions(area_side: float) -> List[Point]:
    """The 5-actuator layout: area centre + four quadrant centres."""
    half, quarter = area_side / 2.0, area_side / 4.0
    three_quarter = 3.0 * quarter
    return [
        Point(half, half),                      # 0: centre
        Point(quarter, quarter),                # 1: SW quadrant
        Point(three_quarter, quarter),          # 2: SE
        Point(three_quarter, three_quarter),    # 3: NE
        Point(quarter, three_quarter),          # 4: NW
    ]


def quadrant_cells(actuator_positions: Sequence[Point]) -> List[Cell]:
    """The 4 triangle cells of the quadrant layout.

    Cell c = (centre, quadrant c+1, quadrant (c mod 4)+1); CIDs run
    1..4 around the centre so adjacent cells have adjacent CIDs.
    """
    cells = []
    for c in range(4):
        a, b = 1 + c, 1 + ((c + 1) % 4)
        tri = (0, a, b)
        cells.append(
            Cell(
                cid=c + 1,
                actuator_indices=tri,
                centroid=centroid([actuator_positions[i] for i in tri]),
            )
        )
    return cells


def plan_deployment(
    sensor_count: int, area_side: float, rng: random.Random
) -> DeploymentPlan:
    """Build a deployment plan: the paper's quadrant layout (5
    actuators, 4 cells) with ``sensor_count`` sensors scattered
    uniformly over the area."""
    if sensor_count < 0:
        raise ConfigError("sensor_count must be >= 0")
    if area_side <= 0:
        raise ConfigError("area_side must be positive")
    positions = quadrant_actuator_positions(area_side)
    cells = quadrant_cells(positions)
    sensors = [
        Point(rng.uniform(0, area_side), rng.uniform(0, area_side))
        for _ in range(sensor_count)
    ]
    return DeploymentPlan(
        area_side=area_side,
        actuator_positions=positions,
        sensor_positions=sensors,
        cells=cells,
    )
