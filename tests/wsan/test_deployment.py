"""Tests for deployment geometry."""

import math
import random

import pytest

from repro.errors import ConfigError
from repro.util.geometry import Point
from repro.wsan.deployment import (
    Cell,
    plan_deployment,
    quadrant_actuator_positions,
    quadrant_cells,
)


class TestQuadrantLayout:
    def test_five_actuators(self):
        positions = quadrant_actuator_positions(500.0)
        assert len(positions) == 5
        assert positions[0] == Point(250.0, 250.0)

    def test_four_cells(self):
        positions = quadrant_actuator_positions(500.0)
        cells = quadrant_cells(positions)
        assert len(cells) == 4
        assert [c.cid for c in cells] == [1, 2, 3, 4]

    def test_each_cell_is_centre_plus_adjacent_quadrants(self):
        cells = quadrant_cells(quadrant_actuator_positions(500.0))
        for cell in cells:
            assert 0 in cell.actuator_indices
            assert len(set(cell.actuator_indices)) == 3

    def test_cell_edges_within_actuator_range(self):
        """Every pair of actuators in a cell can talk directly (250 m)."""
        positions = quadrant_actuator_positions(500.0)
        for cell in quadrant_cells(positions):
            pts = [positions[i] for i in cell.actuator_indices]
            for a in pts:
                for b in pts:
                    assert a.distance_to(b) <= 250.0

    def test_cells_share_the_centre_actuator(self):
        cells = quadrant_cells(quadrant_actuator_positions(500.0))
        shared = set.intersection(
            *(set(c.actuator_indices) for c in cells)
        )
        assert shared == {0}

    def test_adjacent_cells_share_two_actuators(self):
        cells = quadrant_cells(quadrant_actuator_positions(500.0))
        for a, b in zip(cells, cells[1:]):
            assert len(set(a.actuator_indices) & set(b.actuator_indices)) == 2


class TestPlanDeployment:
    def test_default_plan(self):
        plan = plan_deployment(200, 500.0, random.Random(1))
        assert plan.actuator_count == 5
        assert plan.sensor_count == 200
        assert len(plan.cells) == 4

    def test_sensors_inside_area(self):
        plan = plan_deployment(100, 300.0, random.Random(2))
        for p in plan.sensor_positions:
            assert 0 <= p.x <= 300 and 0 <= p.y <= 300

    def test_deterministic_per_seed(self):
        a = plan_deployment(50, 500.0, random.Random(9))
        b = plan_deployment(50, 500.0, random.Random(9))
        assert a.sensor_positions == b.sensor_positions

    def test_cell_of_point_nearest_centroid(self):
        plan = plan_deployment(10, 500.0, random.Random(1))
        for cell in plan.cells:
            assert plan.cell_of_point(cell.centroid).cid == cell.cid

    def test_can_point_in_unit_square(self):
        plan = plan_deployment(10, 500.0, random.Random(1))
        for cell in plan.cells:
            x, y = cell.can_point(plan.area_side)
            assert 0 <= x < 1 and 0 <= y < 1

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            plan_deployment(-1, 500.0, random.Random(1))
        with pytest.raises(ConfigError):
            plan_deployment(10, 0.0, random.Random(1))
