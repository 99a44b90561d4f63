"""Tests for the SVG renderer."""

import random

import pytest

from repro.core.system import ReferSystem
from repro.net.network import WirelessNetwork
from repro.sim.core import Simulator
from repro.util.geometry import Point
from repro.viz.svg import SvgCanvas, render_refer_snapshot, render_route
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes


@pytest.fixture(scope="module")
def system():
    rng = random.Random(42)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(200, 500.0, rng)
    build_nodes(network, plan, rng, sensor_max_speed=0.0)
    sys_ = ReferSystem(network, plan, rng)
    sys_.build()
    return sys_


class TestCanvas:
    def test_document_structure(self):
        canvas = SvgCanvas(500.0, pixels=100, margin=10)
        canvas.circle(Point(250, 250), 3.0, fill="red")
        svg = canvas.to_string()
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "<circle" in svg

    def test_y_axis_flipped(self):
        canvas = SvgCanvas(100.0, pixels=100, margin=0)
        canvas.circle(Point(0, 0), 1.0, fill="red")
        canvas.circle(Point(0, 100), 1.0, fill="blue")
        svg = canvas.to_string()
        # world y=0 maps to pixel y=100 (bottom), y=100 to 0 (top).
        assert 'cy="100.0"' in svg
        assert 'cy="0.0"' in svg

    def test_title_escaped(self):
        canvas = SvgCanvas(10.0)
        canvas.circle(Point(1, 1), 1.0, fill="red", title="<evil>&co")
        assert "&lt;evil&gt;&amp;co" in canvas.to_string()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SvgCanvas(0.0)

    def test_line_and_polygon_and_text(self):
        canvas = SvgCanvas(10.0)
        canvas.line(Point(0, 0), Point(5, 5), stroke="black", dashed=True)
        canvas.polygon([Point(0, 0), Point(1, 0), Point(0, 1)], fill="red")
        canvas.text(Point(2, 2), "hi & bye")
        svg = canvas.to_string()
        assert "stroke-dasharray" in svg
        assert "<polygon" in svg
        assert "hi &amp; bye" in svg


class TestSnapshot:
    def test_snapshot_is_valid_xml(self, system):
        import xml.etree.ElementTree as ET

        svg = render_refer_snapshot(system)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_snapshot_contains_all_layers(self, system):
        svg = render_refer_snapshot(system)
        assert "cell 1" in svg and "cell 4" in svg
        assert "actuator 0" in svg
        assert "KID=" in svg
        # Kautz edges drawn in the member-link colour.
        assert "#2a6f97" in svg

    def test_sleeping_layer_toggle(self, system):
        with_sleep = render_refer_snapshot(system, show_sleeping=True)
        without = render_refer_snapshot(system, show_sleeping=False)
        assert with_sleep.count("<circle") > without.count("<circle")

    def test_route_overlay(self, system):
        cell = system.cells[0]
        members = cell.sensor_member_ids[:3]
        svg = render_route(system, members)
        assert "route source" in svg
        assert "#e63946" in svg

    def test_failed_nodes_recoloured(self, system):
        victim = system.cells[0].sensor_member_ids[0]
        system.network.fail_node(victim)
        try:
            svg = render_refer_snapshot(system)
            assert "#d62828" in svg
        finally:
            system.network.recover_node(victim)
