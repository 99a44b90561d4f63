"""Visualisation: dependency-free SVG rendering of WSAN snapshots."""

from repro.viz.svg import SvgCanvas, render_refer_snapshot, render_route

__all__ = ["SvgCanvas", "render_refer_snapshot", "render_route"]
