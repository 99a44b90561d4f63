"""SVG snapshots of a running WSAN — no plotting dependencies.

:func:`render_refer_snapshot` draws the deployment area, the triangle
cells, actuators, sensors, the embedded Kautz edges and (optionally) a
packet's route, and returns the SVG document as a string.  Handy for
debugging embeddings and for figures in downstream write-ups::

    svg = render_refer_snapshot(system)
    pathlib.Path("snapshot.svg").write_text(svg)
"""

from __future__ import annotations

import html
from typing import List, Optional, Sequence, Tuple

from repro.util.geometry import Point

# A small colour-blind-safe palette for cell tinting.
_CELL_COLORS = ("#8ecae6", "#ffb703", "#90be6d", "#f4a5ae",
                "#cdb4db", "#a3b18a")


class SvgCanvas:
    """A minimal SVG document builder (y-axis flipped to maths-style)."""

    def __init__(
        self,
        world_side: float,
        pixels: int = 640,
        margin: int = 24,
    ) -> None:
        if world_side <= 0 or pixels <= 0:
            raise ValueError("world_side and pixels must be positive")
        self._world = world_side
        self._pixels = pixels
        self._margin = margin
        self._body: List[str] = []

    # -- coordinate mapping ----------------------------------------------

    def _sx(self, x: float) -> float:
        return self._margin + (x / self._world) * self._pixels

    def _sy(self, y: float) -> float:
        # Flip so that y grows upward, like the deployment coordinates.
        return self._margin + (1.0 - y / self._world) * self._pixels

    # -- primitives ----------------------------------------------------------

    def circle(
        self, at: Point, radius: float, fill: str,
        stroke: str = "none", opacity: float = 1.0,
        title: Optional[str] = None,
    ) -> None:
        tooltip = (
            f"<title>{html.escape(title)}</title>" if title else ""
        )
        self._body.append(
            f'<circle cx="{self._sx(at.x):.1f}" cy="{self._sy(at.y):.1f}"'
            f' r="{radius:.1f}" fill="{fill}" stroke="{stroke}"'
            f' opacity="{opacity}">{tooltip}</circle>'
        )

    def line(
        self, a: Point, b: Point, stroke: str,
        width: float = 1.0, opacity: float = 1.0, dashed: bool = False,
    ) -> None:
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        self._body.append(
            f'<line x1="{self._sx(a.x):.1f}" y1="{self._sy(a.y):.1f}"'
            f' x2="{self._sx(b.x):.1f}" y2="{self._sy(b.y):.1f}"'
            f' stroke="{stroke}" stroke-width="{width}"'
            f' opacity="{opacity}"{dash}/>'
        )

    def polygon(
        self, points: Sequence[Point], fill: str, opacity: float = 0.2
    ) -> None:
        coords = " ".join(
            f"{self._sx(p.x):.1f},{self._sy(p.y):.1f}" for p in points
        )
        self._body.append(
            f'<polygon points="{coords}" fill="{fill}"'
            f' opacity="{opacity}" stroke="none"/>'
        )

    def text(self, at: Point, content: str, size: int = 12,
             fill: str = "#222") -> None:
        self._body.append(
            f'<text x="{self._sx(at.x):.1f}" y="{self._sy(at.y):.1f}"'
            f' font-size="{size}" fill="{fill}"'
            f' font-family="sans-serif">{html.escape(content)}</text>'
        )

    def to_string(self) -> str:
        side = self._pixels + 2 * self._margin
        header = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}"'
            f' height="{side}" viewBox="0 0 {side} {side}">'
        )
        frame = (
            f'<rect x="{self._margin}" y="{self._margin}"'
            f' width="{self._pixels}" height="{self._pixels}"'
            f' fill="#fcfcfc" stroke="#999"/>'
        )
        return "\n".join([header, frame, *self._body, "</svg>"])


def render_refer_snapshot(
    system,
    pixels: int = 640,
    show_sleeping: bool = True,
    route: Optional[Sequence[int]] = None,
) -> str:
    """An SVG snapshot of a built :class:`~repro.core.system.ReferSystem`.

    Cells are tinted, actuators drawn as squares-ish large dots with
    their KIDs, Kautz member sensors as solid dots with Kautz edges,
    and remaining (sleeping) sensors as faint dots.  ``route`` (a list
    of node ids) is overlaid as a red path.
    """
    network = system.network
    plan = system.plan
    now = network.sim.now
    canvas = SvgCanvas(plan.area_side, pixels=pixels)

    for spec in plan.cells:
        color = _CELL_COLORS[(spec.cid - 1) % len(_CELL_COLORS)]
        triangle = [plan.actuator_positions[i] for i in spec.actuator_indices]
        canvas.polygon(triangle, fill=color, opacity=0.18)
        canvas.text(spec.centroid, f"cell {spec.cid}", size=13, fill="#555")

    # Kautz edges (undirected view), then members, per cell.
    for cell in system.cells:
        for kid in cell.assigned_kids:
            node_a = cell.node_of(kid)
            pos_a = network.node(node_a).position(now)
            for nb in kid.successors():
                if not cell.kid_assigned(nb):
                    continue
                node_b = cell.node_of(nb)
                pos_b = network.node(node_b).position(now)
                alive = network.medium.can_transmit(node_a, node_b, now)
                canvas.line(
                    pos_a, pos_b,
                    stroke="#2a6f97" if alive else "#d62828",
                    width=1.2 if alive else 1.6,
                    opacity=0.7,
                    dashed=not alive,
                )

    if show_sleeping:
        members = {
            m for cell in system.cells for m in cell.member_ids
        }
        for sensor in system.sensor_ids:
            if sensor in members:
                continue
            node = network.node(sensor)
            canvas.circle(
                node.position(now), 2.0,
                fill="#bbb" if node.usable else "#e63946",
                opacity=0.6,
                title=f"sensor {sensor}"
                + ("" if node.usable else " (failed)"),
            )

    for cell in system.cells:
        for node_id in cell.sensor_member_ids:
            node = network.node(node_id)
            canvas.circle(
                node.position(now), 4.0,
                fill="#2a6f97" if node.usable else "#d62828",
                stroke="#14425c",
                title=f"sensor {node_id} KID={cell.kid_of(node_id)}",
            )

    for actuator in range(plan.actuator_count):
        pos = network.node(actuator).position(now)
        canvas.circle(
            pos, 8.0, fill="#bc4749", stroke="#5c1a1b",
            title=f"actuator {actuator}",
        )
        kid = next(
            (
                str(cell.kid_of(actuator))
                for cell in system.cells
                if cell.holds(actuator)
            ),
            "?",
        )
        canvas.text(pos.translated(8, 8), f"A{actuator}:{kid}", size=12)

    if route:
        positions = [network.node(n).position(now) for n in route]
        for a, b in zip(positions, positions[1:]):
            canvas.line(a, b, stroke="#e63946", width=2.5, opacity=0.9)
        canvas.circle(positions[0], 5.0, fill="#e63946",
                      title="route source")

    return canvas.to_string()


def render_route(
    system, packet_hops: Sequence[int], pixels: int = 640
) -> str:
    """Shortcut: snapshot with a delivered packet's hop list overlaid."""
    return render_refer_snapshot(system, pixels=pixels, route=packet_hops)
