"""Deterministic SVG rendering of dissections.

Vertices sit on a unit circle with vertex 0 at the top and labels ascending
clockwise.  Output is plain SVG 1.1 text, byte-identical for identical
input: fixed element order, fixed 5-decimal coordinate formatting.
"""

from __future__ import annotations

import math

from .model import Dissection, central_component


def _fmt(v: float) -> str:
    s = f"{v:.5f}"
    return "0.00000" if s == "-0.00000" else s


def render_svg(d: Dissection, highlight_central: bool = True) -> str:
    """Render the dissection as an SVG document string.

    With highlighting on, exactly one element carries class="central": the
    diameter line or the filled central cell.  Either way the diagonals must
    cut the polygon into k-gons, else ValueError.
    """
    n = d.n
    central = central_component(d)
    # each vertex's unit-circle position, computed and formatted once
    unit = []
    for v in range(n):
        theta = math.pi / 2 - 2 * math.pi * v / n
        unit.append((math.cos(theta), -math.sin(theta)))
    xs, ys = zip(*(map(_fmt, p) for p in unit))

    def points(vertices) -> str:
        return " ".join(f"{xs[v]},{ys[v]}" for v in vertices)

    def line(a: int, b: int, cls: str, stroke: str, width: str) -> str:
        return (
            f'<line class="{cls}" x1="{xs[a]}" y1="{ys[a]}" '
            f'x2="{xs[b]}" y2="{ys[b]}" stroke="{stroke}" stroke-width="{width}"/>'
        )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.3 -1.3 2.6 2.6" width="520" height="520">',
    ]
    if highlight_central and central.cell is not None:
        lines.append(
            f'<polygon class="central" points="{points(central.cell)}" '
            'fill="#ffd24d" fill-opacity="0.65" stroke="#c0392b" stroke-width="0.02"/>'
        )
    lines.append(
        f'<polygon class="outline" points="{points(range(n))}" '
        'fill="none" stroke="#202020" stroke-width="0.012"/>'
    )
    for a, b in d.sorted_diagonals():
        lines.append(line(a, b, "diagonal", "#2b6cb0", "0.012"))
    if highlight_central and central.diameter is not None:
        lines.append(line(*central.diameter, "central", "#c0392b", "0.03"))
    for v in range(n):
        lines.append(f'<circle class="vertex" cx="{xs[v]}" cy="{ys[v]}" r="0.03" fill="#202020"/>')
    for v, (vx, vy) in enumerate(unit):
        lines.append(
            f'<text class="label" x="{_fmt(1.15 * vx)}" y="{_fmt(1.15 * vy + 0.04)}" '
            'font-size="0.12" text-anchor="middle" font-family="sans-serif">'
            f"{v}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
