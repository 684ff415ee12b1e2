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


def _vertex_xy(i: int, n: int, radius: float = 1.0):
    theta = math.pi / 2 - 2 * math.pi * i / n
    return radius * math.cos(theta), -radius * math.sin(theta)


def _points(vertices, n: int) -> str:
    parts = []
    for v in vertices:
        x, y = _vertex_xy(v, n)
        parts.append(f"{_fmt(x)},{_fmt(y)}")
    return " ".join(parts)


def _line(a: int, b: int, n: int, cls: str, stroke: str, width: str) -> str:
    x1, y1 = _vertex_xy(a, n)
    x2, y2 = _vertex_xy(b, n)
    return (
        f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
        f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{width}"/>'
    )


def render_svg(d: Dissection, highlight_central: bool = True) -> str:
    """Render the dissection as an SVG document string.

    With highlighting on, exactly one element carries class="central": the
    diameter line or the filled central cell.  Either way the diagonals must
    cut the polygon into k-gons, else ValueError.
    """
    n = d.n
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.3 -1.3 2.6 2.6" width="520" height="520">',
    ]
    central = central_component(d)
    cell = central.cell if highlight_central else None
    diameter = central.diameter if highlight_central else None
    if cell is not None:
        lines.append(
            f'<polygon class="central" points="{_points(cell, n)}" '
            'fill="#ffd24d" fill-opacity="0.65" stroke="#c0392b" stroke-width="0.02"/>'
        )
    lines.append(
        f'<polygon class="outline" points="{_points(range(n), n)}" '
        'fill="none" stroke="#202020" stroke-width="0.012"/>'
    )
    for x, y in d.sorted_diagonals():
        lines.append(_line(x, y, n, "diagonal", "#2b6cb0", "0.012"))
    if diameter is not None:
        lines.append(_line(*diameter, n, "central", "#c0392b", "0.03"))
    for v in range(n):
        x, y = _vertex_xy(v, n)
        lines.append(
            f'<circle class="vertex" cx="{_fmt(x)}" cy="{_fmt(y)}" r="0.03" '
            'fill="#202020"/>'
        )
    for v in range(n):
        x, y = _vertex_xy(v, n, radius=1.15)
        lines.append(
            f'<text class="label" x="{_fmt(x)}" y="{_fmt(y + 0.04)}" '
            'font-size="0.12" text-anchor="middle" font-family="sans-serif">'
            f"{v}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
