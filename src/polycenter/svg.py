"""Deterministic SVG rendering of dissections.

Vertices sit on a unit circle with vertex 0 at the top and labels ascending
clockwise.  Output is plain SVG 1.1 text, byte-identical for identical
input: fixed element order, fixed 5-decimal coordinate formatting.  What
depends only on n (the formatted vertex positions, the outline, the vertex
circles and labels) is one per-n frame, built once and kept for the last n
rendered; each document adds only its central component and diagonals.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .model import Dissection, central_component

def _fmt(v: float) -> str:
    s = f"{v:.5f}"
    return "0.00000" if s == "-0.00000" else s


def _points(xs, ys, vertices) -> str:
    return " ".join(f"{xs[v]},{ys[v]}" for v in vertices)


@lru_cache(maxsize=1)
def _frame(n: int):
    """The parts of an n-gon document that no diagonal changes.

    Returns the formatted vertex coordinates ``xs`` and ``ys``, the outline
    polygon line, and the tail: vertex circles, labels and the closing tag,
    joined and newline-terminated.  One entry serves a batch of renders of
    the same n and is never larger than the document just returned.
    """
    unit = []
    for v in range(n):
        theta = math.pi / 2 - 2 * math.pi * v / n
        unit.append((math.cos(theta), -math.sin(theta)))
    xs, ys = zip(*(map(_fmt, p) for p in unit))
    outline = (
        f'<polygon class="outline" points="{_points(xs, ys, range(n))}" '
        'fill="none" stroke="#202020" stroke-width="0.012"/>'
    )
    tail = [f'<circle class="vertex" cx="{xs[v]}" cy="{ys[v]}" r="0.03" fill="#202020"/>' for v in range(n)]
    for v, (vx, vy) in enumerate(unit):
        tail.append(
            f'<text class="label" x="{_fmt(1.15 * vx)}" y="{_fmt(1.15 * vy + 0.04)}" '
            'font-size="0.12" text-anchor="middle" font-family="sans-serif">'
            f"{v}</text>"
        )
    tail.append("</svg>\n")
    return xs, ys, outline, "\n".join(tail)


def render_svg(d: Dissection, highlight_central: bool = True) -> str:
    """Render the dissection as an SVG document string.

    With highlighting on, exactly one element carries class="central": the
    diameter line or the filled central cell.  Either way the diagonals must
    cut the polygon into k-gons, else ValueError.
    """
    central = central_component(d)
    xs, ys, outline, tail = _frame(d.n)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.3 -1.3 2.6 2.6" width="520" height="520">',
    ]
    diameter = len(central.vertices) == 2
    if highlight_central and not diameter:
        lines.append(
            f'<polygon class="central" points="{_points(xs, ys, central.vertices)}" '
            'fill="#ffd24d" fill-opacity="0.65" stroke="#c0392b" stroke-width="0.02"/>'
        )
    lines.append(outline)
    lines += [
        f'<line class="diagonal" x1="{xs[a]}" y1="{ys[a]}" '
        f'x2="{xs[b]}" y2="{ys[b]}" stroke="#2b6cb0" stroke-width="0.012"/>'
        for a, b in sorted(d.diagonals)
    ]
    if highlight_central and diameter:
        a, b = central.vertices
        lines.append(
            f'<line class="central" x1="{xs[a]}" y1="{ys[a]}" '
            f'x2="{xs[b]}" y2="{ys[b]}" stroke="#c0392b" stroke-width="0.03"/>'
        )
    lines.append(tail)
    return "\n".join(lines)
