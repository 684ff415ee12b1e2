"""Labeled convex-polygon dissections and their central components.

Vertices of an n-gon are labeled 0..n-1 counterclockwise on the circle.
Everything here is purely combinatorial: face extraction and the
central-component classification work on vertex labels, never on
coordinates.  Faces come from one sweep over the diagonals ordered by right
end, which closes each cell as its bounding diagonal is reached and finds a
crossing as a left end that an earlier diagonal has already closed off.
:func:`central_component` classifies inside that same sweep: it builds a
tuple only for the cells spanning more than half the polygon, the only ones
that can hold the center or have the diameter as a side.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from math import factorial
from operator import itemgetter, sub
from typing import NamedTuple

#: Shape key of a central component that is a diameter edge.
DIAMETER = "diameter"


class Dissection(NamedTuple("Dissection", [("n", int), ("diagonals", frozenset), ("k", int)])):
    """A convex n-gon with a set of pairwise non-crossing diagonals.

    ``k`` is the intended uniform cell size (3 for triangulations); face
    sizes are enforced by :func:`faces`, not at construction.
    """

    __slots__ = ()

    def __new__(cls, n: int, diagonals, k: int = 3):
        norm = frozenset((min(x, y), max(x, y)) for x, y in diagonals)
        if n < 3:
            raise ValueError("polygon needs n >= 3")
        if k < 3:
            raise ValueError("cells need k >= 3")
        for x, y in norm:
            if not 0 <= x < y < n:
                raise ValueError(f"diagonal ({x},{y}) out of range for n={n}")
            if y - x == 1 or (x == 0 and y == n - 1):
                raise ValueError(f"({x},{y}) is a polygon side, not a diagonal")
        return super().__new__(cls, n, norm, k)


def _cell_text(cell) -> str:
    """The cell as a tuple, shortened to its first and last vertices when long."""
    if len(cell) <= 12:
        return str(cell)
    return f"({', '.join(map(str, cell[:6]))}, ..., {cell[-1]})"


def _sweep(d: Dissection, span: int):
    """One pass over the diagonals by right end, closing each cell in turn.

    Returns ``(cells, sized)``: the tuple of every cell whose span
    v_last - v_first is at least ``span``, in the order the sweep closes
    them, and whether every cell, built or not, has d.k vertices.  Takes
    the diagonals (x, y) by right end y, the shorter first where two share
    it, over a sorted list of the vertices still open: each diagonal closes
    the cell of the open vertices from x to y and removes those strictly
    between.  A diagonal whose x is no longer open crosses an earlier one,
    which removed it; that raises ValueError at once.  The last cell, the
    open vertices from 0 to n - 1, spans n - 1 and is always built.
    """
    diagonals = sorted(d.diagonals, reverse=True)
    diagonals.sort(key=itemgetter(1))
    k = d.k
    cells: list = []
    sized = True
    open_ = [0]  # vertex 0 is never strictly inside a diagonal
    for j, (x, y) in enumerate(diagonals):
        open_.extend(range(open_[-1] + 1, y + 1))
        i = bisect_left(open_, x)
        if open_[i] != x:
            a, b = next(e for e in diagonals[:j] if e[0] < x < e[1])
            raise ValueError(f"diagonals {(a, b)} and {(x, y)} cross")
        if len(open_) - i != k:
            sized = False
        if y - x >= span:
            cells.append(tuple(open_[i:]))
        del open_[i + 1 : -1]
    open_.extend(range(open_[-1] + 1, d.n))
    cells.append(tuple(open_))
    return cells, sized and len(open_) == k


def faces(d: Dissection) -> list:
    """All interior cells of the dissection, each a sorted vertex tuple.

    Rejects crossing diagonal sets and dissections whose cells are not all
    k-gons; a crossing wins when a set has both, and the size error names
    the first wrong cell in sorted order.  The sorted vertex order of a cell
    is its cyclic order rotated to the minimum label.  The cells come from
    :func:`_sweep`, every one of them built.
    """
    out = _sweep(d, 0)[0]
    out.sort()
    for f in out:
        if len(f) != d.k:
            raise ValueError(
                f"cell {_cell_text(f)} has {len(f)} vertices; not a dissection into {d.k}-gons"
            )
    return out


def face_arcs(face, n: int):
    """Arc gaps between consecutive face vertices, last one wrapping around."""
    return (*map(sub, face[1:], face), n + face[0] - face[-1])


class CentralComponent(NamedTuple):
    """The component of a dissection that contains the center of the n-gon.

    ``vertices`` is a diameter's 2 endpoints or a central cell's k >= 3
    sorted vertices.
    """

    n: int
    vertices: tuple

    def shape_key(self):
        """DIAMETER, or the sorted multiset of the cell's cyclic side lengths."""
        if len(self.vertices) == 2:
            return DIAMETER
        return tuple(sorted(face_arcs(self.vertices, self.n)))


def _central_of(cell, n: int):
    """The central component that the sorted cell is or has as a side, else None.

    A cell that spans at most half the polygon, 2(v_last - v_first) <= n,
    can neither hold the center nor have a diameter as a side, so it is
    rejected at once: its wrap arc is at least n/2, and at exactly n/2 that
    arc is the diameter while its k - 1 >= 2 inner sides are all shorter.
    Otherwise the wrap arc is below n/2.  An inner side (a, b) with
    2(b - a) = n is the diameter; a longer side leaves the cell off center,
    and at most one side reaches n/2.  With every side below n/2 the cell
    holds the center.  A diameter's ends are consecutive in one of its two
    cells and wrap in the other, so exactly one cell of a dissection hits.
    """
    if 2 * (cell[-1] - cell[0]) <= n:
        return None
    for a, b in zip(cell, cell[1:]):
        if 2 * (b - a) >= n:
            return CentralComponent(n, (a, b)) if 2 * (b - a) == n else None
    return CentralComponent(n, cell)


def central_component(d: Dissection) -> CentralComponent:
    """Classify the dissection by the component containing the polygon center.

    Reads the same :func:`_sweep` as :func:`faces`, but builds only the
    cells that span more than half the polygon, the only ones
    :func:`_central_of` does not reject at once, and applies it to those.  A
    crossing or a cell of the wrong size raises :func:`faces`' ValueError;
    more or fewer than one hit is an AssertionError listing the hits in
    sorted cell order.
    """
    n = d.n
    wide, sized = _sweep(d, n // 2 + 1)
    if not sized:
        faces(d)  # raises the error for the wrong cell size
    central = [c for f in wide if (c := _central_of(f, n)) is not None]
    if len(central) != 1:
        central = [c for f in sorted(wide) if (c := _central_of(f, n)) is not None]
        raise AssertionError(f"expected one central component, found {central}")
    return central[0]


def contains_vertex(c: CentralComponent, v: int) -> bool:
    """True iff v is an endpoint of the diameter or a vertex of the central cell."""
    if not 0 <= v < c.n:
        raise ValueError(f"vertex {v} out of range for n={c.n}")
    return v in c.vertices


def placement_count(lengths, n: int) -> int:
    """Number of vertex subsets of an n-gon whose cyclic gap multiset is ``lengths``.

    Equals n * P / k where P is the number of distinct linear arrangements of
    the multiset; the division is always exact (each subset is counted once
    per choice of starting vertex).  The recursion's term stream reads it
    once per term; the recursion sum reads the same multiplicity from run
    lengths instead, as one checked division per distinct divisor.
    """
    lengths = tuple(lengths)
    k = len(lengths)
    if k < 3:
        raise ValueError("need at least 3 lengths")
    if sum(lengths) != n:
        raise ValueError(f"lengths {lengths} must sum to n={n}")
    for length in lengths:
        if length < 1 or 2 * length >= n:
            raise ValueError(f"length {length} not in [1, n/2) for n={n}")
    arrangements = factorial(k)
    for mult in Counter(lengths).values():
        arrangements //= factorial(mult)
    count, r = divmod(n * arrangements, k)
    if r:
        raise AssertionError("placement count must be integral")
    return count


def parse_diagonals(text: str) -> frozenset:
    """Parse the "x-y,x-y,..." diagonal notation; empty string means no diagonals."""
    text = text.strip()
    if not text:
        return frozenset()
    diags = set()
    for item in text.split(","):
        try:
            x, y = map(int, item.split("-"))
        except ValueError:
            raise ValueError(f"malformed diagonal {item!r}; expected 'x-y'") from None
        diags.add((min(x, y), max(x, y)))
    return frozenset(diags)

