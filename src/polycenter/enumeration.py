"""Brute-force enumeration of dissections and the central-component census.

These generators are the ground-truth oracle: they build every dissection
explicitly by recursive cell choice on a base edge and never consult the
closed-form counts they are used to check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from operator import itemgetter
from typing import Iterator

from .model import DIAMETER, CentralComponent, Dissection, contains_vertex, face_arcs


def _regions(lo: int, hi: int, k: int, n: int) -> Iterator:
    """Yield ``(diagonals, central)`` for every k-angulation of the interval ``lo..hi``.

    The region is the sub-polygon on the vertex labels lo, lo+1, ..., hi with
    base edge (lo, hi); the caller has checked that hi - lo - 1 is a multiple
    of k - 2, and hi = lo + 1 is an edge that dissects trivially.
    ``central`` is the :class:`CentralComponent` of the n-gon when it lies
    inside the region, else None.  Each cell is classified once, as it is
    chosen, and shared by every dissection that contains it.
    """
    if hi - lo == 1:
        yield (), None
        return
    for mids in combinations(range(lo + 1, hi), k - 2):
        cell = (lo, *mids, hi)
        sides = tuple(zip(cell, cell[1:]))
        if any((b - a - 1) % (k - 2) for a, b in sides):
            continue
        cell_diags = tuple((a, b) for a, b in sides if b - a > 1)
        cell_central = None
        for a, b in cell_diags:
            if 2 * (b - a) == n:
                cell_central = CentralComponent(n, diameter=(a, b))
        if cell_central is None and all(2 * a < n for a in face_arcs(cell, n)):
            cell_central = CentralComponent(n, cell=cell)
        sub = [list(_regions(a, b, k, n)) for a, b in sides]
        for parts in product(*sub):
            diags = cell_diags
            central = cell_central
            for p, c in parts:
                diags += p
                if c is not None:
                    if central is not None:
                        raise AssertionError(f"two central components {central} and {c}")
                    central = c
            yield diags, central


def _classified(n: int, k: int) -> Iterator:
    """Every k-angulation of the n-gon as ``(diagonals, central)``, exactly once.

    Empty stream when n fails the parity constraint n = 2 (mod k-2).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if (n - 2) % (k - 2):
        return
    for diags, central in _regions(0, n - 1, k, n):
        if central is None:
            raise AssertionError(f"no central component in {diags}")
        yield diags, central


def enumerate_kangulations(n: int, k: int = 3) -> Iterator[Dissection]:
    """Every dissection of the n-gon into k-gons, exactly once.

    Empty stream when n fails the parity constraint n = 2 (mod k-2).
    """
    for diags, _ in _classified(n, k):
        yield Dissection(n, diags, k)


def enumerate_triangulations(n: int) -> Iterator[Dissection]:
    """Every triangulation of the n-gon, exactly once (apex recursion on edge 0-(n-1))."""
    return enumerate_kangulations(n, 3)


@dataclass(frozen=True)
class CensusEntry:
    """One central-component shape with its number of dissections."""

    key: "str | tuple[int, ...]"
    count: int


def _key_order(key):
    return (0, ()) if key == DIAMETER else (1, key)


def _central_tally(n: int, k: int) -> Counter:
    """Number of k-angulations of the n-gon per central component."""
    return Counter(map(itemgetter(1), _classified(n, k)))


def central_census(n: int, k: int = 3) -> list:
    """Tally all dissections of the n-gon by central-component shape key.

    Keys are DIAMETER or the sorted cyclic side lengths of the central cell;
    entries come out DIAMETER first, then lexicographic.
    """
    tally: Counter = Counter()
    for central, count in _central_tally(n, k).items():
        tally[central.shape_key()] += count
    return [CensusEntry(key, tally[key]) for key in sorted(tally, key=_key_order)]


def census_to_json(n: int, k: int, entries) -> dict:
    """JSON-ready census: counts as decimal strings, shapes as lists or "diameter"."""
    return {
        "n": n,
        "k": k,
        "entries": [
            {
                "shape": DIAMETER if e.key == DIAMETER else list(e.key),
                "count": str(e.count),
            }
            for e in entries
        ],
    }


def count_vertex0_outside(n: int) -> int:
    """Exhaustive count of triangulations whose central component avoids vertex 0."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return sum(
        count for central, count in _central_tally(n, 3).items() if not contains_vertex(central, 0)
    )
