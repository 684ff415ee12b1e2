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


def _regions(vs: list, k: int, n: int) -> Iterator:
    """Yield ``(diagonals, central)`` for every k-angulation of the sub-polygon ``vs``.

    ``vs`` is an ascending list of vertex labels whose first/last pair is the
    region's base edge; a 2-element region is an edge and dissects trivially.
    ``central`` is the :class:`CentralComponent` of the n-gon when it lies
    inside the region, else None.  Each cell is classified once, as it is
    chosen, and shared by every dissection that contains it.
    """
    if len(vs) == 2:
        yield (), None
        return
    if (len(vs) - 2) % (k - 2):
        return
    last = len(vs) - 1
    for mids in combinations(range(1, last), k - 2):
        idxs = (0, *mids, last)
        segs = [vs[idxs[i]: idxs[i + 1] + 1] for i in range(k - 1)]
        if any((len(s) - 2) % (k - 2) for s in segs):
            continue
        cell = tuple(vs[i] for i in idxs)
        cell_diags = []
        cell_central = None
        for a, b in zip(cell, cell[1:]):
            if b - a > 1 and not (a == 0 and b == n - 1):
                cell_diags.append((a, b))
                if 2 * (b - a) == n:
                    cell_central = CentralComponent(n, diameter=(a, b))
        if cell_central is None and all(2 * a < n for a in face_arcs(cell, n)):
            cell_central = CentralComponent(n, cell=cell)
        cell_diags = tuple(cell_diags)
        sub = [list(_regions(s, k, n)) for s in segs]
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
    for diags, central in _regions(list(range(n)), k, n):
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
