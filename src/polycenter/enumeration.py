"""Brute-force enumeration of dissections and the central-component census.

These generators are the ground-truth oracle: they build every dissection
explicitly by cell choice on a base edge and never consult the closed-form
counts they are used to check.  A region is the run of vertex labels lo..hi
on its base edge (lo, hi); a cell splits it into k-1 sides, each of length
1 + (k-2)j for a Fuss-Catalan index j, and each side of the cell that is a
diagonal cutting off more than k labels is the next region to fill.  A
region of exactly k labels (j = 1) is one k-gon: its one cell adds no
diagonal and is never central, so it is not visited.

:func:`_batches` walks these choices depth-first on one explicit stack,
appending to one list of diagonals and truncating it to backtrack, so the
first dissection comes after polynomial work and the stream stays lazy.  A
per-call table holds one entry per interval, built on its first entry by
:func:`_completions`: the interval's admissible cells, with their diagonals
and :func:`model._central_of`, or, for a small interval, every completion of
it, built once from its sides' entries.  A small interval's completions are
side-less choices, one walk step each, and when it is the last interval
pending they are one batch: the diagonals so far with every completion.
Small means at most ``_REPLAY_LIMIT`` completions: the builder gives up past
that bound, so no entry holds more completions than that, and the table is
dropped when the generator ends.

The walk has two readers.  :func:`_classified` flattens the batches into
one ``(diagonals, central)`` object at a time, for
:func:`enumerate_kangulations`; :func:`_central_tally` counts each batch
under its central components without building any object, for
:func:`central_census` and :func:`count_vertex0_outside`.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product, repeat
from typing import Iterator, NamedTuple

from .model import DIAMETER, Dissection, _central_of, contains_vertex
from .sequences import _fuss_index

#: The most completions a region may have and still be built once per call
#: and replayed from a list; past it the walk steps through the region's
#: cells.  On the oracle_census benchmark 64 to 256 measured alike, and 16
#: and 1024 slower.
_REPLAY_LIMIT = 64


def _cells(lo: int, hi: int, k: int, n: int) -> list:
    """Every admissible cell on the base edge (lo, hi), with its central component.

    A cell is ``(lo, *mids, hi)``.  A side cuts off a k-angulable region
    only when its length is 1 + (k-2)j, and the k-1 indices j of a cell sum
    to (hi-lo-1)/(k-2) - 1, so each cell is one composition of that sum:
    k-2 bars placed among its stars, bar i at position b putting mids[i] at
    lo + 1 + i + (k-2)(b-i).  Every candidate is admissible, and the cells
    come in lexicographic order of their mids.  Each entry is
    ``(diagonals, sides, central)``: the cell's own diagonals; the sides
    still to fill, in push order, which are the diagonals reversed less
    those cutting off exactly k labels; and :func:`model._central_of` of the
    cell: the central component of the n-gon when the cell is it or has it
    as a side, else None.

    A k-label side needs no visit.  Its region's one cell is its k labels in
    a row, with no diagonal, and it lies below the root only when
    n >= 2k - 2, so its wrap arc n - (k - 1) is at least n/2 and it is not
    central.  At n = 2k - 2 that wrap arc is the diameter, which the cell on
    the other side of it reports.
    """
    step = k - 2
    labels = tuple(range(lo + 1, hi))  # one int object per label, shared by the cells
    out = []
    for bars in combinations(range((hi - lo - 1) // step + k - 3), step):
        cell = (lo, *[labels[i + step * (b - i)] for i, b in enumerate(bars)], hi)
        cell_diags = tuple((a, b) for a, b in zip(cell, cell[1:]) if b - a > 1)
        sides = tuple((a, b) for a, b in reversed(cell_diags) if b - a != k - 1)
        out.append((cell_diags, sides, _central_of(cell, n)))
    return out


def _completions(interval, k: int, n: int, table: dict) -> tuple:
    """Build the table entry ``(cells, ds, cs)`` of a region and return it.

    A region with at most ``_REPLAY_LIMIT`` completions gets them in walk
    order: ``ds`` holds each one's diagonals and ``cs`` its central
    component, or ``cs`` is None when no completion holds one.  ``cells`` then
    lists the completions as side-less cells, so the walk takes a whole
    completion in one step.  Any other region keeps its :func:`_cells`, with
    ``ds`` None: the builder gives up past the bound, on a side that gave up,
    and on completions that break the one-central rule, which the walk then
    reports where it meets them.  Each cell has a completion, so a region
    with more cells than the bound gives up at once; that also bounds the
    depth of the recursion into sides, which are looked up in, or added to,
    the same table, so each interval's cells are built once.
    """
    cells = _cells(*interval, k, n)
    table[interval] = entry = (cells, None, None)
    if len(cells) > _REPLAY_LIMIT:
        return entry
    ds: list = []
    cs: list = []
    for cell_diags, sides, cell_central in cells:
        subs = []
        for side in reversed(sides):
            sub_cells, sub_ds, _ = table.get(side) or _completions(side, k, n, table)
            if sub_ds is None:
                return entry
            subs.append(sub_cells)
        for parts in product(*subs):
            diags, central = cell_diags, cell_central
            for part_diags, _, part_central in parts:
                diags += part_diags
                if part_central is not None:
                    if central is not None:
                        return entry
                    central = part_central
            ds.append(diags)
            cs.append(central)
            if len(ds) > _REPLAY_LIMIT:
                return entry
    held = any(cs)
    if held and not all(cs):
        return entry
    table[interval] = entry = (list(zip(ds, repeat(()), cs)), ds, cs if held else None)
    return entry


#: The one completion of a region that is already complete, so that a single
#: object is a batch like a replay.
_ONE = ((),)


def _batches(n: int, k: int) -> Iterator:
    """Every k-angulation of the n-gon, as batches ``(diags, ds, cs, central)``.

    Empty stream when n fails the parity constraint n = 2 (mod k-2).

    Each batch is the objects ``diags + d`` for ``d`` in ``ds``, with central
    components ``cs``, or ``central`` for each when ``cs`` is None.  ``diags``
    is the walk's own list of the diagonals so far, valid until the next
    batch; a single object is the batch of one empty completion.

    Depth-first on one explicit stack, one cell choice per step.  ``pending``
    holds the intervals still to fill, a cons stack ``((lo, hi), rest)`` that
    frames share.  A frame ``(cells, i, pending, mark, central)`` resumes an
    interval at its i-th cell: it restores ``pending``, truncates ``diags`` to
    ``mark`` and restores the central component found so far.  An interval's
    last cell pushes no frame.  Each interval's table entry comes from
    :func:`_completions` on its first entry and is reused until the call
    ends.  A small interval that is the last one pending is not entered: its
    completions are one batch, when each gives the object exactly one central
    component.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if _fuss_index(n, k) is None:
        return
    table: dict = {}
    diags: list = []
    stack: list = []
    cells = _completions((0, n - 1), k, n, table)[0]
    i, pending, mark, central = 0, None, 0, None
    while True:
        if i + 1 < len(cells):
            stack.append((cells, i + 1, pending, mark, central))
        cell_diags, sides, cell_central = cells[i]
        diags += cell_diags
        if cell_central is not None:
            if central is not None:
                raise AssertionError(f"two central components {central} and {cell_central}")
            central = cell_central
        for side in sides:
            pending = (side, pending)
        if pending is not None:
            interval, pending = pending
            cells, ds, cs = table.get(interval) or _completions(interval, k, n, table)
            # Replay only the last interval pending, when small and when each
            # completion leaves exactly one central component; otherwise enter
            # it, so that a broken rule raises at its first object as before.
            if pending is not None or ds is None or (cs is None) == (central is None):
                i = 0
                mark = len(diags)
                continue
            yield diags, ds, cs, central
        elif central is None:
            raise AssertionError(f"no central component in {tuple(diags)}")
        else:
            yield diags, _ONE, None, central
        if not stack:
            return
        cells, i, pending, mark, central = stack.pop()
        del diags[mark:]


def _classified(n: int, k: int) -> Iterator:
    """Every k-angulation of the n-gon as ``(diagonals, central)``, exactly once.

    Empty stream when n fails the parity constraint n = 2 (mod k-2).

    The reader of :func:`_batches` that needs each object: it flattens every
    batch, in walk order, into the diagonals so far plus one completion,
    with that completion's central component.
    """
    for diags, ds, cs, central in _batches(n, k):
        base = tuple(diags)
        yield from zip(map(base.__add__, ds), cs or repeat(central))


def enumerate_kangulations(n: int, k: int = 3) -> Iterator[Dissection]:
    """Every dissection of the n-gon into k-gons, exactly once.

    Empty stream when n fails the parity constraint n = 2 (mod k-2).
    """
    # _classified yields every diagonal in range and oriented, so the
    # objects skip Dissection's checks.
    for diags, _ in _classified(n, k):
        yield Dissection._make((n, frozenset(diags), k))


class CensusEntry(NamedTuple):
    """One central-component shape with its number of dissections."""

    key: "str | tuple[int, ...]"
    count: int


def _key_order(key):
    return (0, ()) if key == DIAMETER else (1, key)


def _central_tally(n: int, k: int) -> Counter:
    """Number of k-angulations of the n-gon per central component.

    Reads :func:`_batches` directly: a batch under one central component
    adds its size to that key, and one that carries its own central
    components counts them, so no object's diagonals are built.
    """
    tally: Counter = Counter()
    for _, ds, cs, central in _batches(n, k):
        if cs is None:
            tally[central] += len(ds)
        else:
            tally.update(cs)
    return tally


def central_census(n: int, k: int = 3) -> list:
    """Tally all dissections of the n-gon by central-component shape key.

    Keys are DIAMETER or the sorted cyclic side lengths of the central cell;
    entries come out DIAMETER first, then lexicographic.
    """
    tally: Counter = Counter()
    for central, count in _central_tally(n, k).items():
        tally[central.shape_key()] += count
    return [CensusEntry(key, tally[key]) for key in sorted(tally, key=_key_order)]


def _shape_json(key):
    """A census key in JSON form: "diameter", or the sorted side lengths as a list."""
    return DIAMETER if key == DIAMETER else list(key)


def census_to_json(n: int, k: int, entries) -> dict:
    """JSON-ready census: counts as decimal strings, shapes as lists or "diameter"."""
    return {
        "n": n,
        "k": k,
        "entries": [{"shape": _shape_json(e.key), "count": str(e.count)} for e in entries],
    }


def count_vertex0_outside(n: int) -> int:
    """Exhaustive count of triangulations whose central component avoids vertex 0."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return sum(
        count for central, count in _central_tally(n, 3).items() if not contains_vertex(central, 0)
    )
