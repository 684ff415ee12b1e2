"""Brute-force generators and the central-component census."""

import hashlib
import json
import time
from collections import Counter, deque
from itertools import chain, combinations, product, repeat, takewhile
from operator import itemgetter

import pytest

from polycenter import (
    DIAMETER,
    central_census,
    census_to_json,
    count_vertex0_outside,
    catalan,
    enumerate_kangulations,
    fixed_vertex_outside,
    fuss_catalan,
    kangulation_count,
    placement_count,
)
from polycenter import enumeration
from polycenter.enumeration import (
    _ONE,
    _REPLAY_LIMIT,
    _batches,
    _cells,
    _central_tally,
    _classified,
    _completions,
)
from polycenter.model import CentralComponent, Dissection, central_component, face_arcs


def _reference_regions(lo, hi, k, n):
    """Recursive reference for the stream of ``_classified``.

    Yields ``(diagonals, central)`` for every k-angulation of the interval
    lo..hi on base edge (lo, hi): for each cell in ``combinations`` order,
    the cell's diagonals followed by the product of its sides' streams, the
    last side varying fastest.
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
                cell_central = CentralComponent(n, (a, b))
        if cell_central is None and all(2 * a < n for a in face_arcs(cell, n)):
            cell_central = CentralComponent(n, cell)
        sub = [list(_reference_regions(a, b, k, n)) for a, b in sides]
        for parts in product(*sub):
            diags = cell_diags
            central = cell_central
            for p, c in parts:
                diags += p
                if c is not None:
                    assert central is None, (central, c)
                    central = c
            yield diags, central


def _reference_classified(n, k):
    if (n - 2) % (k - 2):
        return []
    return list(_reference_regions(0, n - 1, k, n))


class TestTriangulations:
    def test_smallest(self):
        assert [d.diagonals for d in enumerate_kangulations(3)] == [frozenset()]
        got = {frozenset(d.diagonals) for d in enumerate_kangulations(4)}
        assert got == {frozenset({(0, 2)}), frozenset({(1, 3)})}

    def test_hexagon_count(self):
        assert sum(1 for _ in enumerate_kangulations(6)) == 14

    @pytest.mark.parametrize("n", range(3, 15))
    def test_totals_and_no_duplicates(self, n):
        seen = set()
        for d in enumerate_kangulations(n):
            assert len(d.diagonals) == n - 3
            seen.add(d.diagonals)
        assert len(seen) == catalan(n - 2)


class TestKangulations:
    def test_hexagon_quadrangulations(self):
        got = {d.diagonals for d in enumerate_kangulations(6, 4)}
        assert got == {
            frozenset({(0, 3)}),
            frozenset({(1, 4)}),
            frozenset({(2, 5)}),
        }

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_single_cell(self, k):
        assert [d.diagonals for d in enumerate_kangulations(k, k)] == [frozenset()]

    def test_decagon_quadrangulations(self):
        assert sum(1 for _ in enumerate_kangulations(10, 4)) == 55
        assert fuss_catalan(4, 3) == 55

    def test_parity_empty_stream(self):
        assert list(enumerate_kangulations(7, 4)) == []

    @pytest.mark.parametrize("k", [4, 5])
    def test_totals_match_closed_form(self, k):
        for n in range(k, 15):
            if (n - 2) % (k - 2):
                continue
            seen = {d.diagonals for d in enumerate_kangulations(n, k)}
            assert len(seen) == kangulation_count(n, k)


#: sha256 of the ``_classified`` stream, recorded before small regions were
#: replayed: per object, the labels of its diagonals, 255, the vertices of its
#: central component and 255, as bytes.
_STREAM_SHA256 = {
    (14, 3): "f2c66373ec33c3f7ab5dfe415a986dd131501cf3fe82df93bf366b44179fd34d",
    (15, 3): "ac698196dccf9245aa99a4bbe60fcbd1ef6a208982cc65a0bfa1e72c7adfe093",
    (18, 4): "b4234c2a757e6b2868f48852c4e01b6b3a3de2f08463f4581e6de59f2e8f0140",
    (20, 5): "83ebd186c87f98f24f89fc4f56a21fefb8b9418aa89717e1ae92848c83fd80db",
    (26, 6): "0c2e7c9fe107d323339a7d14c9d5c110a96223163398266ba41ebe18c3085797",
    (42, 22): "39b523afcfcf084bc20a368ea6854191c5274b747f1f42efcedefadafaa97d4d",
    (62, 32): "215438d302f40ffebe6bc51fd4ce248a6b1f0b43081eba1fcfaa7d7790e7b02e",
}


class TestClassifiedStream:
    """The central component picked while building cells matches the faces() path."""

    @pytest.mark.parametrize(
        "n,k",
        [(n, 3) for n in range(3, 12)]
        + [(n, 4) for n in range(4, 13, 2)]
        + [(n, 5) for n in (5, 8, 11)]
        + [(n, 6) for n in (6, 10)],
    )
    def test_agrees_with_faces(self, n, k):
        stream = list(_classified(n, k))
        for diags, central in stream:
            assert central == central_component(Dissection(n, diags, k)), diags
        got = {frozenset(diags) for diags, _ in stream}
        assert len(got) == len(stream) == kangulation_count(n, k)
        assert got == {d.diagonals for d in enumerate_kangulations(n, k)}

    @pytest.mark.parametrize("n,k", [(12, 3), (14, 4)])
    def test_enumerator_yields_valid_dissections(self, n, k):
        """The enumerator skips Dissection's checks; the checked objects are the same."""
        got = list(enumerate_kangulations(n, k))
        want = [Dissection(n, diags, k) for diags, _ in _classified(n, k)]
        assert len(got) == len(want) == kangulation_count(n, k)
        for d, ref in zip(got, want):
            assert type(d) is Dissection
            assert d == ref

    @pytest.mark.parametrize(
        "n,k",
        [(n, 3) for n in range(3, 13)]
        + [(n, k) for k in (4, 5, 6) for n in range(k, 15)]
        + [(n, k) for k in range(7, 11) for n in range(k, 2 * k + 3)],
    )
    def test_matches_recursive_reference(self, n, k):
        """Same tuples, same order, same central components as the recursion."""
        got = list(_classified(n, k))
        want = _reference_classified(n, k)
        assert len(got) == len(want)
        for (diags, central), (ref_diags, ref_central) in zip(got, want):
            assert type(diags) is tuple
            assert diags == ref_diags
            assert central == ref_central, diags

    @pytest.mark.parametrize("n,k", sorted(_STREAM_SHA256))
    def test_stream_is_pinned(self, n, k):
        """The stream beyond the reach of the recursive reference, tuple for tuple."""
        digest = hashlib.sha256()
        for diags, central in _classified(n, k):
            digest.update(bytes([*chain.from_iterable(diags), 255, *central.vertices, 255]))
        assert digest.hexdigest() == _STREAM_SHA256[n, k]

    @pytest.mark.parametrize("n,k", [(16, 3), (40, 3), (40, 4), (41, 5), (42, 6)])
    def test_first_object_is_lazy(self, n, k):
        """The first dissection comes without enumerating the rest."""
        start = time.perf_counter()
        first = next(enumerate_kangulations(n, k))
        elapsed = time.perf_counter() - start
        assert len(first.diagonals) == (n - 2) // (k - 2) - 1
        assert elapsed < 5.0, elapsed


class TestReplay:
    """A small region is built once per call and replayed; the stream and its checks stay."""

    @pytest.mark.parametrize("n,k", [(14, 3), (13, 3), (16, 4), (17, 5), (22, 6)])
    def test_builder_matches_the_reference_or_gives_up(self, n, k):
        """Every region below the root: its sub-stream when small, else its plain cells.

        Each case has regions on both sides of the bound; for k = 3 a region
        of index j = 5 has 42 completions and one of j = 6 has 132.
        """
        small = set()
        for lo, hi in combinations(range(n), 2):
            if (hi - lo - 1) % (k - 2) or hi - lo <= k - 1 or hi - lo == n - 1:
                continue
            cells, ds, cs = _completions((lo, hi), k, n, {})
            small.add(ds is not None)
            if kangulation_count(hi - lo + 1, k) > _REPLAY_LIMIT:
                assert (cells, ds, cs) == (_cells(lo, hi, k, n), None, None), (lo, hi)
                continue
            want = list(_reference_regions(lo, hi, k, n))
            assert list(zip(ds, cs or repeat(None))) == want, (lo, hi)
            assert cells == [(diags, (), central) for diags, central in want]
            assert (cs is None) == (2 * (hi - lo) <= n)
        assert small == {True, False}

    @staticmethod
    def _until_raised(n, k, match):
        got = []
        with pytest.raises(AssertionError, match=match):
            for item in _classified(n, k):
                got.append(item)
        return got

    @staticmethod
    def _with_extra_central(monkeypatch, base):
        """Every cell on the base edge also reports itself as central."""
        real = enumeration._central_of

        def extra(cell, n):
            return real(cell, n) or (CentralComponent(n, cell) if (cell[0], cell[-1]) == base else None)

        monkeypatch.setattr(enumeration, "_central_of", extra)

    @staticmethod
    def _census_raises_the_same(n, k):
        """The census, which tallies batches without ``_classified``, fails alike."""
        with pytest.raises(AssertionError) as walk:
            deque(_classified(n, k), 0)
        with pytest.raises(AssertionError) as census:
            central_census(n, k)
        assert str(census.value) == str(walk.value)

    def test_extra_central_in_a_small_region_is_caught(self, monkeypatch):
        """The region's completions all report a central cell, so the walk meets two."""
        n, k, region = 12, 3, (7, 11)
        self._with_extra_central(monkeypatch, region)
        _, ds, cs = _completions(region, k, n, {})
        assert ds is not None and all(cs)
        got = self._until_raised(n, k, "two central components")
        assert got == list(takewhile(lambda item: region not in item[0], _reference_classified(n, k)))
        self._census_raises_the_same(n, k)

    def test_two_centrals_inside_a_small_region_are_caught(self, monkeypatch):
        """The builder gives up on the region, and the walk reports where it always did."""
        n, k, region = 8, 3, (0, 6)
        self._with_extra_central(monkeypatch, region)
        assert _completions(region, k, n, {})[1] is None
        got = self._until_raised(n, k, "two central components")

        def one_central(item):
            diags, central = item
            return region not in diags or (central.vertices[0], central.vertices[-1]) == region

        assert got == list(takewhile(one_central, _reference_classified(n, k)))
        self._census_raises_the_same(n, k)

    def test_a_small_region_missing_some_centrals_is_caught(self, monkeypatch):
        n, k, lost = 8, 3, (1, 3, 6)
        real = enumeration._central_of
        monkeypatch.setattr(enumeration, "_central_of", lambda cell, n: None if cell == lost else real(cell, n))
        assert _completions((0, 6), k, n, {})[1] is None
        got = self._until_raised(n, k, "no central component")
        assert got == list(takewhile(lambda item: item[1].vertices != lost, _reference_classified(n, k)))
        self._census_raises_the_same(n, k)

    def test_missing_central_in_a_small_region_is_caught(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_central_of", lambda cell, n: None)
        _, ds, cs = _completions((7, 11), 3, 12, {})
        assert ds is not None and cs is None
        with pytest.raises(AssertionError, match="no central component"):
            deque(_classified(12, 3), 0)
        self._census_raises_the_same(12, 3)


#: Sizes that reach every kind of batch: replays that carry their own central
#: components (the first four), replays under a central component already
#: found (all but (42, 22)), and single objects (the last three).
_BATCH_CASES = [(8, 3), (10, 3), (12, 4), (14, 4), (14, 3), (20, 5), (26, 6), (42, 22)]


def _batch_kind(batch):
    _, ds, cs, _ = batch
    if ds is _ONE:
        return "single"
    return "replay" if cs is not None else "replay under central"


class TestBatchTally:
    """The census counts the walk's batches whole; the count is the stream's."""

    @pytest.mark.parametrize("n,k", _BATCH_CASES)
    def test_tally_equals_the_stream(self, n, k):
        assert _central_tally(n, k) == Counter(map(itemgetter(1), _classified(n, k)))

    def test_every_batch_kind_is_reached(self):
        kinds = {_batch_kind(batch) for n, k in _BATCH_CASES for batch in _batches(n, k)}
        assert kinds == {"single", "replay", "replay under central"}


_FORCED_CASES = [(n, k) for k in range(3, 13) for n in range(k, 3 * k + 1) if (n - 2) % (k - 2) == 0]


class TestForcedRegions:
    """A region of exactly k labels holds one choice, so the walk never visits it."""

    @pytest.mark.parametrize("n,k", _FORCED_CASES)
    def test_k_label_interval_is_one_empty_cell(self, n, k):
        """Its one cell adds no diagonal, pushes no side and is never central."""
        for lo in range(n - k + 1):
            hi = lo + k - 1
            if hi - lo == n - 1:
                continue  # the root of the k-gon
            assert _cells(lo, hi, k, n) == [((), (), None)]

    @pytest.mark.parametrize("n,k", _FORCED_CASES)
    def test_classified_skips_k_label_intervals(self, n, k, monkeypatch):
        asked = []

        def recording_cells(lo, hi, *rest):
            asked.append((lo, hi))
            return _cells(lo, hi, *rest)

        monkeypatch.setattr(enumeration, "_cells", recording_cells)
        count = sum(1 for _ in _classified(n, k))
        assert count == kangulation_count(n, k)
        assert asked[0] == (0, n - 1)
        assert len(asked) == len(set(asked))
        forced = [(lo, hi) for lo, hi in asked if hi - lo == k - 1]
        assert forced == ([(0, n - 1)] if n == k else [])


class TestCensus:
    def test_hexagon(self):
        entries = {e.key: e.count for e in central_census(6, 3)}
        assert entries == {DIAMETER: 12, (2, 2, 2): 2}

    def test_pentagon(self):
        entries = {e.key: e.count for e in central_census(5, 3)}
        assert entries == {(1, 2, 2): 5}

    def test_square(self):
        entries = {e.key: e.count for e in central_census(4, 3)}
        assert entries == {DIAMETER: 2}

    def test_key_order(self):
        keys = [e.key for e in central_census(8, 3)]
        assert keys[0] == DIAMETER
        assert keys[1:] == sorted(keys[1:])

    @pytest.mark.parametrize("n,k", [(n, 3) for n in range(3, 12)] + [(n, 4) for n in (4, 6, 8, 10)])
    def test_completeness_and_term_by_term(self, n, k):
        entries = central_census(n, k)
        assert sum(e.count for e in entries) == kangulation_count(n, k)
        for e in entries:
            if e.key == DIAMETER:
                assert n % 2 == 0
                assert e.count == (n // 2) * kangulation_count(n // 2 + 1, k) ** 2
            else:
                assert sum(e.key) == n
                assert all(2 * part < n for part in e.key)
                assert list(e.key) == sorted(e.key)
                expected = placement_count(e.key, n)
                for part in e.key:
                    expected *= kangulation_count(part + 1, k)
                assert e.count == expected

    def test_json_schema(self):
        doc = census_to_json(6, 3, central_census(6, 3))
        assert doc["n"] == 6 and doc["k"] == 3
        assert doc["entries"][0] == {"shape": "diameter", "count": "12"}
        assert doc["entries"][1] == {"shape": [2, 2, 2], "count": "2"}


#: sha256 of ``json.dumps(census_to_json(n, k, central_census(n, k)),
#: sort_keys=True)``, recorded before the census tallied whole batches.
_CENSUS_SHA256 = {
    (16, 3): "12620cddddb41b23bf488103202cadb02bc9821a16159220162796d90748dc0e",
    (18, 4): "3dc812b932d96024c6945eda5093e6ec8eeb93c66d5d7cafa7e5591bdcedb956",
    (42, 22): "eb7062a45be1c140a9ccf7890f9fed477aed1e96434d23de64a01be24851ee84",
    (62, 32): "7f259edabfac080ef77fe7551234722c6e6aa0aef78e71e2e316dfbed3dc9483",
}


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: central_census(5, 2), "k must be >= 3"),
        (lambda: central_census(3, 4), "need n >= k, got n=3, k=4"),
        (lambda: count_vertex0_outside(2), "n must be >= 3"),
    ],
    ids=["census-k", "census-n", "vertex0"],
)
def test_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestCensusPinned:
    @pytest.mark.parametrize("n,k", sorted(_CENSUS_SHA256))
    def test_census_bytes(self, n, k):
        doc = json.dumps(census_to_json(n, k, central_census(n, k)), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == _CENSUS_SHA256[n, k]

    def test_vertex0_count_at_16(self):
        assert count_vertex0_outside(16) == fixed_vertex_outside(16) == 2265003


class TestVertex0Outside:
    def test_small_values(self):
        assert count_vertex0_outside(4) == 1
        assert count_vertex0_outside(5) == 2
        assert count_vertex0_outside(6) == 9

    def test_complement(self):
        for n in range(3, 11):
            outside = count_vertex0_outside(n)
            inside = sum(1 for _ in enumerate_kangulations(n)) - outside
            assert outside + inside == catalan(n - 2)
            assert inside > 0
