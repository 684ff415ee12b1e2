"""Dissection model: faces, central components, placements."""

import pickle
import re
from collections import Counter
from itertools import combinations
from math import cos, sin, tau

import pytest

from polycenter import (
    DIAMETER,
    Dissection,
    central_component,
    contains_vertex,
    enumerate_kangulations,
    face_arcs,
    faces,
    model,
    parse_diagonals,
    placement_count,
)
from polycenter.enumeration import _classified


class TestDissection:
    def test_rejects_sides(self):
        with pytest.raises(ValueError):
            Dissection(6, {(0, 1)})
        with pytest.raises(ValueError):
            Dissection(6, {(0, 5)})

    def test_normalizes_orientation(self):
        d = Dissection(6, {(4, 0), (2, 0)})
        assert sorted(d.diagonals) == [(0, 2), (0, 4)]

    def test_value_semantics_and_validation(self):
        d = Dissection(6, [(4, 0), (2, 0)])
        same = Dissection(6, {(0, 2), (0, 4)}, 3)
        assert d == same and hash(d) == hash(same) == hash((6, frozenset({(0, 2), (0, 4)}), 3))
        assert d.k == 3
        assert repr(d) == "Dissection(n=6, diagonals=frozenset({(0, 2), (0, 4)}), k=3)"
        with pytest.raises(AttributeError):
            d.n = 7
        assert pickle.loads(pickle.dumps(d)) == d
        for args, message in [
            ((2, ()), "polygon needs n >= 3"),
            ((6, (), 2), "cells need k >= 3"),
            ((6, [(0, 6)]), "diagonal (0,6) out of range for n=6"),
            ((6, [(-1, 2)]), "diagonal (-1,2) out of range for n=6"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Dissection(*args)


def cross(d1, d2):
    (a, b), (c, d) = d1, d2
    return a < c < b < d or c < a < d < b


def split_faces(n, diagonals):
    """Reference cells by recursive splitting, or "cross" for a crossing set.

    Each diagonal splits the vertex list it falls in; a diagonal that is
    neither inside nor outside an earlier split crosses it.
    """
    out = []

    def split(vertices, pending):
        if not pending:
            out.append(tuple(vertices))
            return True
        x, y = pending[0]
        inner = [e for e in pending[1:] if x <= e[0] and e[1] <= y]
        outer = [e for e in pending[1:] if e[1] <= x or e[0] >= y or (e[0] <= x and y <= e[1])]
        if len(inner) + len(outer) != len(pending) - 1:
            return False
        return split([v for v in vertices if x <= v <= y], inner) and split(
            [v for v in vertices if v <= x or v >= y], outer
        )

    return sorted(out) if split(list(range(n)), sorted(diagonals)) else "cross"


CROSS_MESSAGE = re.compile(r"diagonals \((\d+), (\d+)\) and \((\d+), (\d+)\) cross")


class TestFaces:
    def test_square(self):
        assert faces(Dissection(4, {(0, 2)})) == [(0, 1, 2), (0, 2, 3)]

    def test_hexagon_triangulation(self):
        got = faces(Dissection(6, {(0, 2), (2, 4), (0, 4)}))
        assert got == [(0, 1, 2), (0, 2, 4), (0, 4, 5), (2, 3, 4)]

    def test_hexagon_quadrangulation(self):
        assert faces(Dissection(6, {(0, 3)}, k=4)) == [(0, 1, 2, 3), (0, 3, 4, 5)]

    def test_no_diagonals_single_cell(self):
        assert faces(Dissection(3, set())) == [(0, 1, 2)]

    def test_rejects_crossing(self):
        named = [
            (6, {(0, 2), (1, 3), (3, 5)}),
            (8, {(0, 5), (1, 3), (2, 4)}),  # crossing inside the region (0, 5) cuts off
            (8, {(0, 2), (3, 6), (4, 7)}),  # crossing outside the region (0, 2) cuts off
        ]
        for n, diags in named:
            with pytest.raises(ValueError, match="cross"):
                faces(Dissection(n, diags))
        for n in range(4, 9):
            diagonals = [(x, y) for x, y in combinations(range(n), 2) if 1 < y - x < n - 1]
            for size in (2, 3):
                for diags in combinations(diagonals, size):
                    crossing = any(cross(d1, d2) for d1, d2 in combinations(diags, 2))
                    try:
                        faces(Dissection(n, diags))
                        rejected = False
                    except ValueError as exc:
                        rejected = "cross" in str(exc)
                    assert rejected == crossing, (n, diags)

    def test_crossing_message_names_two_crossing_diagonals(self):
        for n, diags in [
            (4, {(0, 2), (1, 3)}),
            (8, {(0, 5), (1, 3), (2, 4)}),
            (9, {(0, 4), (1, 3), (2, 7), (5, 8)}),
            (12, {(0, 6), (6, 9), (7, 11), (8, 10)}),
        ]:
            with pytest.raises(ValueError) as exc:
                faces(Dissection(n, diags))
            match = CROSS_MESSAGE.fullmatch(str(exc.value))
            assert match, str(exc.value)
            a, b, c, d = map(int, match.groups())
            assert (a, b) in diags and (c, d) in diags
            assert cross((a, b), (c, d))

    def test_sweep_matches_recursive_split(self):
        # Every set of at most 4 diagonals for n <= 9: the same cells, or
        # the same rejection (a crossing, or a cell of the wrong size), and
        # a crossing message names two diagonals of the set that cross.
        for n in range(3, 10):
            diagonals = [(x, y) for x, y in combinations(range(n), 2) if 1 < y - x < n - 1]
            for size in range(5):
                for diags in combinations(diagonals, size):
                    expected = split_faces(n, diags)
                    for k in (3, 4, 5):
                        try:
                            got = faces(Dissection(n, diags, k))
                        except ValueError as exc:
                            match = CROSS_MESSAGE.fullmatch(str(exc))
                            if match:
                                a, b, c, d = map(int, match.groups())
                                assert {(a, b), (c, d)} <= set(diags), (n, diags)
                                assert cross((a, b), (c, d)), (n, diags)
                                got = "cross"
                            else:
                                assert "vertices; not a dissection into" in str(exc)
                                got = "size"
                        if expected == "cross":
                            assert got == "cross", (n, diags, k)
                        elif any(len(f) != k for f in expected):
                            assert got == "size", (n, diags, k)
                        else:
                            assert got == expected, (n, diags, k)

    def test_wrong_size_message_is_bounded(self):
        with pytest.raises(ValueError) as exc:
            faces(Dissection(10**6, ()))
        assert str(exc.value) == (
            "cell (0, 1, 2, 3, 4, 5, ..., 999999) has 1000000 vertices; "
            "not a dissection into 3-gons"
        )
        with pytest.raises(ValueError) as exc:
            faces(Dissection(12, {(0, 2)}))
        assert str(exc.value) == (
            "cell (0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11) has 11 vertices; "
            "not a dissection into 3-gons"
        )

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            faces(Dissection(6, {(0, 2)}))

    def test_triangulation_has_n_minus_2_triangles(self):
        for n in range(3, 10):
            for d in enumerate_kangulations(n):
                fs = faces(d)
                assert len(fs) == n - 2
                assert all(len(f) == 3 for f in fs)
                # faces partition the polygon: arcs of each face sum to n
                for f in fs:
                    assert sum(face_arcs(f, n)) == n


class TestCentralComponent:
    def test_square_diameter(self):
        c = central_component(Dissection(4, {(0, 2)}))
        assert c.vertices == (0, 2)

    def test_hexagon_cell(self):
        c = central_component(Dissection(6, {(0, 2), (2, 4), (0, 4)}))
        assert c.vertices == (0, 2, 4)
        assert c.shape_key() == (2, 2, 2)

    def test_hexagon_diameter(self):
        c = central_component(Dissection(6, {(0, 3), (1, 3), (3, 5)}))
        assert c.vertices == (0, 3)
        assert c.shape_key() == DIAMETER

    @pytest.mark.parametrize("n", range(3, 13))
    def test_two_vertices_exactly_when_a_diameter_is_drawn(self, n):
        for d in enumerate_kangulations(n):
            c = central_component(d)
            has_diameter = any(2 * (y - x) == n for x, y in d.diagonals)
            assert (len(c.vertices) == 2) == has_diameter

    @pytest.mark.parametrize("n", range(3, 13))
    def test_unique_classification_exhaustive(self, n):
        for d in enumerate_kangulations(n):
            c = central_component(d)  # raises if not exactly one candidate
            if n % 2 == 1:
                assert len(c.vertices) == 3
            if len(c.vertices) == 3:
                arcs = face_arcs(c.vertices, n)
                assert all(2 * a < n for a in arcs)
                i, j, k = sorted(arcs)
                assert i <= j <= k

    def test_contains_vertex(self):
        diam = central_component(Dissection(4, {(0, 2)}))
        assert contains_vertex(diam, 0)
        assert not contains_vertex(diam, 1)
        cell = central_component(Dissection(6, {(0, 2), (2, 4), (0, 4)}))
        assert contains_vertex(cell, 4)
        assert not contains_vertex(cell, 1)
        with pytest.raises(ValueError, match="^vertex 6 out of range for n=6$"):
            contains_vertex(cell, cell.n)

    def test_vertex_membership_count(self):
        for n in (8, 9, 10):
            for d in enumerate_kangulations(n):
                c = central_component(d)
                hits = sum(contains_vertex(c, v) for v in range(n))
                assert len(c.vertices) in (2, 3)
                assert hits == len(c.vertices)

    @pytest.mark.parametrize("k, top", [(3, 12), (4, 14), (5, 17), (6, 18)])
    def test_component_holds_the_origin_in_coordinates(self, k, top):
        """The paper's definition, read off points on the unit circle.

        A central cell is the one face that holds the origin strictly
        inside; a diameter leaves every face off the origin and passes
        through it.  No arc length is computed here.
        """
        for n in range(k, top + 1):
            points = [(cos(tau * v / n), sin(tau * v / n)) for v in range(n)]

            def wedge(a, b):
                # the origin's side of the edge a -> b: > 0 means to its left
                (ax, ay), (bx, by) = points[a], points[b]
                return ax * by - ay * bx

            for diags, central in _classified(n, k):
                d = Dissection(n, diags, k)
                assert central_component(d) == central
                inside = [
                    f for f in faces(d) if all(wedge(a, b) > 1e-9 for a, b in zip(f, f[1:] + f[:1]))
                ]
                if len(central.vertices) == 2:
                    assert central.vertices in d.diagonals
                    assert inside == []
                    assert abs(wedge(*central.vertices)) < 1e-9
                else:
                    assert inside == [central.vertices]

    def test_sweep_classification_matches_every_cell_rule(self):
        # central_component classifies inside faces' sweep; the reference
        # applies _central_of to every cell of faces(d).  Over every set of
        # at most 4 diagonals for n <= 9 they agree, or central_component
        # raises faces' own exception, type and message.
        for n in range(3, 10):
            diagonals = [(x, y) for x, y in combinations(range(n), 2) if 1 < y - x < n - 1]
            for size in range(5):
                for diags in combinations(diagonals, size):
                    for k in (3, 4, 5):
                        d = Dissection(n, diags, k)
                        try:
                            cells = faces(d)
                        except ValueError as exc:
                            with pytest.raises(ValueError) as got:
                                central_component(d)
                            assert type(got.value) is type(exc), (n, diags, k)
                            assert str(got.value) == str(exc), (n, diags, k)
                            continue
                        old = [c for f in cells if (c := model._central_of(f, n)) is not None]
                        assert len(old) == 1, (n, diags, k)
                        assert central_component(d) == old[0], (n, diags, k)

    @pytest.mark.parametrize("n, k", [(12, 3), (14, 4), (17, 5), (22, 6)])
    def test_sweep_classification_matches_on_enumerated(self, n, k):
        for d in enumerate_kangulations(n, k):
            old = [c for f in faces(d) if (c := model._central_of(f, n)) is not None]
            assert [central_component(d)] == old, d

    @pytest.mark.parametrize(
        "rule", [lambda cell, n: None, lambda cell, n: model.CentralComponent(n, cell)]
    )
    def test_hit_count_error_lists_cells_in_sorted_order(self, monkeypatch, rule):
        # The sweep closes (1, 3, 5) before the last cell (0, 1, 5); the
        # message lists them sorted, as the every-cell rule did.  Only cells
        # spanning half the polygon reach _central_of, so the rule rejects
        # the others itself and both readings see the same hits.
        def wide_rule(cell, n):
            return rule(cell, n) if 2 * (cell[-1] - cell[0]) >= n else None

        monkeypatch.setattr(model, "_central_of", wide_rule)
        d = Dissection(6, {(1, 3), (3, 5), (1, 5)})
        old = [c for f in faces(d) if (c := wide_rule(f, 6)) is not None]
        with pytest.raises(AssertionError) as exc:
            central_component(d)
        assert str(exc.value) == f"expected one central component, found {old}"
        if old:
            assert [c.vertices for c in old] == [(0, 1, 5), (1, 3, 5)]

    def test_two_hits_are_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(model, "_central_of", lambda cell, n: model.CentralComponent(n, cell))
        with pytest.raises(AssertionError, match="expected one central component"):
            central_component(Dissection(6, {(0, 2), (2, 4), (0, 4)}))


def lemma_multiplicity_3(i, j, k, n):
    """Three-case multiplicity table for central triangles."""
    if i == j == k:
        return n // 3
    if i < j == k or i == j < k:
        return n
    return 2 * n


def multiplicity_table_4(i, j, k, l):
    """Five-case multiplicity table for central quadrilaterals."""
    big_n = i + j + k + l
    if i == l:
        return big_n // 4
    if (i == k and k < l) or (i < j and j == l):
        return big_n
    if i == j and j < k and k == l:
        return 3 * big_n // 2
    if i < j < k < l:
        return 6 * big_n
    return 3 * big_n


class TestPlacementCount:
    def test_paper_examples(self):
        assert placement_count((3, 4, 5), 12) == 24
        assert placement_count((2, 2, 2), 6) == 2
        assert placement_count((1, 1, 2, 2), 6) == 9
        assert placement_count((1, 2, 2), 5) == 5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            placement_count((1, 2), 3)
        with pytest.raises(ValueError):
            placement_count((1, 2, 2), 6)  # wrong sum
        with pytest.raises(ValueError):
            placement_count((1, 2, 3), 6)  # length 3 not < n/2
        with pytest.raises(ValueError):
            placement_count((0, 3, 3), 6)

    def test_matches_triangle_table(self):
        for n in range(3, 41):
            for i in range(1, n):
                for j in range(i, n):
                    k = n - i - j
                    if k < j or 2 * k >= n:
                        continue
                    assert placement_count((i, j, k), n) == lemma_multiplicity_3(i, j, k, n)

    def test_matches_quadrilateral_table(self):
        for n in range(4, 31):
            for i in range(1, n):
                for j in range(i, n):
                    for k in range(j, n):
                        l = n - i - j - k
                        if l < k or 2 * l >= n or 2 * k >= n:
                            continue
                        assert placement_count((i, j, k, l), n) == multiplicity_table_4(i, j, k, l)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_subset_bruteforce(self, k):
        for n in range(k, 21):
            tally = Counter()
            for subset in combinations(range(n), k):
                tally[tuple(sorted(face_arcs(subset, n)))] += 1
            for key, count in tally.items():
                if all(2 * a < n for a in key):
                    assert placement_count(key, n) == count


class TestDiagonalNotation:
    def test_roundtrip(self):
        diags = parse_diagonals("0-2,2-4,4-0")
        assert diags == frozenset({(0, 2), (2, 4), (0, 4)})

    def test_empty(self):
        assert parse_diagonals("") == frozenset()
        assert parse_diagonals("  ") == frozenset()

    def test_malformed(self):
        for bad in ("0-2,xx", "1", "1-2-3", "a-b"):
            with pytest.raises(ValueError):
                parse_diagonals(bad)
