"""Acceptance suite: every criterion at full range, with its runtime budget.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

import time
import xml.etree.ElementTree as ET

import pytest

from polycenter import (
    DIAMETER,
    Dissection,
    catalan,
    catalan_mod,
    central_census,
    central_component,
    central_recursion_rhs,
    count_vertex0_outside,
    dyck_formula,
    dyck_midpoint_uu_bruteforce,
    face_arcs,
    fixed_vertex_outside,
    fixed_vertex_outside_double_sum,
    kang_recursion_rhs,
    kangulation_count,
    parse_diagonals,
    placement_count,
    predict_mod2,
    predict_mod4,
    quad_recursion_rhs,
    quadrangulation_count,
    render_svg,
)
from test_cli import FIGURE_STYLE_12GON
from test_model import lemma_multiplicity_3, multiplicity_table_4


def check(number, name, budget_s, body):
    start = time.perf_counter()
    try:
        body()
        ok = True
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - start
        print(f"{'PASS' if ok else 'FAIL'}: criterion {number} ({name}) in {elapsed:.1f}s")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"


def test_criterion_1_central_recursion():
    def body():
        for n in range(3, 301):
            assert central_recursion_rhs(n) == catalan(n - 2), n

    check(1, "triangulation recursion n<=300", 10, body)


def test_criterion_2_quad_recursion():
    def body():
        for n in range(2, 61):
            assert quad_recursion_rhs(n) == quadrangulation_count(n), n

    check(2, "quadrangulation recursion n<=60", 10, body)


def test_criterion_3_kang_recursion():
    def body():
        for k in (3, 4, 5, 6):
            n = k + (k - 2)
            while n <= 100:
                assert kang_recursion_rhs(n, k) == kangulation_count(n, k), (n, k)
                n += k - 2

    check(3, "k-angulation recursion k<=6 n<=100", 60, body)


def test_criterion_4_oracle_census():
    def body():
        cases = (
            [(n, 3) for n in range(3, 17)]
            + [(n, 4) for n in range(4, 19, 2)]
            + [(n, 5) for n in range(5, 21, 3)]
            + [(n, 6) for n in range(6, 23, 4)]
        )
        for n, k in cases:
            entries = central_census(n, k)
            assert sum(e.count for e in entries) == kangulation_count(n, k), (n, k)
            for e in entries:
                if e.key == DIAMETER:
                    expected = (n // 2) * kangulation_count(n // 2 + 1, k) ** 2
                else:
                    expected = placement_count(e.key, n)
                    for part in e.key:
                        expected *= kangulation_count(part + 1, k)
                assert e.count == expected, (n, k, e)

    check(4, "brute-force census vs recursion terms", 120, body)


def test_criterion_5_mod2_mod4():
    def body():
        for n in range(4097):
            assert predict_mod2(n) == catalan_mod(n, 2), n
            assert predict_mod4(n) == catalan_mod(n, 4), n

    check(5, "parity iff and mod-4 classification n<=4096", 30, body)


def test_criterion_6_modp_catalan():
    def body():
        for p in (5, 7, 11, 13, 17):
            for n in range(p - 2, 3001, p):
                assert catalan_mod(n, p) == 0, (p, n)

    check(6, "mod-p Catalan divisibility n<=3000", 60, body)


def test_criterion_7_modp_kangulation():
    def body():
        for p in (3, 5, 7, 11):
            for k in range(3, 8):
                if k % p == 0:
                    continue
                for n in range(p, 401, p):
                    if n >= k and (n - 2) % (k - 2) == 0:
                        assert kangulation_count(n, k) % p == 0, (p, k, n)

    check(7, "mod-p k-angulation divisibility n<=400", 30, body)


def test_criterion_8_fixed_vertex():
    def body():
        spot = {4: 1, 5: 2, 6: 9}
        for n in range(4, 14):
            closed = fixed_vertex_outside(n)
            assert closed == count_vertex0_outside(n), n
            assert closed == fixed_vertex_outside_double_sum(n), n
            assert closed == dyck_midpoint_uu_bruteforce(n - 1), n
            if n in spot:
                assert closed == spot[n]
        for n in range(4, 301):
            assert fixed_vertex_outside(n) == dyck_formula(n - 2), n

    check(8, "fixed-vertex counts: brute, closed forms, Dyck", 120, body)


def test_criterion_9_placement_count():
    def body():
        for n in range(3, 41):
            for i in range(1, n):
                for j in range(i, n):
                    k = n - i - j
                    if k < j or 2 * k >= n:
                        continue
                    assert placement_count((i, j, k), n) == lemma_multiplicity_3(i, j, k, n)
        for n in range(4, 31):
            for i in range(1, n):
                for j in range(i, n):
                    for k in range(j, n):
                        l = n - i - j - k
                        if l < k or 2 * l >= n or 2 * k >= n:
                            continue
                        assert placement_count((i, j, k, l), n) == multiplicity_table_4(i, j, k, l)
        from collections import Counter
        from itertools import combinations

        for k in (3, 4, 5):
            for n in range(k, 21):
                tally = Counter()
                for subset in combinations(range(n), k):
                    tally[tuple(sorted(face_arcs(subset, n)))] += 1
                for key, count in tally.items():
                    if all(2 * a < n for a in key):
                        assert placement_count(key, n) == count, (n, key)

    check(9, "placement multiplicities vs tables and brute force", 30, body)


def test_criterion_10_svg_renderer():
    def body():
        cases = [
            (Dissection(4, {(0, 2)}), "line"),
            (Dissection(6, {(0, 2), (2, 4), (0, 4)}), "polygon"),
            (Dissection(12, parse_diagonals(FIGURE_STYLE_12GON)), "polygon"),
        ]
        ns = "{http://www.w3.org/2000/svg}"
        for d, tag in cases:
            svg = render_svg(d, highlight_central=True)
            assert svg == render_svg(d, highlight_central=True)
            root = ET.fromstring(svg)
            central = [el for el in root.iter() if el.get("class") == "central"]
            assert len(central) == 1
            assert central[0].tag == f"{ns}{tag}"
            assert len([el for el in root.iter() if el.get("class") == "vertex"]) == d.n
        fig = cases[2][0]
        assert sorted(face_arcs(central_component(fig).vertices, 12)) == [3, 4, 5]

    check(10, "SVG renderer deterministic with one highlight", 30, body)
