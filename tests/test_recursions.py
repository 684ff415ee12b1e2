"""Central-component recursions and the fixed-vertex formulas."""

import tracemalloc
from itertools import combinations, combinations_with_replacement, product
from math import prod

import pytest

from polycenter import (
    DIAMETER,
    ballot_T,
    catalan,
    central_recursion_rhs,
    count_vertex0_outside,
    dyck_formula,
    dyck_midpoint_uu_bruteforce,
    fixed_vertex_outside,
    fixed_vertex_outside_double_sum,
    kang_recursion_rhs,
    kangulation_count,
    placement_count,
    quad_recursion_rhs,
    quadrangulation_count,
)
from polycenter import sequences
from polycenter.recursions import _central, _central_sum, _central_terms, _weights, bounded_partitions


class TestBoundedPartitions:
    def test_plain(self):
        got = list(bounded_partitions(6, 3, 1, 2))
        assert got == [(2, 2, 2)]

    def test_residue_filter(self):
        assert list(bounded_partitions(6, 4, 1, 2, residue=1, mod=2)) == []
        assert list(bounded_partitions(4, 4, 1, 2, residue=1, mod=2)) == [(1, 1, 1, 1)]
        assert list(bounded_partitions(8, 4, 1, 5, residue=1, mod=2)) == [
            (1, 1, 1, 5),
            (1, 1, 3, 3),
        ]

    def test_nondecreasing_and_sum(self):
        for part in bounded_partitions(20, 4, 1, 9):
            assert list(part) == sorted(part)
            assert sum(part) == 20
            assert all(1 <= p <= 9 for p in part)

    def test_matches_exhaustive_reference(self):
        # grid covers parts 0 and 2 (the base cases), parts 1 (the general
        # loop onto parts 0), smallest > total, total > largest,
        # largest < total - smallest and residue mismatches, so every branch
        # runs on empty and non-empty results
        for parts, smallest, largest, residue, mod in product(
            range(0, 6), range(0, 4), range(0, 8), range(0, 3), (1, 2, 3)
        ):
            by_total = {}
            for c in combinations_with_replacement(range(smallest, largest + 1), parts):
                if all((v - residue) % mod == 0 for v in c):
                    by_total.setdefault(sum(c), []).append(c)
            for total in range(0, 17):
                got = list(bounded_partitions(total, parts, smallest, largest, residue, mod))
                assert got == by_total.get(total, []), (total, parts, smallest, largest, residue, mod)


def reference_terms(n, k):
    """The central-recursion terms built from the public pieces alone."""
    terms = []
    if n % 2 == 0:
        terms.append((DIAMETER, (n // 2) * kangulation_count(n // 2 + 1, k) ** 2))
    for shape in bounded_partitions(n, k, 1, (n - 1) // 2, residue=1 % (k - 2), mod=k - 2):
        count = placement_count(shape, n)
        for part in shape:
            count *= kangulation_count(part + 1, k)
        terms.append((shape, count))
    return terms


def brute_force_terms(n, k):
    """The central-recursion terms from every central cell listed one by one.

    A central cell is a k-subset of the vertices whose cyclic gaps are all
    below n/2.  It is the central component of every k-angulation that
    contains it, and those are counted by the product, over its sides, of
    the k-angulations of the sub-polygon each side cuts off.  The cells are
    tallied by sorted gaps, so no multiplicity formula and no partition
    generator is consulted.
    """
    tally = {}
    for cell in combinations(range(n), k):
        gaps = [b - a for a, b in zip(cell, cell[1:] + (cell[0] + n,))]
        if all(2 * gap < n for gap in gaps):
            shape = tuple(sorted(gaps))
            count = prod(kangulation_count(gap + 1, k) for gap in gaps)
            tally[shape] = tally.get(shape, 0) + count
    terms = [(DIAMETER, (n // 2) * kangulation_count(n // 2 + 1, k) ** 2)] if n % 2 == 0 else []
    return terms + [(shape, count) for shape, count in sorted(tally.items()) if count]


class TestCentralTerms:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_terms_match_brute_force_cells(self, k):
        for n in range(k, 19):
            assert list(_central_terms(n, k)) == brute_force_terms(n, k), (n, k)

    @pytest.mark.parametrize("k", range(3, 10))
    def test_terms_match_placement_formula(self, k):
        # every n, so the inadmissible ones, with a diameter-only or an empty
        # stream, are compared too
        for n in range(k, 151):
            expected = reference_terms(n, k)
            assert list(_central_terms(n, k)) == expected, (n, k)
            assert _central_sum(n, k) == sum(count for _, count in expected), (n, k)
            shapes = [shape for shape, _ in expected if shape != DIAMETER]
            assert shapes == sorted(shapes) and len(set(shapes)) == len(shapes)

    @pytest.mark.parametrize(
        "n, k, shape",
        [
            # The walk closes the last three indices x <= y <= b after an
            # index last, on x where top does not bound b and on b where it
            # does and b has fewer values.  k = 3 closes on x at n = 3 and 5
            # and on b from n = 6; k = 4..8 close on x at m = 1 and 3, on b
            # at m = 4 and on both from m = 5, n = (k-2)m + 2.
            (6, 3, (2, 2, 2)),  # on b: x == y == b
            (12, 4, (3, 3, 3, 3)),  # on x: x == last == y == b
            (17, 5, (1, 4, 4, 4, 4)),  # on x
            (11, 3, (3, 3, 5)),  # on b: x == y below b
            (17, 5, (1, 1, 4, 4, 7)),  # on b
            (13, 3, (1, 6, 6)),  # on b: y == b above x
            (12, 4, (1, 1, 5, 5)),  # on b: x == last and y == b at once, lo = last = total - 2b
            # Closed on x:
            (14, 4, (3, 3, 3, 5)),  # x == last == y < b, which needs b = total - 2 last > top
            (20, 4, (3, 5, 5, 7)),  # x == y above last
            (22, 4, (3, 5, 7, 7)),  # y == b above x
            (5, 3, (1, 2, 2)),
            # Closed on b:
            (10, 4, (1, 3, 3, 3)),  # x == y == b
            (14, 4, (1, 3, 5, 5)),  # y == b
            (26, 4, (3, 3, 9, 11)),  # x == last
            (17, 5, (1, 1, 1, 7, 7)),  # x == last and y == b at once
        ],
    )
    def test_edge_families(self, n, k, shape):
        terms = list(_central_terms(n, k))
        assert shape in dict(terms)
        assert terms == reference_terms(n, k)

    def test_buckets_are_the_distinct_placement_counts(self):
        # each bucket's divisor d gives one multiplicity arrangements // d,
        # and each bucket holds the sub-polygon products of the shapes with
        # that placement count.  Every admissible n <= 120 for k <= 8, m <= 8
        # above: the closings of test_edge_families, on x, on b and on both
        for k, n in [(k, n) for k in range(3, 9) for n in range(k, 121)] + [
            (k, (k - 2) * m + 2) for k in (10, 40) for m in range(1, 9)
        ]:
            c, _, m, top = _central(n, k)
            if m is None:
                continue
            arrangements, weights = _weights(n, k, m - 1, c, top)
            by_count = {}
            for shape, _ in reference_terms(n, k):
                if shape != DIAMETER:
                    count = placement_count(shape, n)
                    weight = prod(kangulation_count(side + 1, k) for side in shape)
                    by_count[count] = by_count.get(count, 0) + weight
            assert all(arrangements % d == 0 for d in weights), (n, k)
            assert {arrangements // d: weight for d, weight in weights.items()} == by_count, (n, k)
            if (n, k) == (30, 3):
                # all sides equal, two equal, all distinct
                assert sorted(by_count) == [n // 3, n, 2 * n]

    @pytest.mark.parametrize("k", [10, 17, 40, 101])
    def test_sum_matches_terms_when_k_exceeds_the_index_sum(self, k):
        # at m <= 8 the k indices start with a run of at least k - m zeros:
        # the numerator is perm(k, k - zeros) and runs grow past length 2
        for m in range(1, 9):
            n = (k - 2) * m + 2
            expected = sum(count for _, count in reference_terms(n, k))
            assert _central_sum(n, k) == sum(count for _, count in _central_terms(n, k)) == expected, (n, k)

    def test_buckets_do_not_grow_with_k(self):
        # k = 10**6 indices summing to 3: the walk holds one bucket per
        # divisor, not one entry per index.  Index 2 is the diameter, so
        # top is 1 and the one cell is k - 3 zeros and three ones
        n, k = (10**6 - 2) * 4 + 2, 10**6
        c, _, m, top = _central(n, k)
        assert (m - 1, top) == (3, 1)
        arrangements, weights = _weights(n, k, m - 1, c, top)
        assert len(weights) <= 5
        assert sum(arrangements // d * w for d, w in weights.items()) == n * (k - 1) * (k - 2) // 6


class TestCentralRecursion:
    def test_examples(self):
        assert central_recursion_rhs(4) == 2
        assert central_recursion_rhs(5) == 5
        assert central_recursion_rhs(6) == 14

    def test_identity_to_80(self):
        for n in range(3, 81):
            assert central_recursion_rhs(n) == catalan(n - 2)


class TestQuadRecursion:
    def test_examples(self):
        assert quad_recursion_rhs(1) == 1
        assert quad_recursion_rhs(2) == 3
        assert quad_recursion_rhs(4) == 55

    def test_identity_to_30(self):
        for n in range(1, 31):
            assert quad_recursion_rhs(n) == quadrangulation_count(n)


class TestKangRecursion:
    def test_examples(self):
        assert kang_recursion_rhs(6, 3) == 14
        assert kang_recursion_rhs(6, 4) == 3
        assert kang_recursion_rhs(8, 3) == 132

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_identity_to_40(self, k):
        n = k + (k - 2)
        while n <= 40:
            assert kang_recursion_rhs(n, k) == kangulation_count(n, k)
            n += k - 2

    def test_large_k_walks_a_shallow_stack(self):
        # 2000 indices summing to 1: the 1998 leading zeros are placed as
        # one run, so the walk does not recurse once per index
        assert kang_recursion_rhs(3998, 2000) == kangulation_count(3998, 2000) == 1999

    def test_large_k_builds_no_ratio(self, monkeypatch):
        # The one ratio stepped is F(1)/F(0) = (1, 1), and the placement
        # multiplicity divides the leading zeros' factorial away: a huge k
        # whose cells have indices summing to 1 builds nothing of size k
        calls = []

        def counted(m, k):
            calls.append((m, k, ratio(m, k)))
            return calls[-1][2]

        ratio = sequences._ratio
        monkeypatch.setattr(sequences, "_prefixes", {})
        monkeypatch.setattr(sequences, "_ratio", counted)
        assert kang_recursion_rhs(399998, 200000) == kangulation_count(399998, 200000)
        assert calls == [(0, 199999, (1, 1))]

    def test_large_k_holds_no_index_tuple(self, monkeypatch):
        # The walk tracks its depth as an int: nothing it holds grows with k
        monkeypatch.setattr(sequences, "_prefixes", {})
        n, k = 3 * 10**6 - 4, 10**6
        tracemalloc.start()
        try:
            value = kang_recursion_rhs(n, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == kangulation_count(n, k)
        assert peak < 2**20

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kang_recursion_rhs(7, 4)  # parity violation
        with pytest.raises(ValueError):
            kang_recursion_rhs(3, 3)  # single-cell base case excluded
        with pytest.raises(ValueError, match="k must be >= 3"):
            kang_recursion_rhs(10, 2)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: central_recursion_rhs(2), "n must be >= 3"),
        (lambda: quad_recursion_rhs(0), "n must be >= 1"),
        (lambda: fixed_vertex_outside(2), "n must be >= 3"),
        (lambda: fixed_vertex_outside_double_sum(2), "n must be >= 3"),
        (lambda: dyck_formula(-1), "m must be >= 0"),
        (lambda: dyck_midpoint_uu_bruteforce(0), "s must be >= 1"),
    ],
    ids=["central", "quad", "fixed-vertex", "double-sum", "dyck", "dyck-bruteforce"],
)
def test_refused_below_the_domain(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestFixedVertex:
    def test_closed_form_examples(self):
        assert fixed_vertex_outside(4) == 1
        assert fixed_vertex_outside(5) == 2
        assert fixed_vertex_outside(6) == 9

    def test_double_sum_examples(self):
        assert fixed_vertex_outside_double_sum(4) == 1
        assert fixed_vertex_outside_double_sum(5) == 2
        assert fixed_vertex_outside_double_sum(6) == 9

    def test_closed_form_equals_double_sum_to_300(self):
        for n in range(3, 301):
            assert fixed_vertex_outside(n) == fixed_vertex_outside_double_sum(n)

    @pytest.mark.parametrize("n", range(4, 12))
    def test_matches_bruteforce(self, n):
        assert count_vertex0_outside(n) == fixed_vertex_outside(n)

    def test_calls_share_one_catalan_prefix(self, monkeypatch):
        # fixed_vertex_outside(300) needs C(0..298), 298 ratio steps; the
        # central recursion to n = 200 needs no Catalan number past those.
        steps = 0

        def counted(m, k):
            nonlocal steps
            if k == 2:
                steps += 1
            return ratio(m, k)

        ratio = sequences._ratio
        monkeypatch.setattr(sequences, "_prefixes", {})
        monkeypatch.setattr(sequences, "_ratio", counted)
        assert [fixed_vertex_outside(n) for n in range(4, 301)] == [dyck_formula(n - 2) for n in range(4, 301)]
        assert all(central_recursion_rhs(n) == catalan(n - 2) for n in range(3, 201))
        assert 0 < steps <= 298


class TestDyck:
    def test_formula_examples(self):
        assert dyck_formula(2) == 1
        assert dyck_formula(3) == 2
        assert dyck_formula(4) == 9

    def test_formula_matches_ballot_numbers(self):
        for m in range(0, 401):
            expected = sum(ballot_T(m, j) * ballot_T(m, j + 1) for j in range(0, (m + 1) // 2))
            assert dyck_formula(m) == expected, m

    def test_bruteforce_examples(self):
        assert dyck_midpoint_uu_bruteforce(1) == 0
        assert dyck_midpoint_uu_bruteforce(3) == 1
        assert dyck_midpoint_uu_bruteforce(4) == 2

    def test_formula_matches_bruteforce(self):
        for s in range(1, 11):
            assert dyck_midpoint_uu_bruteforce(s) == dyck_formula(s - 1)

    def test_index_alignment_regression(self):
        # frozen offset: triangulation count at n lines up with semilength n-1
        for n in range(4, 201):
            assert fixed_vertex_outside(n) == dyck_formula(n - 2)
