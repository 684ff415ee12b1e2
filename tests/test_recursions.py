"""Central-component recursions and the fixed-vertex formulas."""

import sys
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
    fuss_catalan,
    kang_recursion_rhs,
    kangulation_count,
    placement_count,
    quad_recursion_rhs,
    quadrangulation_count,
)
from polycenter import sequences
from polycenter.recursions import _central, _central_sum, _central_terms, _slot_width, bounded_partitions


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
            # Shapes where runs of equal indices start or end: a run of
            # zeros, a run inside the tuple, a run that ends it below top or
            # a run at top.  Each note gives the row's indices j (side
            # 1 + (k-2)j) and the runs it pins in the term stream.
            (6, 3, (2, 2, 2)),  # (1, 1, 1): one run at top, the whole triple
            (12, 4, (3, 3, 3, 3)),  # (1, 1, 1, 1): one run below top, the whole tuple
            (17, 5, (1, 4, 4, 4, 4)),  # (0, 1, 1, 1, 1): a run of four ends the tuple below top
            (11, 3, (3, 3, 5)),  # (2, 2, 4): a run of two ends below a single at top
            (17, 5, (1, 1, 4, 4, 7)),  # (0, 0, 1, 1, 2): two runs of two end below top
            (13, 3, (1, 6, 6)),  # (0, 5, 5): a run of two at top starts above a zero
            (12, 4, (1, 1, 5, 5)),  # (0, 0, 2, 2): a run of zeros, then a run of two at top
            (14, 4, (3, 3, 3, 5)),  # (1, 1, 1, 2): a run of three ends below top
            (20, 4, (3, 5, 5, 7)),  # (1, 2, 2, 3): a run of two inside the tuple
            (22, 4, (3, 5, 7, 7)),  # (1, 2, 3, 3): a run of two ends the tuple below top
            (5, 3, (1, 2, 2)),  # (0, 1, 1): a run of two at top, the pentagon's one triple
            (10, 4, (1, 3, 3, 3)),  # (0, 1, 1, 1): a run of three at top starts above a zero
            (14, 4, (1, 3, 5, 5)),  # (0, 1, 2, 2): a run of two at top above two singles
            (26, 4, (3, 3, 9, 11)),  # (1, 1, 4, 5): a nonzero run of two starts the tuple
            (17, 5, (1, 1, 1, 7, 7)),  # (0, 0, 0, 2, 2): a run of three zeros meets a run at top
        ],
    )
    def test_edge_families(self, n, k, shape):
        terms = list(_central_terms(n, k))
        assert shape in dict(terms)
        assert terms == reference_terms(n, k)

    def test_triangle_top_is_half_the_index_sum(self):
        # _central_sum closes the k = 3 triples on their largest index, which
        # runs up to top = total // 2 and so takes about total/6 values
        for n in range(3, 2001):
            assert _central(n, 3)[3] == (n - 3) // 2, n

    @pytest.mark.parametrize("k", [10, 17, 40, 101])
    def test_sum_matches_terms_when_k_exceeds_the_index_sum(self, k):
        # at m <= 8 the k indices start with a run of at least k - m zeros:
        # the numerator is perm(k, k - zeros) and runs grow past length 2
        for m in range(1, 9):
            n = (k - 2) * m + 2
            expected = sum(count for _, count in reference_terms(n, k))
            assert _central_sum(n, k) == sum(count for _, count in _central_terms(n, k)) == expected, (n, k)

    def test_sum_at_a_k_beyond_any_tuple(self):
        # k = 10**6 indices summing to 3: index 2 is the diameter, so top is
        # 1 and the one cell is k - 3 zeros and three ones, read from slot 3
        # of a power of two packed slots, never a tuple of k indices
        n, k = (10**6 - 2) * 4 + 2, 10**6
        _, diameter, m, top = _central(n, k)
        assert (m - 1, top) == (3, 1)
        assert _central_sum(n, k) - diameter == n * (k - 1) * (k - 2) // 6

    @pytest.mark.parametrize("k,most", [(20, 50), (50, 45), (200, 40)])
    def test_merged_prefixes(self, k, most):
        # many sorted tuples share one coefficient of the packed power;
        # term by term where the term stream is small
        for m in range(1, most + 1):
            n = (k - 2) * m + 2
            assert _central_sum(n, k) == fuss_catalan(m, k - 1), (n, k)
            if m <= 12:
                assert _central_sum(n, k) == sum(count for _, count in _central_terms(n, k)), (n, k)

    @pytest.mark.parametrize("k", range(4, 10))
    def test_slot_holds_every_power_coefficient(self, k):
        # The packed power keeps slots 0..T of each P^j, j <= k, and every
        # one of them must fit below the top bit of its slot, whatever top
        # cuts P off at.  P^j is convolved with plain lists;
        # test_terms_match_placement_formula checks the sums.
        c = sequences._fuss_catalan_prefix(12, k - 1)
        for total in range(13):
            bits = _slot_width(total, k) - 1
            power = p = c[: total + 1]
            assert max(p) < 2**bits
            for j in range(2, k + 1):
                power = [sum(power[i] * p[d - i] for i in range(d + 1)) for d in range(total + 1)]
                assert max(power) < 2**bits, (k, total, j)

    def test_walk_does_not_recurse(self):
        # a walk that took one frame per index would need 47 at (3362, 50),
        # more than the 25 left above the caller
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 25)
        try:
            assert _central_sum(3362, 50) == fuss_catalan(70, 49)
        finally:
            sys.setrecursionlimit(limit)


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
        # 2000 indices summing to 1: the power squares two packed slots
        # 11 times and never lists the 1999 zeros of a tuple
        assert kang_recursion_rhs(3998, 2000) == kangulation_count(3998, 2000) == 1999

    def test_large_k_builds_no_ratio(self, monkeypatch):
        # The one ratio stepped is F(1)/F(0) = (1, 1), and the placement
        # multiplicity is the one factor n/k: a huge k whose cells have
        # indices summing to 1 builds nothing of size k
        calls = []

        def counted(k, start=0):
            for m, pair in enumerate(ratios(k, start), start):
                calls.append((m, k, pair))
                yield pair

        ratios = sequences._ratios
        monkeypatch.setattr(sequences, "_prefixes", {})
        monkeypatch.setattr(sequences, "_ratios", counted)
        assert kang_recursion_rhs(399998, 200000) == kangulation_count(399998, 200000)
        assert calls == [(0, 199999, (1, 1))]

    def test_large_k_holds_no_index_tuple(self, monkeypatch):
        # The power holds m packed slots: nothing it holds grows with k
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

        def counted(k, start=0):
            nonlocal steps
            for pair in ratios(k, start):
                if k == 2:
                    steps += 1
                yield pair

        ratios = sequences._ratios
        monkeypatch.setattr(sequences, "_prefixes", {})
        monkeypatch.setattr(sequences, "_ratios", counted)
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
