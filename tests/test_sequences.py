"""Closed-form sequence values against independent oracles."""

import sys
import threading
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from polycenter import (
    ballot_T,
    catalan,
    catalan_mod,
    fuss_catalan,
    kangulation_count,
    quadrangulation_count,
)
from polycenter import sequences
from polycenter.sequences import _fuss_catalan_prefix, _fuss_index, _ratio


def catalan_by_convolution(limit):
    """Independent oracle: c[n+1] = sum c[i] c[n-i], starting from c[0] = 1."""
    vals = [1]
    for n in range(limit):
        vals.append(sum(vals[i] * vals[n - i] for i in range(n + 1)))
    return vals


def catalan_mod_by_convolution(limit, m):
    """Same convolution, reduced mod m at every step."""
    vals = [1]
    for n in range(limit):
        vals.append(sum(vals[i] * vals[n - i] for i in range(n + 1)) % m)
    return vals


class TestCatalan:
    def test_base_and_conventions(self):
        assert catalan(0) == 1
        assert catalan(4) == 14
        assert catalan(-1) == 0
        assert catalan(Fraction(1, 2)) == 0
        assert catalan(Fraction(8, 2)) == 14

    def test_convolution_recursion_to_500(self):
        vals = catalan_by_convolution(500)
        for n in range(501):
            assert catalan(n) == vals[n]


class TestFussCatalan:
    def test_examples(self):
        assert fuss_catalan(2, 3) == 3
        for k in range(2, 8):
            assert fuss_catalan(0, k) == 1

    def test_reduces_to_catalan(self):
        for n in range(201):
            assert fuss_catalan(n, 2) == catalan(n)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            fuss_catalan(-1, 3)
        with pytest.raises(ValueError):
            fuss_catalan(3, 1)

    @given(st.integers(0, 60), st.integers(2, 8))
    def test_always_integral(self, n, k):
        assert fuss_catalan(n, k) >= 1


class TestFussCatalanPrefix:
    @pytest.mark.parametrize("k", [*range(2, 8), 1000, 1001])
    def test_any_growth_order_matches_fuss_catalan(self, monkeypatch, k):
        monkeypatch.setattr(sequences, "_prefixes", {})
        expected = [fuss_catalan(m, k) for m in range(301)]
        for max_m in (5, 300, 17, 0, 299, 300):
            assert _fuss_catalan_prefix(max_m, k) == expected[: max_m + 1]
        assert sequences._prefixes[k] == expected

    def test_returned_list_is_a_copy(self, monkeypatch):
        monkeypatch.setattr(sequences, "_prefixes", {})
        first = _fuss_catalan_prefix(10, 3)
        first[4] = -1
        first.append(-2)
        assert _fuss_catalan_prefix(11, 3) == [fuss_catalan(m, 3) for m in range(12)]

    def test_threads_growing_one_table(self, monkeypatch):
        # Eight threads grow one table at once, from the same start, with a
        # thread switch every microsecond; each list any of them gets back
        # must still be the exact prefix.
        expected = [fuss_catalan(m, 2) for m in range(801)]
        wrong = []
        start = threading.Barrier(8)

        def grow(offset):
            start.wait()
            for max_m in range(200 + offset, 801, 75):
                try:
                    if _fuss_catalan_prefix(max_m, 2) != expected[: max_m + 1]:
                        wrong.append(max_m)
                except ArithmeticError as exc:  # an inexact step from a corrupted table
                    wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(sequences, "_prefixes", {})
                threads = [threading.Thread(target=grow, args=(offset,)) for offset in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert sequences._prefixes[2] == expected[: len(sequences._prefixes[2])]
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_small_index_at_huge_k_is_cheap(self, monkeypatch):
        # F(2, k) = k: the step from F(1) multiplies no factor of size k
        monkeypatch.setattr(sequences, "_prefixes", {})
        start = time.perf_counter()
        assert _fuss_catalan_prefix(2, 10**6 - 1) == [1, 1, 999999]
        assert time.perf_counter() - start < 1.0

    def test_inexact_step_raises_and_keeps_the_table(self, monkeypatch):
        monkeypatch.setattr(sequences, "_prefixes", {2: [1, 1, 2]})
        monkeypatch.setattr(sequences, "_ratio", lambda m, k: (1, 3))
        with pytest.raises(ArithmeticError):
            _fuss_catalan_prefix(5, 2)
        assert sequences._prefixes[2] == [1, 1, 2]


class TestRatio:
    @pytest.mark.parametrize("k", [*range(2, 9), 1000, 10000, 10**6, 10**10])
    def test_matches_products_and_fuss_catalan(self, k):
        # Each side keeps s = min(m, k) - 1 terms once k(m+1) cancels m+1
        # and, for m < k, the terms both sides share, and s! cancels as
        # well; at k >= 10**6 the uncancelled products would have millions
        # of factors.
        for m in range(301) if k <= 8 else (0, 1, 2, 7):
            num, den = _ratio(m, k)
            if m == 0:
                assert (num, den) == (1, 1), k
            else:
                s = min(m, k) - 1
                assert num == k * comb(k * m + k - 1, s), (m, k)
                assert den == comb((k - 1) * m + s + 1, s), (m, k)
            assert fuss_catalan(m + 1, k) * den == fuss_catalan(m, k) * num, (m, k)

    @pytest.mark.parametrize("k", [*range(2, 9), 199, 1000])
    def test_few_factors_of_each_prime(self, k):
        # Kummer's theorem: p divides a binomial C(a, s) at most
        # floor(log_p a) times, so stripping p from a step is a few
        # divisions.
        def valuation(x, p):
            v = 0
            while x % p == 0:
                x //= p
                v += 1
            return v

        def floor_log(x, p):
            e = 0
            while x >= p:
                x //= p
                e += 1
            return e

        for p in (2, 3, 5, 7):
            for m in range(1, 301):
                num, den = _ratio(m, k)
                s = min(m, k) - 1
                assert valuation(num, p) <= valuation(k, p) + floor_log(k * m + k - 1, p), (m, k, p)
                assert valuation(den, p) <= floor_log((k - 1) * m + s + 1, p), (m, k, p)


class TestFussIndex:
    @pytest.mark.parametrize("k", range(3, 10))
    def test_matches_its_definition(self, k):
        for n in range(-5, 61):
            expected = next((m for m in range(61) if (k - 2) * m + 2 == n), None)
            assert _fuss_index(n, k) == expected, (n, k)


class TestQuadrangulation:
    def test_examples(self):
        assert quadrangulation_count(1) == 1
        assert quadrangulation_count(2) == 3
        assert quadrangulation_count(Fraction(1, 2)) == 0
        assert quadrangulation_count(-1) == 0

    def test_is_fuss_catalan_3(self):
        for n in range(201):
            assert quadrangulation_count(n) == fuss_catalan(n, 3)


class TestKangulation:
    def test_examples(self):
        assert kangulation_count(6, 3) == 14
        assert kangulation_count(6, 4) == 3
        assert kangulation_count(7, 4) == 0
        assert kangulation_count(2, 5) == 1

    def test_fuss_catalan_correspondence_both_ways(self):
        for k in range(2, 8):
            m = 0
            while (n := (k - 1) * m + 2) <= 200:
                assert kangulation_count(n, k + 1) == fuss_catalan(m, k)
                m += 1

    def test_parity_zero(self):
        for n in range(3, 50):
            for k in range(3, 8):
                if (n - 2) % (k - 2):
                    assert kangulation_count(n, k) == 0

    @pytest.mark.parametrize("count", [catalan, quadrangulation_count, kangulation_count])
    @pytest.mark.parametrize("arg", [2.0, "4", None])
    def test_non_int_non_fraction_raises_type_error(self, count, arg):
        # the zero convention covers negative and half-integer indices only
        with pytest.raises(TypeError):
            count(arg)


class TestBallot:
    def test_examples(self):
        assert ballot_T(4, 2) == 2
        assert ballot_T(3, 2) == 0
        for n in range(20):
            assert ballot_T(n, 0) == 1
        assert ballot_T(5, -1) == 0
        assert ballot_T(5, 9) == 0

    def test_vanishes_past_center(self):
        for n in range(40):
            for k in range(n + 2):
                if n - 2 * k + 1 <= 0:
                    assert ballot_T(n, k) == 0


@pytest.mark.parametrize(
    "call,message",
    [(lambda: kangulation_count(5, 2), "k must be >= 3"), (lambda: ballot_T(-1, 0), "n must be >= 0")],
    ids=["kangulation", "ballot"],
)
def test_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestCatalanMod:
    def test_examples(self):
        assert catalan_mod(7, 2) == 1
        assert catalan_mod(4, 2) == 0
        assert catalan_mod(2, 4) == 2

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_against_convolution_table(self, m):
        vals = catalan_mod_by_convolution(1000, m)
        for n in range(1001):
            assert catalan_mod(n, m) == vals[n]

    @pytest.mark.parametrize("m", [6, 12, 30, 1001, 2**10, 3**7, 5**4, 10**9 + 7, 2**64 + 13, 2**70 + 3])
    def test_against_exact_values(self, m):
        # Composite moduli, prime powers and moduli above 2**64, against
        # the exact bigint reduced.
        for n in range(400):
            assert catalan_mod(n, m) == catalan(n) % m, (n, m)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            catalan_mod(-1, 2)
        with pytest.raises(ValueError):
            catalan_mod(3, 1)
