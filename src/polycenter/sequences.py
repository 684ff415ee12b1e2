"""Exact closed-form sequence values.

All functions return Python ints (arbitrary precision).  The counts
catalan, quadrangulation_count and kangulation_count also take a
``Fraction``: a non-integer index maps to 0 per the sequence conventions,
as a negative one does, and any other non-int raises TypeError.  Divisions
in closed forms are checked to be exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count, islice
from math import comb, prod


def _integral(x) -> int | None:
    """int value of x when x is integer-valued, else None."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else None
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division {num}/{den}")
    return q


def catalan(n) -> int:
    """Catalan number C(n): the triangulations of an (n+2)-gon, kangulation_count(n + 2, 3).

    0 for negative or non-integer n.
    """
    return kangulation_count(n + 2, 3)


def fuss_catalan(n: int, k: int) -> int:
    """Fuss-Catalan number: binomial(kn, n)/((k-1)n + 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 2:
        raise ValueError("k must be >= 2")
    return _exact_div(comb(k * n, n), (k - 1) * n + 1)


def fuss_catalan_sweep(max_m: int, k: int = 2):
    """Iterate over fuss_catalan(m, k) for m = 0..max_m; Catalan numbers for k = 2.

    Each term comes from the previous one by the exact ratio

        F(m+1) / F(m) = prod_{j=1..k}(km + j) / ((m+1) prod_{j=2..k}((k-1)m + j)),

    so a step multiplies and divides the running value by small ints instead
    of computing a fresh binomial.  The product divides exactly because
    F(m+1) is an integer, and every division is checked.  The arguments are
    checked when the function is called, not when iteration starts.
    """
    if max_m < 0:
        raise ValueError("max_m must be >= 0")
    if k < 2:
        raise ValueError("k must be >= 2")
    return chain((1,), islice(_fuss_catalan_steps(k, 0, 1), max_m))


def _ratios(k: int, start: int = 0):
    """F(m+1)/F(m) for m = start, start + 1, ... as (numerator, denominator), products of k small ints."""
    top, bottom = k * start + 1, (k - 1) * start + 2  # the first factors, km + 1 and (k-1)m + 2
    for m_plus_1 in count(start + 1):
        yield prod(range(top, top + k)), m_plus_1 * prod(range(bottom, bottom + k - 1))
        top += k
        bottom += k - 1


def _fuss_catalan_steps(k: int, m: int, value: int):
    """F(m+1), F(m+2), ... with parameter k, stepped from value = F(m)."""
    for num, den in _ratios(k, m):
        value = _exact_div(value * num, den)
        yield value


#: k -> [F(0), F(1), ...] with parameter k, as far as any caller has asked.
_prefixes: dict = {}


def _fuss_catalan_prefix(max_m: int, k: int) -> list:
    """[fuss_catalan(m, k) for m in range(max_m + 1)] as a new list.

    The values come from one grow-only table per k, shared by the central
    recursions and the fixed-vertex forms: a request past the end of the
    table steps _ratios(k) on from where it ends, with every division
    checked, so each F(m) is computed once per process.  The table for k is
    never longer than the longest list a single call has asked for, which
    that call holds anyway.  fuss_catalan_sweep does not use it and stays lazy.
    """
    table = _prefixes.get(k, [1])
    if len(table) <= max_m:
        # A grown copy replaces the list, so no caller, in any thread, sees a
        # table that is half extended or extended twice from one end.
        table = [*table, *islice(_fuss_catalan_steps(k, len(table) - 1, table[-1]), max_m + 1 - len(table))]
        _prefixes[k] = table
    return table[: max_m + 1]


def quadrangulation_count(n) -> int:
    """Number of quadrangulations of a (2n+2)-gon: kangulation_count(2 * n + 2, 4).

    Returns 0 unless n is a nonnegative integer.
    """
    return kangulation_count(2 * n + 2, 4)


def kangulation_count(n, k: int = 3) -> int:
    """Number of dissections of an n-gon into k-gons.

    Nonzero only when n = (k-2)m + 2 for some integer m >= 0, in which case
    the count is the Fuss-Catalan number with parameters (m, k-1).  The
    degenerate n = 2 case counts 1 (an edge, dissected by doing nothing).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    i = _integral(n)
    if i is None:
        return 0
    m, r = divmod(i - 2, k - 2)
    if r or m < 0:
        return 0
    return fuss_catalan(m, k - 1)


def ballot_T(n: int, k: int) -> int:
    """Ballot number (n-2k+1)/(n-k+1) * binomial(n, k); 0 when k < 0 or n-2k+1 <= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or n - 2 * k + 1 <= 0:
        return 0
    return _exact_div((n - 2 * k + 1) * comb(n, k), n - k + 1)


def catalan_mod(n: int, m: int) -> int:
    """C(n) mod m for one n >= 0, reduced from the exact value catalan(n).

    Unlike catalan, a negative n raises ValueError.  Each call computes one
    binomial.  For residues over a range of n, the congruence verifiers step
    the ratio of fuss_catalan_sweep in residues mod p**e instead, with the
    powers of p counted exactly and no bigint.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 2:
        raise ValueError("modulus must be >= 2")
    return catalan(n) % m
