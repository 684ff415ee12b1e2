"""Exact closed-form sequence values.

All functions return Python ints (arbitrary precision).  The counts
catalan, quadrangulation_count and kangulation_count also take a
``Fraction``: a non-integer index maps to 0 per the sequence conventions,
as a negative one does, and any other non-int raises TypeError.  Divisions
in closed forms are checked to be exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count, islice, repeat
from math import comb, isqrt
from operator import mul


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


def _ratios(k: int, start: int = 0):
    """F(m+1)/F(m) with parameter k as (numerator, denominator) for m = start, start + 1, ...

    Each pair has its shared factors cancelled.  F(m, k) = (km)! / (m!
    ((k-1)m + 1)!), so the ratio is (km+1)...(km+k) over (m+1) times
    ((k-1)m+2)...((k-1)m+k).  km+k = k(m+1) cancels the
    m+1, and for m < k the k-m terms km+1...(k-1)m+k appear on both sides.
    For m >= 1 each side keeps s = min(m, k) - 1 terms, and both products
    hold s!, which cancels too, so each side is one math.comb: k C(km+k-1, s)
    over C((k-1)m+s+1, s), at k = 2 the ratio 2(2m+1)/(m+2).  At m = 0 the
    ratio is F(1)/F(0) = 1.  By Kummer's theorem a prime p divides C(a, s)
    at most floor(log_p a) times, so the numerator holds at most
    v_p(k) + floor(log_p(km + k - 1)) factors of p and the denominator at
    most floor(log_p((k-1)m + s + 1)).

    The stream is built of maps over ranges (1 <= m < k, where s = m - 1
    and the denominator is C(km, m - 1)) and over counts (m >= k, where
    s = k - 1), so a step calls no Python function.  Nothing is built
    ahead, and a stream started at any index begins there: at any k it
    holds a few ints.
    """
    low, high = max(start, 1), max(start, k)
    rising = range(low - 1, k - 1)  # s = m - 1 for m = low, ..., k - 1
    below_k = zip(
        map(mul, repeat(k), map(comb, range(k * low + k - 1, k * k + k - 1, k), rising)),
        map(comb, range(k * low, k * k, k), rising),
    )
    from_k = zip(
        map(mul, repeat(k), map(comb, count(k * high + k - 1, k), repeat(k - 1))),
        map(comb, count((k - 1) * high + k, k - 1), repeat(k - 1)),
    )
    return chain(repeat((1, 1), start == 0), below_k, from_k)


def _fuss_valuation(m: int, k: int, p: int) -> int:
    """v_p(F(m, k)) for m >= 0, k >= 2 and a prime p, by Legendre's formula.

    F(m, k) = (km)! / (m! ((k-1)m + 1)!) and v_p(x!) = sum over i >= 1 of
    x // p**i, so one loop over the powers of p floor-divides km, m and
    (k-1)m + 1 together.  For m >= 1 the other two are at most km; at m = 0
    the loop does not run, and F(0) = 1.
    """
    top, bottom, rest = k * m, m, (k - 1) * m + 1
    v = 0
    while top:
        top //= p
        bottom //= p
        rest //= p
        v += top - bottom - rest
    return v


#: k -> [F(0), F(1), ...] with parameter k, as far as any caller has asked.
_prefixes: dict = {}


def _fuss_catalan_prefix(max_m: int, k: int) -> list:
    """[fuss_catalan(m, k) for m in range(max_m + 1)] as a new list.

    The one exact stepper of the Fuss-Catalan numbers.  The values come
    from one grow-only table per k, shared by the central recursions and
    the fixed-vertex forms: a request past the end of the table reads the
    ratios F(m+1)/F(m) of _ratios(k, start) from where it ends, with every
    division checked, so each F(m) is computed once per process.  A table
    starts at F(0) = 1, and each step is one binomial a side, so a small
    index costs little at any k.  The table for k is never longer than the
    longest list a single call has asked for, which that call holds anyway.
    """
    table = _prefixes.get(k, [1])
    if len(table) <= max_m:
        # A grown copy replaces the list, so no caller, in any thread, sees a
        # table that is half extended or extended twice from one end.
        grown, value = table.copy(), table[-1]
        for num, den in islice(_ratios(k, len(table) - 1), max_m + 1 - len(table)):
            value = _exact_div(value * num, den)
            grown.append(value)
        _prefixes[k] = table = grown
    return table[: max_m + 1]


def _fuss_index(n: int, k: int) -> int | None:
    """The Fuss-Catalan index m >= 0 with n = (k-2)m + 2, or None when there is none.

    An n-gon has k-angulations (k >= 3) exactly when m exists, and then
    F(m, k-1) of them with m cells.  This is the one place that maps n to m.
    """
    m, r = divmod(n - 2, k - 2)
    return m if m >= 0 and not r else None


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
    m = None if i is None else _fuss_index(i, k)
    return 0 if m is None else fuss_catalan(m, k - 1)


def ballot_T(n: int, k: int) -> int:
    """Ballot number (n-2k+1)/(n-k+1) * binomial(n, k); 0 when k < 0 or n-2k+1 <= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or n - 2 * k + 1 <= 0:
        return 0
    return _exact_div((n - 2 * k + 1) * comb(n, k), n - k + 1)


def catalan_mod(n: int, m: int) -> int:
    """C(n) mod m for one n >= 0, with no value above m**2.

    Unlike catalan, a negative n raises ValueError.  C(n) = F(n, 2), so its
    exponent of each prime p <= 2n is _fuss_valuation(n, 2, p), and C(n)
    mod m is the product of p**v_p(C(n)) mod m over the primes of one sieve
    of 2n + 1 bytes.  Nothing factors m.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 2:
        raise ValueError("modulus must be >= 2")
    top = 2 * n
    sieve = bytearray([0, 0]) + bytearray([1]) * (top - 1)  # sieve[i] == 1 iff i is prime
    for p in range(2, isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    residue = 1 % m
    for p in compress(range(top + 1), sieve):
        v = _fuss_valuation(n, 2, p)
        if v:
            residue = residue * pow(p, v, m) % m
    return residue
