"""Closed-form right-hand sides of the central-component recursions.

Each function evaluates a recursion or summation formula exactly; the
matching left-hand sides live in :mod:`polycenter.sequences` and the
brute-force checks in :mod:`polycenter.enumeration`.
"""

from __future__ import annotations

from math import comb, prod
from operator import mul
from typing import Iterator

from .model import DIAMETER, placement_count
from .sequences import _exact_div, _fuss_catalan_prefix, _fuss_index


def bounded_partitions(
    total: int, parts: int, smallest: int, largest: int, residue: int = 0, mod: int = 1
) -> Iterator:
    """Nondecreasing tuples of ``parts`` values in [smallest, largest] summing to ``total``.

    With ``mod`` > 1 only values = residue (mod mod) are produced.
    :func:`_central_terms` reads the index tuples j of the central k-gons
    from it, whose sides have lengths 1 + (k-2)j.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 2:
        # first <= total - first <= largest; both parts share the residue
        if (total - 2 * residue) % mod:
            return
        lo = max(smallest, total - largest)
        for first in range(lo + (residue - lo) % mod, total // 2 + 1, mod):
            yield (first, total - first)
        return
    start = smallest + (residue - smallest) % mod
    for first in range(start, min(largest, total // parts) + 1, mod):
        for rest in bounded_partitions(total - first, parts - 1, first, largest, residue, mod):
            yield (first, *rest)


def _central(n: int, k: int):
    """What one central recursion needs: ``(c, diameter, m, top)``.

    c[j] = F(j, k-1), the k-angulations of a sub-polygon cut off by a side
    of length 1 + (k-2)j, for every j whose side is <= n/2, read from the
    per-k prefix table that all recursion and fixed-vertex calls share.
    The diameter term is (n/2) * c[j]^2 for the side n/2 = 1 + (k-2)j, and
    zero unless n is even and (n/2 - 1) is divisible by k-2.  m is the
    index with n = (k-2)m + 2, None unless the n-gon has k-angulations;
    the k sides of a central cell then have indices summing to m - 1.
    top is the largest index whose side is < n/2: j itself, unless the
    side of j is the diameter n/2.
    """
    j, r = divmod(n // 2 - 1, k - 2)
    c = _fuss_catalan_prefix(j, k - 1)
    on_diameter = n % 2 == 0 and not r
    diameter = (n // 2) * c[j] ** 2 if on_diameter else 0
    return c, diameter, _fuss_index(n, k), j - 1 if on_diameter else j


def _central_terms(n: int, k: int) -> Iterator:
    """The terms of the central-component recursion as ``(shape, count)``.

    For even n the diameter term (DIAMETER, count) of :func:`_central` comes
    first (zero when no k-angulation has a diameter); then, in
    lexicographic order, one term per sorted k-tuple of indices
    0 <= j <= top summing to m - 1, where the side of index j has length
    1 + (k-2)j and top is the largest index whose side is < n/2.  The count
    is :func:`placement_count` of the shape times the product of c[j] over
    its indices.  A tuple starts with at least k - (m-1) zeros, placed as
    one run, so :func:`bounded_partitions` recurses fewer than m levels.
    """
    c, diameter, m, top = _central(n, k)
    if n % 2 == 0:
        yield DIAMETER, diameter
    if m is None or m < 1:
        return
    parts = min(k, m - 1)
    zeros = (0,) * (k - parts)
    for tail in bounded_partitions(m - 1, parts, 0, top):
        indices = zeros + tail
        shape = tuple(1 + (k - 2) * j for j in indices)
        yield shape, placement_count(shape, n) * prod(c[j] for j in indices)


def _central_sum(n: int, k: int) -> int:
    """k-angulations of an n-gon grouped by central component: the sum of
    :func:`_central_terms`, read as one coefficient of a power.

    A term is the placement multiplicity n * k! / (k * prod(r!)) of a sorted
    k-tuple of indices, r its run lengths, times the product of c over its
    indices.  k! / prod(r!) counts the orderings of the tuple, so the sum is
    n/k times the coefficient of t^T, T = m - 1, in P(t)^k with P(t) the sum
    of c[j] t^j over j <= top.  For k >= 4, P is packed into one int, one
    slot of w bits per index, and raised to the k-th power by
    square-and-multiply, each product masked to its low T + 1 slots
    (Kronecker substitution).  A coefficient at index i <= T of P^j, j <= k,
    counts j-forests of (k-1)-ary trees with i internal nodes, which their
    preorder node types encode, so it is at most comb((k-1)i + j, i) <=
    comb((k-1)T + k, T) < 2^(w-1).  Carries only move upward, so the masked
    slots stay exact, and slot T is read with one checked division by k.
    For k = 3 the power costs more than closing the triples directly.
    """
    c, result, m, top = _central(n, k)
    if m is None:
        return result
    total = m - 1
    if k > 3:
        width = comb((k - 1) * total + k, total).bit_length() + 1
        mask = (1 << width * m) - 1
        base = sum(x << width * j for j, x in enumerate(c[: top + 1]))
        power = base
        for bit in bin(k)[3:]:
            power = power * power & mask
            if bit == "1":
                power = power * base & mask
        return result + _exact_div(n * (power >> width * total), k)
    # The triples x <= y <= b summing to total, each weighted by its
    # 6 / prod(r!) orderings.  For each x, the pairs y <= b summing to
    # total - x are one product where y equals x or b and one dot product of
    # c over y with c over b otherwise.  Where top < total bounds b and
    # leaves it fewer values than x has, the loop runs over b instead, and
    # the pairs x <= y are one product where x is 0, y equals b or x equals
    # y and one dot product otherwise.
    closed = 0
    if top < total and top < (total + 2) // 3 + min(top, total // 3):
        # top bounds b, which has fewer values than x: for each b the pairs
        # x <= y <= b sum to rest = total - b > 0, so y > 0
        for b in range((total + 2) // 3, top + 1):
            rest, tail = total - b, 0
            lo, hi = max(0, rest - b), rest // 2
            if lo == 0:
                # x = 0, and y = b when rest = b
                tail += c[rest] * (3 if rest == b else 6)
                lo = 1
            if lo <= hi and lo == rest - b:
                # y = b, and x = b too when rest = 2b
                tail += c[lo] * c[b] * (1 if lo == b else 3)
                lo += 1
            if lo <= hi and 2 * hi == rest:
                tail += c[hi] * c[hi] * 3
                hi -= 1
            if lo <= hi:
                tail += 6 * sum(map(mul, c[lo : hi + 1], c[rest - hi : rest - lo + 1][::-1]))
            closed += c[b] * tail
    else:
        for x in range(min(top, total // 3) + 1):
            # the pairs x <= y <= rest - y <= top
            rest, tail = total - x, 0
            lo, hi = max(x, rest - top), rest // 2
            if lo == x:
                # y = x, and b = x too when rest = 2x
                tail += c[x] * c[rest - x] * (1 if 2 * x == rest else 3)
                lo += 1
            if lo <= hi and 2 * hi == rest:
                tail += c[hi] * c[hi] * 3
                hi -= 1
            if lo <= hi:
                tail += 6 * sum(map(mul, c[lo : hi + 1], c[rest - hi : rest - lo + 1][::-1]))
            closed += c[x] * tail
    return result + _exact_div(n * closed, 3)


def central_recursion_rhs(n: int) -> int:
    """Triangulation count of an n-gon by central component.

    Diameter term (n/2) * C(n/2-1)^2 for even n, plus the sum over sorted
    index triples a <= b <= c with a+b+c = n-3 and sides 1+c < n/2 of the
    placement multiplicity times C(a) C(b) C(c).  Equals catalan(n-2).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    return _central_sum(n, 3)


def quad_recursion_rhs(n: int) -> int:
    """Quadrangulation count of a (2n+2)-gon by central component.

    Diameter term (n+1) * Q(n/2)^2 (zero for odd n by the half-integer
    convention) plus the sum over sorted quadruples of odd side lengths
    1 + 2j < n+1 summing to 2n+2, that is of indices j summing to n-1, each
    side weighted by Q(j).  Equals quadrangulation_count(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _central_sum(2 * n + 2, 4)


def kang_recursion_rhs(n: int, k: int = 3) -> int:
    """k-angulation count of an n-gon by central component.

    Diameter term (n/2) * F(j, k-1)^2 where n/2 = 1 + (k-2)j (squared
    factor; the unsquared variant is already wrong at n=6, k=3), plus the sum
    over sorted k-tuples of side lengths 1 + (k-2)j < n/2 summing to n, that
    is of Fuss-Catalan indices j summing to (n-k)/(k-2), each side weighted
    by F(j, k-1).  No other side length cuts off a k-angulable sub-polygon.
    Requires n > k with n = 2 (mod k-2); equals kangulation_count(n, k).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if n <= k:
        raise ValueError("recursion domain is n > k; use kangulation_count for n = k")
    if _fuss_index(n, k) is None:
        raise ValueError(f"n={n} violates n = 2 (mod {k - 2})")
    return _central_sum(n, k)


def fixed_vertex_outside(n: int) -> int:
    """Closed form for triangulations of an n-gon with vertex 0 outside the
    central component: sum of C(m) C(n-2-m) for 1 <= m <= floor(n/2) - 1."""
    if n < 3:
        raise ValueError("n must be >= 3")
    c = _fuss_catalan_prefix(n - 2, 2)
    return sum(map(mul, c[1 : n // 2], c[n - 1 - n // 2 : n - 2][::-1]))


def fixed_vertex_outside_double_sum(n: int) -> int:
    """Same count, grouped by the cyclic length l of the shortest diagonal
    separating vertex 0 from the center and the position of its near endpoint."""
    if n < 3:
        raise ValueError("n must be >= 3")
    c = _fuss_catalan_prefix(n - 3, 2)
    # the near endpoint j = 1 .. length-1 pairs c[j-1] with c[length-1-j]
    return sum(
        c[n - length - 1] * sum(map(mul, c[: length - 1], c[: length - 1][::-1]))
        for length in range(2, n // 2 + 1)
    )


def dyck_formula(m: int) -> int:
    """Ballot-number form: sum of T(m,j) T(m,j+1) over 0 <= j < m/2.

    T(m,j) = (m-2j+1)/(m-j+1) * C(m,j) is read as the difference of binomials
    C(m,j) - C(m,j-1), with C(m,j) stepped from C(m,j-1) by the exact ratio
    (m-j+1)/j: one checked division per index and no fresh binomial.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    binom = 1
    prev = 1  # T(m, 0)
    total = 0
    for j in range(1, (m + 1) // 2 + 1):
        last, binom = binom, _exact_div(binom * (m - j + 1), j)
        t = binom - last
        total += prev * t
        prev = t
    return total


def dyck_midpoint_uu_bruteforce(s: int) -> int:
    """Count Dyck paths of semilength s whose two middle steps are both up.

    Exhaustive: walks every Dyck path of 2s steps and tests steps s and s+1
    (1-indexed).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    steps = 2 * s
    count = 0
    path: list = []

    def rec(height: int) -> None:
        nonlocal count
        pos = len(path)
        if pos == steps:
            if path[s - 1] and path[s]:
                count += 1
            return
        rem = steps - pos - 1
        if height + 1 <= rem:
            path.append(True)
            rec(height + 1)
            path.pop()
        if height >= 1 and height - 1 <= rem:
            path.append(False)
            rec(height - 1)
            path.pop()

    rec(0)
    return count
