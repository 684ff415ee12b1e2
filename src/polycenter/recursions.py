"""Closed-form right-hand sides of the central-component recursions.

Each function evaluates a recursion or summation formula exactly; the
matching left-hand sides live in :mod:`polycenter.sequences` and the
brute-force checks in :mod:`polycenter.enumeration`.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator

from .model import DIAMETER
from .sequences import _exact_div, _fuss_catalan_prefix


def bounded_partitions(
    total: int, parts: int, smallest: int, largest: int, residue: int = 0, mod: int = 1
) -> Iterator:
    """Nondecreasing tuples of ``parts`` values in [smallest, largest] summing to ``total``.

    With ``mod`` > 1 only values = residue (mod mod) are produced, which lets
    callers skip summands that are identically zero.
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


def _families(n: int, k: int, f: list) -> Iterator:
    """The sorted k-tuples of :func:`_central_terms`, in lexicographic order,
    as families that share one placement multiplicity.

    A family is ``(prefix, sides, total, product, multiplicity)``: the
    tuples ``(*prefix, a, total - a)`` for ``a`` in the range ``sides``,
    where ``prefix`` holds the first k-2 sides and ``product`` is the
    product of f over them.  Within one prefix the run lengths r of a tuple,
    and with them the multiplicity n * k! / (k * prod(r!)), change only when
    ``a`` equals the prefix's last side or ``a == total - a``; each of those
    two tails is a family of its own and all other tails of the prefix form
    one.  Each multiplicity is one checked division.
    """
    mod = k - 2
    residue = 1 % mod  # only side lengths = 1 (mod k-2) bound a k-angulable sub-polygon
    if (n - k * residue) % mod:
        return iter(())
    largest = (n - 1) // 2
    arrangements = n * factorial(k)

    def walk(prefix, last, total, product, symmetry, run):
        # symmetry is k * prod(r!) over the prefix, accumulated as the product
        # of each side's position in its run; run is the last run's length.
        # The first k-3 sides recurse; the loop below places side k-2.
        if len(prefix) < k - 3:
            for side in range(last, min(largest, total // (k - len(prefix))) + 1, mod):
                side_run = run + 1 if side == last else 1
                yield from walk(
                    (*prefix, side), side, total - side, product * f[side], symmetry * side_run, side_run
                )
            return
        for side in range(last, min(largest, total // 3) + 1, mod):
            side_run = run + 1 if side == last else 1
            head = (*prefix, side)
            rest = total - side
            weight = product * f[side]
            sym = symmetry * side_run
            # two sides side <= a <= rest - a <= largest remain
            lo = max(side, rest - largest)
            lo += (residue - lo) % mod
            half = rest // 2
            hi = half - (half - residue) % mod
            if lo == side:
                tail = (side_run + 1) * (side_run + 2) if 2 * side == rest else side_run + 1
                yield head, range(side, side + 1), rest, weight, _exact_div(arrangements, sym * tail)
                lo += mod
            if lo > hi:
                continue
            if 2 * hi == rest:
                if lo < hi:
                    yield head, range(lo, hi, mod), rest, weight, _exact_div(arrangements, sym)
                yield head, range(hi, hi + 1), rest, weight, _exact_div(arrangements, sym * 2)
            else:
                yield head, range(lo, hi + 1, mod), rest, weight, _exact_div(arrangements, sym)

    return walk((), 1, n, 1, k, 0)


def _side_counts(n: int, k: int) -> list:
    """f[i] = kangulation_count(i+1, k) for i <= n/2, the sub-polygon counts
    one call needs: only i = 1 (mod k-2) is nonzero, where
    f[i] = fuss_catalan((i-1)/(k-2), k-1), read from the per-k prefix table
    that all recursion and fixed-vertex calls share."""
    f = [0] * (n // 2 + 1)
    f[1 :: k - 2] = _fuss_catalan_prefix((n // 2 - 1) // (k - 2), k - 1)
    return f


def _central_terms(n: int, k: int) -> Iterator:
    """The terms of the central-component recursion as ``(shape, count)``.

    For even n the diameter term (DIAMETER, (n/2) * f[n/2]^2) comes first
    (zero when no k-angulation has a diameter); then, in lexicographic order,
    one term per sorted k-tuple of side lengths < n/2 summing to n: the
    placement multiplicity times the product of f[i], where
    f[i] = kangulation_count(i+1, k) is tabulated once per call for i <= n/2.
    Only side lengths = 1 (mod k-2) bound a k-angulable sub-polygon, so no
    other is generated.  The multiplicity n * k! / (k * prod(r!)) over the
    run lengths r of the sorted tuple is the value of :func:`placement_count`,
    read without its validation, once per family of :func:`_families`.
    """
    f = _side_counts(n, k)
    if n % 2 == 0:
        yield DIAMETER, (n // 2) * f[n // 2] ** 2
    for prefix, sides, total, product, multiplicity in _families(n, k, f):
        weight = multiplicity * product
        for a in sides:
            yield (*prefix, a, total - a), weight * f[a] * f[total - a]


def _central_sum(n: int, k: int) -> int:
    """k-angulations of an n-gon grouped by central component: the sum of
    :func:`_central_terms`, with each family of :func:`_families` summed as
    one dot product of f over its sides a with f over their partners total - a."""
    f = _side_counts(n, k)
    result = (n // 2) * f[n // 2] ** 2 if n % 2 == 0 else 0
    for _, sides, total, product, multiplicity in _families(n, k, f):
        result += multiplicity * product * sum([f[a] * f[total - a] for a in sides])
    return result


def central_recursion_rhs(n: int) -> int:
    """Triangulation count of an n-gon by central component.

    Diameter term (n/2) * C(n/2-1)^2 for even n, plus the sum over sorted
    triples i <= j <= k < n/2 with i+j+k = n of the placement multiplicity
    times C(i-1) C(j-1) C(k-1).  Equals catalan(n-2).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    return _central_sum(n, 3)


def quad_recursion_rhs(n: int) -> int:
    """Quadrangulation count of a (2n+2)-gon by central component.

    Diameter term (n+1) * Q(n/2)^2 (zero for odd n by the half-integer
    convention) plus the sum over sorted quadruples of side lengths < n+1
    summing to 2n+2.  Even side lengths contribute zero and are skipped.
    Equals quadrangulation_count(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _central_sum(2 * n + 2, 4)


def kang_recursion_rhs(n: int, k: int = 3) -> int:
    """k-angulation count of an n-gon by central component.

    Diameter term (n/2) * f(n/2+1)^2 (squared factor; the unsquared variant
    is already wrong at n=6, k=3) plus the sum over sorted k-tuples of side
    lengths < n/2 summing to n.  Terms whose side lengths cannot bound a
    k-angulable sub-polygon vanish and are skipped.  Requires n > k with
    n = 2 (mod k-2); equals kangulation_count(n, k).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if (n - 2) % (k - 2):
        raise ValueError(f"n={n} violates n = 2 (mod {k - 2})")
    if n <= k:
        raise ValueError("recursion domain is n > k; use kangulation_count for n = k")
    return _central_sum(n, k)


def fixed_vertex_outside(n: int) -> int:
    """Closed form for triangulations of an n-gon with vertex 0 outside the
    central component: sum of C(m) C(n-2-m) for 1 <= m <= floor(n/2) - 1."""
    if n < 3:
        raise ValueError("n must be >= 3")
    c = _fuss_catalan_prefix(n - 2, 2)
    return sum(c[m] * c[n - 2 - m] for m in range(1, n // 2))


def fixed_vertex_outside_double_sum(n: int) -> int:
    """Same count, grouped by the cyclic length l of the shortest diagonal
    separating vertex 0 from the center and the position of its near endpoint."""
    if n < 3:
        raise ValueError("n must be >= 3")
    c = _fuss_catalan_prefix(n - 3, 2)
    total = 0
    for length in range(2, n // 2 + 1):
        for j in range(1, length):
            total += c[n - length - 1] * c[length - j - 1] * c[j - 1]
    return total


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
