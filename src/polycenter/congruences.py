"""Verifiers for the parity, mod-4, and mod-p divisibility theorems.

Each verifier sweeps a parameter range, compares predicted against actual
residues, and returns a machine-readable report carrying the number of
indices compared and the first counterexample (in index order) if any.  The
indices, the predicted residues and the actual ones are three parallel
streams (a range, a map or a repeat, and a generator of bare residues), so
a checked index builds no tuple or dict: only the first mismatch becomes
one.  The actual residues are computed exactly, never predicted: one sweep
reads the Fuss-Catalan ratios F(m+1)/F(m) from one ``sequences._ratios``
stream, the stream the exact prefix table also reads, and steps
F(m) = p**v * num / den, with v the exact p-adic valuation and the p-free
num and den kept mod p**e, so no value grows with the range.  Each side of
the ratio is one binomial, which holds only a few factors of p, so
stripping them costs a few divisions.  The sparse mod-p sweeps first read v
at each checked index from Legendre's formula
(``sequences._fuss_valuation``) and step only to an index whose v is below
e, which no passing run has.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from typing import NamedTuple

from .sequences import _fuss_valuation, _ratios


class Theorem(Enum):
    ODD_CHARACTERIZATION = "odd"
    MOD4_CLASSIFICATION = "mod4"
    MODP_CATALAN = "modp"
    MODP_KANGULATION = "kangp"


def predict_mod2(n: int) -> int:
    """1 iff C(n) is odd, i.e. iff n+1 is a power of two."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return 1 if (n + 1) & n == 0 else 0


def predict_mod4(n: int) -> int:
    """C(n) mod 4 from the binary weight of n+1: weight 1 -> 1, weight 2 -> 2, else 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    weight = (n + 1).bit_count()
    if weight == 1:
        return 1
    if weight == 2:
        return 2
    return 0


class VerificationReport(NamedTuple):
    """Outcome of a verification; ``passed`` is derived, true iff no counterexample was found.

    ``bounds`` is the range checked, such as a congruence sweep's max_n or
    a census check's n and k, and ``theorem`` is None for a check of no
    congruence theorem.  ``cases`` counts the cases compared: every case of
    the range on a pass, or up to and including the counterexample on a
    failure.
    """

    theorem: "Theorem | None"
    bounds: dict
    counterexample: "dict | None" = None
    cases: int = 0

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        """The report as a JSON-ready dict; "theorem" only when there is one."""
        doc = {
            "range": dict(self.bounds),
            "cases": self.cases,
            "passed": self.passed,
            "counterexample": None if self.counterexample is None else dict(self.counterexample),
        }
        if self.theorem is not None:
            doc["theorem"] = self.theorem.value
        return doc


#: The first 13 primes; as Miller-Rabin bases they decide primality exactly
#: for every p below _PRIME_TEST_LIMIT (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p < _PRIME_TEST_LIMIT."""
    if p <= _MR_BASES[-1]:
        return p in _MR_BASES
    if p >= _PRIME_TEST_LIMIT:
        raise ValueError(f"primality is only decided for p < {_PRIME_TEST_LIMIT}, got p={p}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _first_mismatch(name: str, values, expected, actual) -> "tuple[dict | None, int]":
    """The first mismatch of three parallel streams and the cases compared.

    The i-th case is the i-th item of each stream: the value it is named
    by, under the key name, and its expected and actual results.  A case
    becomes a dict only when it is the first mismatch,
    {name: value, "expected": ..., "actual": ...}.  The streams end
    together, or values ends first.
    """
    compared = 0
    for compared, (value, want, got) in enumerate(zip(values, expected, actual), 1):
        if want != got:
            return {name: value, "expected": want, "actual": got}, compared
    return None, compared


def _fuss_catalan_residues(ms: range, k: int, p: int, e: int):
    """fuss_catalan(m, k) % p**e for each m of the increasing range ms, in order, from one exact sweep.

    The sweep keeps F(m) = p**v * num / den with v = v_p(F(m)) exact and
    num, den prime to p and reduced mod q = p**e.  Each step takes the
    next ratio of the sweep's one _ratios(k) stream, strips the powers of p
    from its numerator and denominator into v and multiplies the rests into
    num and den.  Each side is one binomial, so by Kummer's theorem it
    holds at most v_p(k) + log_p(km + k) factors of p, and the strip loops
    run a few times a step.  den is inverted only at the indices of ms, so
    every step costs a few operations on numbers that do not grow with the
    range, besides the two binomials themselves, and calls no Python
    function.

    A target more than one index past the last stepped one first reads
    v_p(F(t)) from Legendre's formula, _fuss_valuation(t, k, p).  When
    that is at least e the residue is 0 and nothing is stepped; otherwise
    the sweep steps on to t and the two valuations must agree.  So a sparse
    range whose residues are all 0 costs about log_p of each index.
    """
    q = p**e
    v, num, den, m = 0, 1, 1, 0
    ratios = _ratios(k)
    for target in ms:
        legendre = None
        if target > m + 1:
            legendre = _fuss_valuation(target, k, p)
            if legendre >= e:
                yield 0
                continue
        while m < target:
            top, bottom = next(ratios)
            while top % p == 0:
                top //= p
                v += 1
            while bottom % p == 0:
                bottom //= p
                v -= 1
            num = num * top % q
            den = den * bottom % q
            m += 1
        if v < 0:
            raise AssertionError(f"fuss_catalan({m}, {k}) has negative {p}-adic valuation {v}")
        if legendre is not None and v != legendre:
            raise AssertionError(
                f"fuss_catalan({m}, {k}) has {p}-adic valuation {v} stepped but {legendre} by Legendre"
            )
        yield 0 if v >= e else p**v * num * pow(den, -1, q) % q


def _no_case(max_n: int, first: int) -> ValueError:
    """The refusal of a range up to max_n that holds no case: a sweep that checks nothing does not pass."""
    return ValueError(f"max={max_n} holds no case; the first is n={first}")


def verify_congruence(theorem: Theorem, max_n: int, p: int = None, k: int = None) -> VerificationReport:
    """Sweep the theorem's parameter range up to max_n and report pass/fail.

    The mod-p theorems are one-directional: only the indices for which the
    theorem predicts residue 0 are checked.  The sweep stops at the last
    checked index.  A max_n below the first checked index raises ValueError
    naming that index, before any work.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    bounds = {"max_n": max_n}
    if theorem in (Theorem.ODD_CHARACTERIZATION, Theorem.MOD4_CLASSIFICATION):
        e, predict = (1, predict_mod2) if theorem is Theorem.ODD_CHARACTERIZATION else (2, predict_mod4)
        ns = range(max_n + 1)
        expected, residues = map(predict, ns), _fuss_catalan_residues(ns, 2, p=2, e=e)
    elif theorem is Theorem.MODP_CATALAN:
        if p is None or p < 5 or not is_prime(p):
            raise ValueError("MODP_CATALAN requires a prime p >= 5")
        bounds["p"] = p
        ns = range(p - 2, max_n + 1, p)
        expected, residues = repeat(0), _fuss_catalan_residues(ns, 2, p=p, e=1)
    elif theorem is Theorem.MODP_KANGULATION:
        if k is None or k < 3:
            raise ValueError("MODP_KANGULATION requires k >= 3")
        if p is None or p < 3 or not is_prime(p) or k % p == 0:
            raise ValueError("MODP_KANGULATION requires a prime p >= 3 not dividing k")
        bounds["p"] = p
        bounds["k"] = k
        # An n-gon has k-angulations iff n = (k-2)m + 2; their number is
        # fuss_catalan(m, k-1).  p divides n iff m = -2/(k-2) (mod p), a
        # nonzero residue, so m >= 1 and n >= k.  If p divides k-2, no n is
        # divisible by p, and no range would check a case.
        step = k - 2
        if step % p == 0:
            raise ValueError(f"p={p} divides k-2={step}, so no n = {step}m + 2 is divisible by p")
        ms = range(-2 * pow(step, -1, p) % p, (max_n - 2) // step + 1, p)
        ns = range(step * ms.start + 2, step * ms.stop + 2, step * p)  # n = step*m + 2, as long as ms
        expected, residues = repeat(0), _fuss_catalan_residues(ms, k - 1, p=p, e=1)
    else:
        raise ValueError(f"unknown theorem {theorem!r}")
    if not ns:
        raise _no_case(max_n, ns.start)
    return VerificationReport(theorem, bounds, *_first_mismatch("n", ns, expected, residues))
