"""Verifiers for the parity, mod-4, and mod-p divisibility theorems.

Each verifier sweeps a parameter range, compares predicted against actual
residues, and returns a machine-readable report carrying the first
counterexample (in index order) if any.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .sequences import catalan_mod, kangulation_count


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
    weight = bin(n + 1).count("1")
    if weight == 1:
        return 1
    if weight == 2:
        return 2
    return 0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a congruence sweep; passed iff no counterexample was found."""

    theorem: Theorem
    bounds: dict
    passed: bool
    counterexample: "dict | None" = None

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem.value,
            "range": dict(self.bounds),
            "passed": self.passed,
            "counterexample": None
            if self.counterexample is None
            else dict(self.counterexample),
        }


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


def _first_mismatch(cases) -> "dict | None":
    """cases yields (params, expected, actual); returns the first mismatch."""
    for params, expected, actual in cases:
        if expected != actual:
            return {**params, "expected": expected, "actual": actual}
    return None


def verify_congruence(theorem: Theorem, max_n: int, p: int = None, k: int = None) -> VerificationReport:
    """Sweep the theorem's parameter range up to max_n and report pass/fail.

    The mod-p theorems are one-directional: only the indices for which the
    theorem predicts residue 0 are checked.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    bounds = {"max_n": max_n}
    if theorem is Theorem.ODD_CHARACTERIZATION:
        cases = (
            ({"n": n}, predict_mod2(n), catalan_mod(n, 2)) for n in range(max_n + 1)
        )
    elif theorem is Theorem.MOD4_CLASSIFICATION:
        cases = (
            ({"n": n}, predict_mod4(n), catalan_mod(n, 4)) for n in range(max_n + 1)
        )
    elif theorem is Theorem.MODP_CATALAN:
        if p is None or p < 5 or not is_prime(p):
            raise ValueError("MODP_CATALAN requires a prime p >= 5")
        bounds["p"] = p
        cases = (
            ({"n": n}, 0, catalan_mod(n, p)) for n in range(p - 2, max_n + 1, p)
        )
    elif theorem is Theorem.MODP_KANGULATION:
        if k is None or k < 3:
            raise ValueError("MODP_KANGULATION requires k >= 3")
        if p is None or p < 3 or not is_prime(p) or k % p == 0:
            raise ValueError("MODP_KANGULATION requires a prime p >= 3 not dividing k")
        bounds["p"] = p
        bounds["k"] = k
        cases = (
            ({"n": n}, 0, kangulation_count(n, k) % p)
            for n in range(p, max_n + 1, p)
            if n >= k and (n - 2) % (k - 2) == 0
        )
    else:
        raise ValueError(f"unknown theorem {theorem!r}")
    counterexample = _first_mismatch(cases)
    return VerificationReport(theorem, bounds, counterexample is None, counterexample)
