"""Workload plans, reference values and output checks for the benchmark.

A plan is a list of cases.  Each case is a JSON-ready list whose first
element names the library call (``["central", 57]``, ``["census", 12, 3]``,
``["svg", 12, [[0, 2], ...]]``) and whose other elements are its inputs.
The seed sets the case order and the sampled inputs; the amount of work in a
plan does not depend on it.

The references here use only ``math.comb`` and never call ``polycenter``, so
a check can never pass because the code under test agrees with itself.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from collections import Counter
from math import comb, factorial

#: Largest number of dissections one census or vertex-0 case may enumerate.
#: Larger configurations are refused before anything is enumerated.
OBJECT_CAP = 100_000

# Sizes are chosen so that one cold pass takes a few seconds at the seed
# commit; a run then measures several passes and reports their median.
PARAMS = {
    "recursion_sweep": {
        "central_max": 200,
        "quad_max": 60,
        "kang_ks": [3, 4, 5, 6],
        "kang_max": 100,
        "fixed_max": 300,
    },
    "oracle_census": {
        "tri_max": 12,
        "quad4_max": 14,
        "vertex0_max": 12,
        "svg_n": 12,
        "svg_docs": 1200,
    },
    "congruence_sweep": {
        "max_n": 4096,
        # Primes whose 32 checked indices stay within max_n, so the mod-p
        # sweeps reuse the same Catalan numbers as the parity sweeps.
        "prime_pool": [101, 103, 107, 109, 113, 127],
        "primes": 4,
        "modp_indices": 32,
        "kang_primes": [5, 7, 11, 13],
        "kang_ks": [3, 4, 5, 6, 7],
        "kang_pairs": 4,
        "kangp_indices": 16,
    },
}

#: What one item of items_per_s is, per workload.
ITEM_UNIT = {
    "recursion_sweep": "identities verified",
    "oracle_census": "dissections classified",
    "congruence_sweep": "indices checked",
}

#: The representative CLI command that the traced run times per workload.
CLI_ARGV = {
    "recursion_sweep": ["verify", "recursion", "--kind", "central", "--max", "150"],
    "oracle_census": ["census", "11", "--json"],
    "congruence_sweep": ["verify", "congruence", "--theorem", "odd", "--max", "2048", "--json"],
}

#: Case kinds that run verify_congruence; each is also the theorem's name.
THEOREMS = ("odd", "mod4", "modp", "kangp")


# --- references -----------------------------------------------------------


def catalan_ref(m: int) -> int:
    return comb(2 * m, m) // (m + 1) if m >= 0 else 0


def kang_ref(n: int, k: int) -> int:
    """Dissections of an n-gon into k-gons: the Fuss-Catalan number for m = (n-2)/(k-2)."""
    m, r = divmod(n - 2, k - 2)
    if r or m < 0:
        return 0
    return comb((k - 1) * m, m) // ((k - 2) * m + 1)


def fixed_ref(n: int) -> int:
    """Triangulations of an n-gon with vertex 0 outside the central component."""
    return sum(catalan_ref(m) * catalan_ref(n - 2 - m) for m in range(1, n // 2))


def census_term(key, n: int, k: int) -> int:
    """The recursion term of one central-component shape: placements times sub-dissections."""
    if key == "diameter":
        return (n // 2) * kang_ref(n // 2 + 1, k) ** 2
    arrangements = factorial(len(key))
    for mult in Counter(key).values():
        arrangements //= factorial(mult)
    term = n * arrangements // len(key)
    for length in key:
        term *= kang_ref(length + 1, k)
    return term


def indices(case) -> list:
    """The indices a congruence case checks, as the theorem statements define them."""
    kind = case[0]
    if kind in ("odd", "mod4"):
        return list(range(case[1] + 1))
    if kind == "modp":
        p, max_n = case[1], case[2]
        return list(range(p - 2, max_n + 1, p))
    p, k, max_n = case[1], case[2], case[3]
    return [n for n in range(p, max_n + 1, p) if n >= k and (n - 2) % (k - 2) == 0]


def items(case) -> int:
    """Work units a case completes: identities, dissections or indices."""
    kind = case[0]
    if kind == "census":
        return kang_ref(case[1], case[2])
    if kind == "vertex0":
        return catalan_ref(case[1] - 2)
    if kind in THEOREMS:
        return len(indices(case))
    return 1


# --- plans ----------------------------------------------------------------


def random_triangulation(n: int, rng: random.Random) -> list:
    """A uniformly random triangulation of the n-gon as sorted [x, y] diagonals."""
    diags = []
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        apexes = range(a + 1, b)
        weights = [catalan_ref(c - a - 1) * catalan_ref(b - c - 1) for c in apexes]
        c = rng.choices(apexes, weights)[0]
        for x, y in ((a, c), (c, b)):
            if y - x > 1:
                diags.append([x, y])
                stack.append((x, y))
    return sorted(diags)


def _recursion_cases(p):
    cases = [["central", n] for n in range(3, p["central_max"] + 1)]
    cases += [["quad", n] for n in range(1, p["quad_max"] + 1)]
    cases += [
        ["kang", n, k] for k in p["kang_ks"] for n in range(2 * k - 2, p["kang_max"] + 1, k - 2)
    ]
    cases += [["fixed", n] for n in range(4, p["fixed_max"] + 1)]
    return cases


def _oracle_cases(p, rng, count):
    cases = [["census", n, 3] for n in range(3, p["tri_max"] + 1)]
    cases += [["census", n, 4] for n in range(4, p["quad4_max"] + 1, 2)]
    cases += [["vertex0", n] for n in range(3, p["vertex0_max"] + 1)]
    for case in cases:
        n = case[1]
        k = case[2] if case[0] == "census" else 3
        objects = count(n, k)
        if objects > OBJECT_CAP:
            raise ValueError(
                f"{case[0]} n={n} k={k} would enumerate {objects} dissections, "
                f"above the cap of {OBJECT_CAP}"
            )
    cases += [["svg", p["svg_n"], random_triangulation(p["svg_n"], rng)] for _ in range(p["svg_docs"])]
    return cases


def _congruence_cases(p, rng):
    max_n = p["max_n"]
    cases = [["odd", max_n], ["mod4", max_n]]
    for prime in rng.sample(p["prime_pool"], p["primes"]):
        cases.append(["modp", prime, prime - 2 + (p["modp_indices"] - 1) * prime])
    pairs = [
        (prime, k)
        for k in p["kang_ks"]
        for prime in p["kang_primes"]
        if k % prime and (k - 2) % prime
    ]
    for prime, k in rng.sample(pairs, p["kang_pairs"]):
        # Extend the range until exactly kangp_indices indices qualify.
        found, n = 0, 0
        while found < p["kangp_indices"]:
            n += prime
            found += n >= k and (n - 2) % (k - 2) == 0
        cases.append(["kangp", prime, k, n])
    return cases


def plan(workload: str, seed: int, params: dict, count) -> list:
    """The seeded, shuffled case list of one pass.

    ``count(n, k)`` gives the number of dissections a census would enumerate;
    any enumerating case above OBJECT_CAP raises ValueError.
    """
    rng = random.Random(seed)
    if workload == "recursion_sweep":
        cases = _recursion_cases(params)
    elif workload == "oracle_census":
        cases = _oracle_cases(params, rng, count)
    elif workload == "congruence_sweep":
        cases = _congruence_cases(params, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases


# --- checks ---------------------------------------------------------------


def expectations(case, out) -> list:
    """(expected, actual) pairs for one case's output; the case passes iff all are equal.

    ``out`` is what the library returned; for svg cases it is the pair of
    two renders of the same dissection.
    """
    kind = case[0]
    if kind == "central":
        return [(catalan_ref(case[1] - 2), out)]
    if kind == "quad":
        return [(kang_ref(2 * case[1] + 2, 4), out)]
    if kind == "kang":
        return [(kang_ref(case[1], case[2]), out)]
    if kind == "fixed":
        ref = fixed_ref(case[1])
        return [(ref, out[0]), (ref, out[1])]
    if kind == "vertex0":
        return [(fixed_ref(case[1]), out)]
    if kind == "census":
        n, k = case[1], case[2]
        entries, doc = out
        pairs = [(kang_ref(n, k), sum(e.count for e in entries))]
        pairs += [(census_term(e.key, n, k), e.count) for e in entries]
        expected_doc = {
            "n": n,
            "k": k,
            "entries": [
                {"shape": e.key if e.key == "diameter" else list(e.key), "count": str(census_term(e.key, n, k))}
                for e in entries
            ],
        }
        pairs.append((json.dumps(expected_doc, sort_keys=True), json.dumps(doc, sort_keys=True)))
        return pairs
    if kind == "svg":
        first, second = out
        try:
            root = ET.fromstring(first)
        except ET.ParseError:
            return [(True, False)]
        central = sum(1 for el in root.iter() if el.get("class") == "central")
        return [(True, True), (1, central), (first, second)]
    report = out
    bounds = {"max_n": case[-1]}
    if kind in ("modp", "kangp"):
        bounds["p"] = case[1]
    if kind == "kangp":
        bounds["k"] = case[2]
    return [(True, report.passed), (kind, report.theorem.value), (bounds, report.bounds)]


def cli_expectations(workload: str, code: int, stdout: str) -> list:
    """(expected, actual) pairs for the representative CLI command of a workload."""
    pairs = [(0, code)]
    argv = CLI_ARGV[workload]
    if workload == "recursion_sweep":
        checked = int(argv[-1]) - 2
        pairs.append((f"verified {checked} cases", stdout.strip().splitlines()[-1]))
    elif workload == "oracle_census":
        doc = json.loads(stdout)
        n = int(argv[1])
        pairs.append((kang_ref(n, 3), sum(int(e["count"]) for e in doc["entries"])))
    else:
        pairs.append((True, json.loads(stdout)["passed"]))
    return pairs


def corrupt(pairs: list) -> list:
    """Perturb the first expected value, so a correct output must be reported as failed."""
    expected, actual = pairs[0]
    if isinstance(expected, bool):
        expected = not expected
    elif isinstance(expected, int):
        expected += 1
    else:
        expected = f"{expected}!"
    return [(expected, actual)] + pairs[1:]
