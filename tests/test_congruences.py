"""Congruence predictors and verification reports."""

import time

import pytest

import polycenter.congruences
import polycenter.sequences
from polycenter import (
    Theorem,
    catalan,
    catalan_mod,
    fuss_catalan,
    predict_mod2,
    predict_mod4,
    verify_congruence,
)
from polycenter.congruences import _PRIME_TEST_LIMIT, _first_mismatch, _fuss_catalan_residues, is_prime
from polycenter.sequences import _fuss_valuation, _ratio


class TestPredictors:
    def test_mod2_examples(self):
        assert predict_mod2(0) == 1
        assert predict_mod2(7) == 1
        assert predict_mod2(6) == 0

    def test_mod4_examples(self):
        assert predict_mod4(3) == 1
        assert predict_mod4(4) == 2
        assert predict_mod4(8) == 2  # 9 = 2^3 + 2^0, binary weight 2; C(8) = 1430 = 2 (mod 4)
        assert predict_mod4(10) == 0  # 11 has binary weight 3

    def test_classification_consistency(self):
        for n in range(2000):
            assert predict_mod4(n) % 2 == predict_mod2(n)

    def test_against_actual_residues(self):
        for n in range(512):
            assert predict_mod2(n) == catalan_mod(n, 2)
            assert predict_mod4(n) == catalan_mod(n, 4)

    def test_mod4_matches_the_weight_read_from_the_binary_string(self):
        for n in range(2**16):
            weight = bin(n + 1).count("1")
            assert predict_mod4(n) == {1: 1, 2: 2}.get(weight, 0), n


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: predict_mod2(-1), "n must be >= 0"),
        (lambda: predict_mod4(-1), "n must be >= 0"),
        (lambda: verify_congruence(Theorem.ODD_CHARACTERIZATION, -1), "max_n must be >= 0"),
        (lambda: verify_congruence(Theorem.MODP_KANGULATION, 10, p=5, k=2), "MODP_KANGULATION requires k >= 3"),
        (lambda: verify_congruence("odd", 10), "unknown theorem 'odd'"),
    ],
    ids=["mod2", "mod4", "max-n", "kangp-k", "not-a-theorem"],
)
def test_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def trial_division(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class TestIsPrime:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for n in range(25):
            assert is_prime(n) == (n in primes)

    def test_matches_trial_division_below_1e5(self):
        for p in range(-3, 10**5):
            assert is_prime(p) == trial_division(p), p

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # strong pseudoprime to bases 2..23
            318665857834031151167461,  # = 399165290221 * 798330580441, strong pseudoprime to bases 2..37
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(10**18 + 3)
        assert not is_prime((2**31 - 1) * (10**9 + 7))

    def test_rejects_inputs_beyond_the_proven_bound(self):
        assert not is_prime(_PRIME_TEST_LIMIT - 1)
        with pytest.raises(ValueError, match=str(_PRIME_TEST_LIMIT)):
            is_prime(_PRIME_TEST_LIMIT)
        with pytest.raises(ValueError, match=str(_PRIME_TEST_LIMIT)):
            verify_congruence(Theorem.MODP_CATALAN, 10, p=2**89 - 1)


class TestVerify:
    def test_odd_characterization(self):
        report = verify_congruence(Theorem.ODD_CHARACTERIZATION, 1000)
        assert report.passed and report.counterexample is None

    def test_mod4(self):
        report = verify_congruence(Theorem.MOD4_CLASSIFICATION, 1000)
        assert report.passed

    def test_modp_catalan(self):
        report = verify_congruence(Theorem.MODP_CATALAN, 500, p=5)
        assert report.passed
        assert report.bounds == {"max_n": 500, "p": 5}

    def test_modp_kangulation(self):
        report = verify_congruence(Theorem.MODP_KANGULATION, 200, p=5, k=4)
        assert report.passed
        assert report.bounds == {"max_n": 200, "p": 5, "k": 4}

    def test_invalid_primes_rejected(self):
        with pytest.raises(ValueError):
            verify_congruence(Theorem.MODP_CATALAN, 100, p=3)
        with pytest.raises(ValueError):
            verify_congruence(Theorem.MODP_CATALAN, 100, p=9)
        with pytest.raises(ValueError):
            verify_congruence(Theorem.MODP_KANGULATION, 100, p=3, k=3)
        with pytest.raises(ValueError):
            verify_congruence(Theorem.MODP_KANGULATION, 100, p=4, k=3)

    def test_json_shape(self):
        doc = verify_congruence(Theorem.ODD_CHARACTERIZATION, 50).to_json()
        assert doc == {
            "theorem": "odd",
            "range": {"max_n": 50},
            "cases": 51,
            "passed": True,
            "counterexample": None,
        }

    def test_counterexample_reporting(self):
        # first mismatch in index order wins
        ns, expected, actual = [0, 1, 2], [1, 0, 0], [1, 1, 3]
        ce, compared = _first_mismatch("n", iter(ns), iter(expected), iter(actual))
        assert ce == {"n": 1, "expected": 0, "actual": 1}
        assert compared == 2
        assert _first_mismatch("n", iter(ns[:1]), iter(expected[:1]), iter(actual[:1])) == (None, 1)

    def test_wrong_prediction_is_reported_with_the_true_residue(self, monkeypatch):
        bad_n = 300
        true_mod4 = predict_mod4

        def wrong_at_bad_n(n):
            return (true_mod4(n) + 1) % 4 if n == bad_n else true_mod4(n)

        monkeypatch.setattr(polycenter.congruences, "predict_mod4", wrong_at_bad_n)
        report = verify_congruence(Theorem.MOD4_CLASSIFICATION, 1000)
        assert not report.passed
        assert report.counterexample == {
            "n": bad_n,
            "expected": (true_mod4(bad_n) + 1) % 4,
            "actual": catalan(bad_n) % 4,
        }
        assert report.cases == bad_n + 1


def modp_indices(p, max_n):
    """The indices the mod-p Catalan theorem checks, as stated: n = p-2 (mod p)."""
    return list(range(p - 2, max_n + 1, p))


def kangp_indices(p, k, max_n):
    """The indices the mod-p k-angulation theorem checks: p | n, n >= k, and an n-gon has k-angulations."""
    return [n for n in range(p, max_n + 1, p) if n >= k and (n - 2) % (k - 2) == 0]


class TestCasesChecked:
    MAX_NS = (0, 1, 2, 3, 10, 57, 400)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_modp_counts(self, p):
        for max_n in self.MAX_NS:
            report = verify_congruence(Theorem.MODP_CATALAN, max_n, p=p)
            assert report.passed
            assert report.cases == len(modp_indices(p, max_n)), (p, max_n)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_kangp_counts(self, p):
        for k in range(3, 9):
            if k % p == 0:
                continue
            for max_n in self.MAX_NS:
                if (k - 2) % p == 0:
                    # No n = (k-2)m + 2 is divisible by p: refused, not verified.
                    with pytest.raises(ValueError, match="divides k-2"):
                        verify_congruence(Theorem.MODP_KANGULATION, max_n, p=p, k=k)
                    continue
                report = verify_congruence(Theorem.MODP_KANGULATION, max_n, p=p, k=k)
                assert report.passed
                assert report.cases == len(kangp_indices(p, k, max_n)), (p, k, max_n)

    def test_dense_counts(self):
        for max_n in self.MAX_NS:
            assert verify_congruence(Theorem.ODD_CHARACTERIZATION, max_n).cases == max_n + 1
            assert verify_congruence(Theorem.MOD4_CLASSIFICATION, max_n).cases == max_n + 1

    def test_sweeps_never_call_per_index_closed_forms(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"per-index closed form called with {args}")

        for module in (polycenter.sequences, polycenter.congruences):
            for name in ("catalan", "fuss_catalan", "kangulation_count", "catalan_mod"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert verify_congruence(Theorem.ODD_CHARACTERIZATION, 700).passed
        assert verify_congruence(Theorem.MOD4_CLASSIFICATION, 700).passed
        assert verify_congruence(Theorem.MODP_CATALAN, 700, p=11).passed
        assert verify_congruence(Theorem.MODP_KANGULATION, 700, p=5, k=4).passed


class TestStreams:
    """verify_congruence compares three parallel streams: the checked n, the prediction and the residue."""

    @pytest.mark.parametrize(
        "theorem,p,k,position",
        [
            (Theorem.ODD_CHARACTERIZATION, None, None, 300),
            (Theorem.MOD4_CLASSIFICATION, None, None, 300),
            (Theorem.MODP_CATALAN, 7, None, 20),
            (Theorem.MODP_KANGULATION, 5, 4, 7),
            (Theorem.MODP_KANGULATION, 3, 7, 11),
        ],
        ids=["odd", "mod4", "modp", "kangp-4", "kangp-7"],
    )
    def test_wrong_residue_is_reported_at_its_n(self, monkeypatch, theorem, p, k, position):
        sweeps = []

        def wrong_at_position(ms, k, p, e):
            sweeps.append(ms)
            for i, r in enumerate(_fuss_catalan_residues(ms, k, p, e)):
                yield (r + 1) % p**e if i == position else r

        monkeypatch.setattr(polycenter.congruences, "_fuss_catalan_residues", wrong_at_position)
        report = verify_congruence(theorem, 1000, p=p, k=k)
        (ms,) = sweeps
        m = ms[position]
        if theorem is Theorem.MODP_KANGULATION:
            n, expected, actual = (k - 2) * m + 2, 0, (fuss_catalan(m, k - 1) + 1) % p
        elif theorem is Theorem.MODP_CATALAN:
            n, expected, actual = m, 0, (catalan(m) + 1) % p
        elif theorem is Theorem.ODD_CHARACTERIZATION:
            n, expected, actual = m, predict_mod2(m), (catalan(m) + 1) % 2
        else:
            n, expected, actual = m, predict_mod4(m), (catalan(m) + 1) % 4
        assert not report.passed
        assert list(report.counterexample) == ["n", "expected", "actual"]
        assert report.counterexample == {"n": n, "expected": expected, "actual": actual}
        assert report.cases == position + 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_kangp_n_range_follows_the_ms(self, monkeypatch, p):
        # The ms of each residue sweep, and the n values that _first_mismatch names.
        streams = {"ms": [], "ns": []}

        def residues(ms, k, p, e):
            streams["ms"].append(ms)
            return _fuss_catalan_residues(ms, k, p, e)

        def first_mismatch(name, values, expected, actual):
            streams["ns"].append(list(values))
            return _first_mismatch(name, streams["ns"][-1], expected, actual)

        monkeypatch.setattr(polycenter.congruences, "_fuss_catalan_residues", residues)
        monkeypatch.setattr(polycenter.congruences, "_first_mismatch", first_mismatch)
        empty = 0
        for k in range(3, 15):
            if k % p == 0 or (k - 2) % p == 0:
                continue
            for max_n in (0, 1, 2, 3, k - 1, k, k + 1, 2 * k, 97, 400):
                report = verify_congruence(Theorem.MODP_KANGULATION, max_n, p=p, k=k)
                ms, ns = streams["ms"][-1], streams["ns"][-1]
                assert ns == [(k - 2) * m + 2 for m in ms], (p, k, max_n)
                assert ns == kangp_indices(p, k, max_n), (p, k, max_n)
                assert report.passed and report.cases == len(ns)
                empty += not ns
        assert empty


class TestResidueSweep:
    """The residue sweep against exact values reduced mod p**e."""

    M = 1500
    MODULI = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (101, 1), (127, 1)]

    @pytest.mark.parametrize("k", range(2, 8))
    def test_matches_reduced_exact_values(self, k):
        exact = [fuss_catalan(m, k) for m in range(self.M + 1)]  # from comb, not from the stepped ratio
        for p, e in self.MODULI:
            q = p**e
            dense = list(_fuss_catalan_residues(range(self.M + 1), k, p=p, e=e))
            assert dense == [x % q for x in exact], (k, p, e)
            sparse = [
                range(p - 2, self.M + 1, p),
                range(7, self.M + 1, 97),
                range(self.M, self.M + 1),
                range(0, 1),
            ]
            for ms in sparse:
                assert list(_fuss_catalan_residues(ms, k, p=p, e=e)) == [exact[m] % q for m in ms]
            for ms in (range(0), range(9, 3), range(self.M + 1, self.M + 1)):
                assert list(_fuss_catalan_residues(ms, k, p=p, e=e)) == []

    @pytest.mark.parametrize("k", [1000, 1001])
    def test_large_k_matches_reduced_exact_values(self, k):
        # Every index here is below k, so each ratio keeps m - 1 factors a
        # side and the p-strip loop runs on products of terms near k*m.
        exact = [fuss_catalan(m, k) for m in range(21)]
        for p, e in [(3, 1), (7, 1), (2, 2)]:
            q = p**e
            residues = list(_fuss_catalan_residues(range(21), k, p=p, e=e))
            assert residues == [x % q for x in exact], (k, p, e)


def valuation(x, p):
    """The number of times p divides x > 0, by repeated division."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class TestLegendre:
    """v_p from Legendre's formula against division of exact values; no sweep is involved."""

    @pytest.mark.parametrize("k", [*range(2, 8), 10**6, 10**10])
    def test_fuss_catalan_valuations(self, k):
        # From m = 0, where F = 1 and the loop does not run.  At a huge k a
        # sparse kangp sweep reads the valuation at a tiny m, and the loop
        # runs to log_p(km).
        for m in range(401 if k < 8 else 4):
            exact = fuss_catalan(m, k)
            for p in (2, 3, 5, 7, 11):
                assert _fuss_valuation(m, k, p) == valuation(exact, p), (m, k, p)


class TestSteps:
    """The sweep steps _ratio only up to a target whose Legendre valuation is below e."""

    @pytest.fixture
    def steps(self, monkeypatch):
        stepped = []

        def counted(m, k):
            stepped.append(m)
            return _ratio(m, k)

        monkeypatch.setattr(polycenter.congruences, "_ratio", counted)
        return stepped

    def test_passing_modp_steps_nothing(self, steps):
        report = verify_congruence(Theorem.MODP_CATALAN, 1_000_000, p=10007)
        assert report.passed and report.cases == len(modp_indices(10007, 1_000_000))
        assert steps == []

    def test_dense_sweep_steps_every_index(self, steps):
        assert verify_congruence(Theorem.ODD_CHARACTERIZATION, 1000).passed
        assert steps == list(range(1000))

    def test_stepping_resumes_from_the_last_stepped_index(self, steps):
        # C(3), C(7) and C(15) are odd; C(5), C(9), C(11) and C(13) are
        # even and skipped, so the steps run 0..14 once each, with no gap.
        ms = range(3, 16, 2)
        residues = list(_fuss_catalan_residues(ms, 2, p=2, e=1))
        assert residues == [catalan(m) % 2 for m in ms]
        assert residues == [1, 0, 1, 0, 0, 0, 1]
        assert steps == list(range(15))


class TestScaling:
    """Each sweep costs O(max_n) small-int steps; a bigint sweep grows quadratically."""

    BUDGET_S = 10

    def test_odd_characterization_to_200000(self):
        start = time.perf_counter()
        report = verify_congruence(Theorem.ODD_CHARACTERIZATION, 200_000)
        elapsed = time.perf_counter() - start
        assert report.passed and report.cases == 200_001
        assert elapsed < self.BUDGET_S, elapsed

    def test_sparse_modp_to_300000(self):
        start = time.perf_counter()
        report = verify_congruence(Theorem.MODP_CATALAN, 300_000, p=10007)
        elapsed = time.perf_counter() - start
        assert report.passed and report.cases == len(modp_indices(10007, 300_000))
        assert elapsed < self.BUDGET_S, elapsed

    def test_sparse_kangp_at_its_cap(self):
        start = time.perf_counter()
        report = verify_congruence(Theorem.MODP_KANGULATION, 10_000_000, p=3, k=199)
        elapsed = time.perf_counter() - start
        assert report.passed and report.cases == len(kangp_indices(3, 199, 10_000_000))
        assert elapsed < self.BUDGET_S, elapsed

    def test_dense_steps_at_large_k(self):
        # A failing kangp run at k = 1001 steps every index; each side of
        # the ratio holds only a few factors of 3 to strip.
        start = time.perf_counter()
        residues = list(_fuss_catalan_residues(range(2001), 1000, 3, 1))
        elapsed = time.perf_counter() - start
        assert len(residues) == 2001
        for m in (0, 1, 2, 999, 1000, 2000):
            assert residues[m] == fuss_catalan(m, 1000) % 3, m
        assert elapsed < self.BUDGET_S, elapsed

    def test_sparse_modp_to_10000000(self):
        start = time.perf_counter()
        report = verify_congruence(Theorem.MODP_CATALAN, 10_000_000, p=10007)
        elapsed = time.perf_counter() - start
        assert report.passed and report.cases == len(modp_indices(10007, 10_000_000))
        assert elapsed < self.BUDGET_S, elapsed
