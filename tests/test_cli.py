"""CLI subcommands, exit codes, and SVG rendering."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from itertools import count
from math import ceil, comb, log2
from pathlib import Path

import pytest

from polycenter import Dissection, central_census, fuss_catalan, kangulation_count, render_svg
from polycenter import cli
from polycenter.cli import (
    CONGRUENCE_LIMIT,
    COUNT_LIMIT,
    ENUMERATION_LIMIT,
    ENUMERATION_N_LIMIT,
    FIXED_VERTEX_LIMIT,
    RENDER_LIMIT,
    _preflight,
    run,
)
from polycenter.recursions import _central, _central_terms, bounded_partitions

SVG_NS = "{http://www.w3.org/2000/svg}"

FIGURE_STYLE_12GON = "0-3,3-7,0-7,0-2,3-5,5-7,7-9,9-11,7-11"

# zigzag triangulation of the 25-gon; its central triangle is (6, 7, 19)
ZIGZAG_25GON = (
    "1-24,2-24,2-23,3-23,3-22,4-22,4-21,5-21,5-20,6-20,6-19,"
    "7-19,7-18,8-18,8-17,9-17,9-16,10-16,10-15,11-15,11-14,12-14"
)


def elements_with_class(svg_text, cls):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.get("class") == cls]


def census_off_by_one(monkeypatch):
    """Count one more (2, 4, 4) cell by recursion, so census 10 mismatches at that shape."""

    def off_by_one(n, k):
        for shape, count in _central_terms(n, k):
            yield shape, count + 1 if shape == (2, 4, 4) else count

    monkeypatch.setattr("polycenter.cli._central_terms", off_by_one)


def odd_prediction_at_6(monkeypatch):
    """Predict C(6) = 132 odd, so the odd sweep mismatches first at n = 6."""
    from polycenter.congruences import predict_mod2

    monkeypatch.setattr("polycenter.congruences.predict_mod2", lambda n: 1 if n == 6 else predict_mod2(n))


class TestSequenceCommands:
    def test_catalan(self, capsys):
        assert run(["catalan", "4"]) == 0
        assert capsys.readouterr().out.strip() == "14"

    def test_catalan_mod(self, capsys):
        assert run(["catalan", "7", "--mod", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_fuss_kang_quad(self, capsys):
        assert run(["fuss", "2", "3"]) == 0
        assert run(["kang", "6", "4"]) == 0
        assert run(["quad", "2"]) == 0
        assert capsys.readouterr().out.split() == ["3", "3", "3"]

    def test_expect_pass_and_fail(self, capsys):
        assert run(["catalan", "4", "--expect", "14"]) == 0
        assert run(["catalan", "4", "--expect", "15"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalan", "-1"],
            ["catalan", "-1", "--mod", "3"],
            ["catalan", "-7", "--expect", "0"],
            ["quad", "-1"],
            ["kang", "-5", "3"],
            ["kang", "-5", "2"],
            ["fuss", "-1", "3"],
            ["fuss", "-1", "1"],
        ],
    )
    def test_negative_n_rejected(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 0\n"

    def test_n_zero_accepted(self, capsys):
        assert run(["catalan", "0"]) == 0
        assert run(["catalan", "0", "--mod", "3"]) == 0
        assert run(["quad", "0"]) == 0
        assert run(["kang", "0", "3"]) == 0
        assert run(["fuss", "0", "3"]) == 0
        assert capsys.readouterr().out.split() == ["1", "1", "1", "0", "1"]

    def test_roundtrip_reparse(self, capsys):
        from polycenter import catalan

        assert run(["catalan", "30"]) == 0
        assert int(capsys.readouterr().out) == catalan(30)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["catalan", "4", "--bogus"]) == 2

    def test_non_numeric_argument(self, capsys):
        assert run(["catalan", "four"]) == 2

    def test_malformed_diagonals(self, tmp_path, capsys):
        out = tmp_path / "x.svg"
        assert run(["render", "6", "--diagonals", "0-2,zz", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["kang", "5", "2"], "k must be >= 3"),
            (["fuss", "3", "1"], "k must be >= 2"),
            (["census", "3", "--k", "4"], "need n >= k, got n=3, k=4"),
            (
                ["verify", "congruence", "--theorem", "kangp", "--p", "5", "--k", "2", "--max", "10"],
                "MODP_KANGULATION requires k >= 3",
            ),
        ],
    )
    def test_parameter_refused(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestVerifyCommands:
    def test_recursion_central(self, capsys):
        assert run(["verify", "recursion", "--kind", "central", "--max", "20"]) == 0
        out = capsys.readouterr().out
        assert "n=20 OK" in out and "verified 18 cases" in out

    def test_recursion_failure_line(self, monkeypatch, capsys):
        from polycenter import catalan

        monkeypatch.setattr("polycenter.cli._central_sum", lambda n, k: catalan(n - 2) + (n == 6))
        assert run(["verify", "recursion", "--kind", "central", "--max", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "n=3 OK\nn=4 OK\nn=5 OK\nn=6 FAIL: recursion gives 15, expected 14\n"
        assert captured.err == ""

    def test_recursion_quad_and_kang(self, capsys):
        assert run(["verify", "recursion", "--kind", "quad", "--max", "10"]) == 0
        assert run(["verify", "recursion", "--kind", "kang", "--k", "5", "--max", "30"]) == 0

    def test_recursion_kang_with_large_k(self):
        # The central walk once recursed per index and raised RecursionError
        # at k = 2000, an uncaught traceback read as a counterexample.
        argv = ["verify", "recursion", "--kind", "kang", "--k", "2000", "--max", "5000"]
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "n=3998 OK\nverified 1 cases\n"

    def test_recursion_kang_with_huge_k(self):
        # The one case reads F(j, k-1) only for j <= 1, so it steps only the
        # ratio F(1)/F(0) = 1, and its placement numerator n*k!/(k-1)! is
        # one math.perm of one factor: no product of about k factors is
        # built, on any interpreter.
        argv = ["verify", "recursion", "--kind", "kang", "--k", "200000", "--max", "400000"]
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=15
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "n=399998 OK\nverified 1 cases\n"

    def test_recursion_kang_steps_small_indices_at_huge_k(self):
        # The cases read F(2, k-1) = k - 1, one ratio step with one factor
        # a side once the shared terms cancel, not two products of k factors.
        argv = ["verify", "recursion", "--kind", "kang", "--k", "1000000", "--max", "4000000"]
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=15
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith("verified 3 cases\n")

    def test_recursion_kang_with_k_beyond_memory(self):
        # A tuple of the k - 3 leading zero indices would not fit in memory
        # at this k; the walk holds them as one state, a run length.
        argv = ["verify", "recursion", "--kind", "kang", "--k", "10000000000", "--max", "30000000000"]
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=15
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith("verified 2 cases\n")

    @pytest.mark.parametrize("kind,k,cell", [("central", 9, 3), ("quad", 2, 4), ("quad", 4, 4)])
    def test_recursion_refuses_k_with_a_fixed_cell(self, kind, k, cell):
        # central and quad fix the cell size, so an explicit --k is an error,
        # even one equal to it, not a flag silently ignored.
        argv = ["verify", "recursion", "--kind", kind, "--k", str(k), "--max", "20"]
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=10
        )
        message = f"error: --k is only for --kind kang; --kind {kind} has k = {cell}\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, "", message)

    def test_recursion_kang_defaults_to_k_3(self, capsys):
        assert run(["verify", "recursion", "--kind", "kang", "--max", "30"]) == 0
        default = capsys.readouterr()
        assert run(["verify", "recursion", "--kind", "kang", "--k", "3", "--max", "30"]) == 0
        assert capsys.readouterr() == default
        assert default.out.endswith("verified 27 cases\n")

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_recursion_kang_rejects_small_k(self, capsys, k):
        assert run(["verify", "recursion", "--kind", "kang", "--k", str(k), "--max", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be >= 3\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["recursion", "--kind", "central"],
            ["recursion", "--kind", "quad"],
            ["recursion", "--kind", "kang"],
            ["congruence", "--theorem", "odd"],
        ],
        ids=["central", "quad", "kang", "congruence"],
    )
    def test_recursion_rejects_negative_max(self, capsys, command):
        assert run(["verify", *command, "--max", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max must be >= 0\n"

    @pytest.mark.parametrize(
        "command, first",
        [
            (["--kind", "central", "--max", "2"], 3),
            (["--kind", "quad", "--max", "0"], 1),
            (["--kind", "kang", "--k", "100", "--max", "50"], 198),
        ],
        ids=["central", "quad", "kang"],
    )
    def test_recursion_refuses_a_range_with_no_case(self, capsys, command, first):
        assert run(["verify", "recursion", *command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: max={command[-1]} holds no case; the first is n={first}\n"

    def test_congruence_json(self, capsys):
        assert run(["verify", "congruence", "--theorem", "odd", "--max", "100", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True and doc["counterexample"] is None
        assert doc["theorem"] == "odd" and doc["range"] == {"max_n": 100}
        assert doc["cases"] == 101

    def test_congruence_counterexample(self, monkeypatch, capsys):
        odd_prediction_at_6(monkeypatch)
        argv = ["verify", "congruence", "--theorem", "odd", "--max", "100"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "odd: counterexample {'n': 6, 'expected': 1, 'actual': 0}\n"
        assert captured.err == ""
        assert run(argv + ["--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            '{"cases": 7, "counterexample": {"actual": 0, "expected": 1, "n": 6}, '
            '"passed": false, "range": {"max_n": 100}, "theorem": "odd"}\n'
        )
        assert captured.err == ""

    def test_congruence_vacuous_range_reports_zero_cases(self, capsys):
        argv = ["verify", "congruence", "--theorem", "modp", "--p", "101", "--max", "50"]
        assert run(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cases"] == 0
        assert run(argv) == 0
        assert capsys.readouterr().out == "modp: verified up to n=50\n"

    def test_congruence_kangp_refused_when_p_divides_k_minus_2(self, capsys):
        # No n = 999m + 2 is divisible by 3, so no --max would check a case.
        argv = ["verify", "congruence", "--theorem", "kangp", "--p", "3", "--k", "1001", "--max", "1000000"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: p=3 divides k-2=999, so no n = 999m + 2 is divisible by p\n"

    def test_congruence_modp(self, capsys):
        assert run(["verify", "congruence", "--theorem", "modp", "--p", "7", "--max", "300"]) == 0
        assert run(["verify", "congruence", "--theorem", "kangp", "--p", "5", "--k", "4", "--max", "100"]) == 0

    def test_congruence_bad_prime(self, capsys):
        assert run(["verify", "congruence", "--theorem", "modp", "--p", "4", "--max", "100"]) == 2

    def test_congruence_large_prime(self, capsys):
        assert run(["verify", "congruence", "--theorem", "modp", "--p", "1000000000000000003", "--max", "10"]) == 0
        assert capsys.readouterr().out == "modp: verified up to n=10\n"

    def test_congruence_prime_beyond_bound(self, capsys):
        assert run(["verify", "congruence", "--theorem", "modp", "--p", str(2**89 - 1), "--max", "10"]) == 2
        assert "3317044064679887385961981" in capsys.readouterr().err


class TestVerifyCensusCommand:
    @pytest.mark.parametrize(
        "n,k", [(n, 3) for n in range(3, 12)] + [(n, 4) for n in range(4, 13, 2)]
    )
    def test_text_agrees_with_json(self, capsys, n, k):
        argv = ["verify", "census", str(n), "--k", str(k)]
        assert run(argv + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "range": {"n": n, "k": k},
            "cases": len(central_census(n, k)),
            "passed": True,
            "counterexample": None,
        }
        assert run(argv) == 0
        assert capsys.readouterr().out == f"census n={n} k={k}: verified {doc['cases']} cases\n"

    def test_counterexample_names_first_mismatching_shape(self, monkeypatch, capsys):
        census_off_by_one(monkeypatch)
        assert run(["verify", "census", "10", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False and doc["cases"] == 2
        assert doc["counterexample"] == {"shape": [2, 4, 4], "expected": "251", "actual": "250"}
        assert run(["verify", "census", "10"]) == 1
        assert capsys.readouterr().out == "census n=10 k=3: shape 2,4,4 expected 251, enumerated 250\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["10", "--k", "2"], "k must be >= 3"),
            (["2"], "need n >= k"),
            (["-4"], "need n >= k"),
            (["7", "--k", "4"], "violates n = 2 (mod 2)"),
        ],
    )
    def test_invalid_n_k_rejected(self, capsys, argv, message):
        assert run(["verify", "census", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestEnumerationLimit:
    def test_limit_admits_16_gon_and_refuses_17_gon(self):
        assert kangulation_count(16, 3) <= ENUMERATION_LIMIT < kangulation_count(17, 3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "30"],
            ["census", "40", "--k", "4"],
            ["fixed-vertex", "30", "--brute"],
            ["verify", "census", "17"],
            ["fixed-vertex", "20000", "--brute"],
            ["census", str(30 * (10**6 - 2) + 2), "--k", str(10**6)],  # 30 cells of a million vertices
        ],
    )
    def test_refused_before_enumerating(self, capsys, argv):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n=")
        assert captured.err.endswith(f" would enumerate more than {ENUMERATION_LIMIT} dissections\n")

    @pytest.mark.parametrize("k", range(3, 9))
    def test_preflight_agrees_with_the_count(self, k):
        step = k - 2
        boundary = next(n for n in count(k, step) if kangulation_count(n, k) > ENUMERATION_LIMIT)
        for n in range(boundary - 3 * step - 1, boundary + 3 * step + 2):
            refused = kangulation_count(n, k) > ENUMERATION_LIMIT
            if refused:
                with pytest.raises(ValueError, match=f"would enumerate more than {ENUMERATION_LIMIT}"):
                    _preflight(n, k)
            else:
                _preflight(n, k)

    @pytest.mark.parametrize("n", ["3000", "100000", "1000000"])
    def test_huge_census_refused_without_its_count(self, n):
        # The exact counts run from 1,800 to 600,000 digits: a message
        # holding one would be huge or pass the int-to-str digit limit, and
        # computing the largest alone takes about 40 s.
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", "census", n], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 5.0
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: n={n}, k=3 would enumerate more than {ENUMERATION_LIMIT} dissections\n"


    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_preflight_refuses_around_the_index_cap(self, k):
        # Every index from the cap on counts more than 2**(cap - 1) dissections.
        cap = ENUMERATION_LIMIT.bit_length() + 1
        for m in (cap - 1, cap, cap + 1, 60):
            n = (k - 2) * m + 2
            with pytest.raises(ValueError, match=f"^n={n}, k={k} would enumerate more than {ENUMERATION_LIMIT} "):
                _preflight(n, k)

    def test_n_limit_admits_the_limit_and_refuses_above(self):
        # one cell (n = k) and two cells (n = 2k - 2): few dissections
        for k in (ENUMERATION_N_LIMIT, ENUMERATION_N_LIMIT // 2 + 1):
            _preflight(ENUMERATION_N_LIMIT, k)
        with pytest.raises(ValueError, match=f"n={ENUMERATION_N_LIMIT + 1} is above the limit"):
            _preflight(ENUMERATION_N_LIMIT + 1, ENUMERATION_N_LIMIT + 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", str(ENUMERATION_N_LIMIT + 2), "--k", str(ENUMERATION_N_LIMIT // 2 + 2)],
            ["verify", "census", str(ENUMERATION_N_LIMIT + 1), "--k", str(ENUMERATION_N_LIMIT + 1)],
            ["verify", "census", "3998", "--k", "2000"],
            ["census", "300000", "--k", "300000"],
            ["verify", "census", "300000", "--k", "300000"],
            ["census", "1000000", "--k", "1000000"],
        ],
    )
    def test_large_n_refused_before_enumerating(self, argv):
        # Few dissections, but each cell costs O(k) to build and classify.
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2
        assert done.stdout == ""
        n = argv[-3]
        assert done.stderr == f"error: n={n} is above the limit of {ENUMERATION_N_LIMIT}\n"

    @pytest.mark.parametrize(
        "argv,stdout",
        [
            (["census", "42", "--k", "22"], "diameter\t21\n"),
            (["verify", "census", "62", "--k", "32"], "census n=62 k=32: verified 1 cases\n"),
        ],
    )
    def test_large_cells_enumerate_quickly(self, argv, stdout):
        # Cells come as compositions of Fuss-Catalan indices: the root of
        # the 42-gon for k = 22 has 21 candidates, not C(40, 20).
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, stdout, "")


class TestCongruenceLimit:
    @pytest.mark.parametrize(
        "theorem", [["odd"], ["mod4"], ["modp", "--p", "7"], ["kangp", "--p", "5", "--k", "4"]]
    )
    def test_refused_before_sweeping(self, theorem):
        # A subprocess with a timeout fails, rather than hangs, if the
        # refusal is lost and the sweep starts.
        argv = ["verify", "congruence", "--theorem", *theorem, "--max", "1000000000000"]
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: max=1000000000000 is above the limit of {CONGRUENCE_LIMIT}\n"

    def test_kangp_admitted_at_the_limit(self, capsys):
        # A passing kangp run reads Legendre counts and steps nothing, so it
        # ends at once at any k; the other theorems ignore --k.
        argv = ["verify", "congruence", "--theorem", "kangp", "--p", "7", "--k", "10001", "--max", "10000000"]
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "kangp: verified up to n=10000000\n", "")
        assert run(["verify", "congruence", "--theorem", "odd", "--k", "2000001", "--max", "1000"]) == 0
        assert capsys.readouterr().out == "odd: verified up to n=1000\n"

    def test_catalan_mod_refused_above_the_limit(self):
        # catalan --mod sieves 2n + 1 bytes, so its n has the same limit.
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", "catalan", "10000001", "--mod", "7"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: n=10000001 is above the limit of {CONGRUENCE_LIMIT}\n"

    @pytest.mark.parametrize(
        "argv,stdout",
        [
            (["catalan", "1000000", "--mod", "7"], "1\n"),  # C(1000000) has 602,051 digits
            (["catalan", "705919", "--mod", "1000000007"], "47871496\n"),
        ],
    )
    def test_catalan_mod_needs_no_digit_count(self, argv, stdout):
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, stdout, "")


class TestCountLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["catalan", "705920"],  # the smallest refused Catalan index
            ["fuss", "1000000", "5"],
            ["kang", "2000002", "4"],
            ["quad", "1000000"],
            ["catalan", "9" * 400],  # past the float range
            ["quad", "9" * 400],
            ["fuss", "120", "9" * 4000],
        ],
    )
    def test_refused_before_counting(self, argv):
        # A subprocess with a timeout fails, rather than hangs, if the
        # refusal is lost and the count starts.
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2
        assert done.stdout == ""
        match = re.fullmatch(
            rf"error: the count has about (\d+) digits, which is above the limit of {COUNT_LIMIT}\n", done.stderr
        )
        assert match and int(match[1]) > COUNT_LIMIT

    def test_inadmissible_count_prints_zero(self, capsys):
        assert run(["kang", "1000001", "4"]) == 0
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.parametrize("s", [2, 3, 4, 7, 1000, 10**20])
    def test_estimate_brackets_the_digits(self, monkeypatch, s):
        # The estimate never falls below the true digit count and exceeds
        # it by a few digits at most, so the limit refuses every count
        # above it and admits every count some digits below it.
        limit = 600
        monkeypatch.setattr(cli, "COUNT_LIMIT", limit)
        for m in range(1, 2 * limit):
            digits = len(str(fuss_catalan(m, s)))
            if digits > limit + 1:
                with pytest.raises(ValueError, match=f"above the limit of {limit}"):
                    cli._check_count(m, s)
                break
            if digits < limit - 5:
                cli._check_count(m, s)


class TestCensusCommand:
    def test_json(self, capsys):
        assert run(["census", "6", "--k", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == [
            {"shape": "diameter", "count": "12"},
            {"shape": [2, 2, 2], "count": "2"},
        ]

    def test_delimited(self, capsys):
        assert run(["census", "5"]) == 0
        assert capsys.readouterr().out == "1,2,2\t5\n"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["census", "14", "--json"], "79e1c13ce42d6c24ba1ec89a14db9d5765273a18673d1d68c8e7857ab9764fcb"),
            (["census", "14", "--k", "4", "--json"], "dd96913e09ccbda2d9c6f3841c065665dde94641cf4ec578ebd2d927f33bd30f"),
            (["census", "42", "--k", "22", "--json"], "3088830e849c73238903124a22985e95cf3fce7c3349718a1fd8e6ef69f5aa89"),
            (["verify", "census", "16", "--json"], "d6723ad2c5260ae29eae25b5be34cb531755053ea8ebee6d714df3a9a561c537"),
            (
                ["verify", "congruence", "--theorem", "odd", "--max", "100", "--json"],
                "ade1d3a53b26f908aa3717120e7360e021262845daa902da7dead5caf719d589",
            ),
            (
                ["verify", "congruence", "--theorem", "kangp", "--p", "5", "--k", "4", "--max", "100", "--json"],
                "de0d6532654e647e7d65b06d0bb916f4e92085e7ce8ac484e9a266b8ee79848b",
            ),
        ],
        ids=["census-14", "census-14-k4", "census-42-k22", "verify-census-16", "verify-odd-100", "verify-kangp-100"],
    )
    def test_pinned_bytes(self, capsys, argv, digest):
        assert run(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestVerdictBytes:
    """The stdout of every verdict path, as text and as --json, pinned by sha256."""

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "argv, patch, status, digests",
        [
            (
                ["verify", "census", "10"],
                None,
                0,
                (
                    "32d8cdf8c0cdc21d5a0e923ceb4739fdf01c60c62ca92e773ffe6f3aa71108e1",
                    "754412ba1e8ea225627bcee3acaffd16d615c1fff59b5cd6f8f50baad94537e5",
                ),
            ),
            (
                ["verify", "census", "12", "--k", "4"],
                None,
                0,
                (
                    "9a9844fae52b05b5c24c8890e68de8952923da59cf5a6c4f4152b02a2c18eea6",
                    "c2c6974589c562bf3855ffeb30c4711feffa4211ba28402e1a34df74bd555517",
                ),
            ),
            (
                ["verify", "congruence", "--theorem", "odd", "--max", "4096"],
                None,
                0,
                (
                    "045b7fe29e8d61bfc0937449a6c129ca3c4da87f641eee77ed1e205ce31fc119",
                    "f3fab703cd104672cc69d474ddb2020558df8f69bcb98d8c51ae44e5c64aef21",
                ),
            ),
            (
                ["verify", "congruence", "--theorem", "mod4", "--max", "4096"],
                None,
                0,
                (
                    "6f5b3694c5de7bc8bdf28312a9760bc6536bb67ae3dd85a869dd4f8c2789298b",
                    "e7494137cc61377edb353c7fb27916c7a3ba199dc666c900d9a376414da01f83",
                ),
            ),
            (
                ["verify", "congruence", "--theorem", "modp", "--p", "7", "--max", "3000"],
                None,
                0,
                (
                    "120bb20c1ce71cc314c0916504c79c249b8a0750aea24b408731c650595dbe63",
                    "6466f6aedc62b051f42394d68dc6c9c71c151994128845217174925139036e6b",
                ),
            ),
            (
                ["verify", "congruence", "--theorem", "kangp", "--p", "5", "--k", "4", "--max", "400"],
                None,
                0,
                (
                    "1e1d73e35e951a8bac3d80be87eb7c813646f42f106e1bbbc548cbff4b2d712c",
                    "e0f7d5710b276d117a9c988fc5a333d71ac2e1ed852128f2e3644185b3ba53fc",
                ),
            ),
            (
                ["verify", "census", "10"],
                census_off_by_one,
                1,
                (
                    "404f62e23da734488617f90b7b18ae81e3fae8a4190b83543e78d7b01a6bdd6e",
                    "cde3b8a0a22d9e435f9b7986ce062576498ea5089ff1b1f1c3ad3338fca5990d",
                ),
            ),
            (
                ["verify", "congruence", "--theorem", "odd", "--max", "100"],
                odd_prediction_at_6,
                1,
                (
                    "c1347c4913b1f83e3cf271b4a13f506b7c022c7a93f3b1a58f4b4f01bc982f9a",
                    "ccc3df32e7d91a733d506176172e944dcde2c9fb2a54279028d7f3f53e8bc2d2",
                ),
            ),
        ],
        ids=["census-10", "census-12-k4", "odd-4096", "mod4-4096", "modp-7", "kangp-5-4", "census-fail", "odd-fail"],
    )
    def test_pinned_verdict(self, monkeypatch, capsys, argv, patch, status, digests, json_flag):
        if patch is not None:
            patch(monkeypatch)
        assert run(argv + json_flag) == status
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digests[bool(json_flag)]


class TestFixedVertexCommand:
    def test_all_routes_agree(self, capsys):
        assert run(["fixed-vertex", "6", "--brute", "--dyck"]) == 0
        lines = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines == {"closed-form": "9", "brute-force": "9", "dyck": "9"}

    def test_expect(self, capsys):
        assert run(["fixed-vertex", "10", "--expect", "1099"]) == 0
        assert capsys.readouterr().out == "closed-form\t1099\n"

    def test_expect_mismatch(self, monkeypatch, capsys):
        monkeypatch.setattr("polycenter.cli.fixed_vertex_outside", lambda n: 1098)
        assert run(["fixed-vertex", "10", "--expect", "1099"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "closed-form\t1098\n"
        assert captured.err == "error: expected 1099, got 1098\n"

    def test_counts_disagree(self, monkeypatch, capsys):
        # the disagreement is reported alone, before any --expect check
        monkeypatch.setattr("polycenter.cli.dyck_formula", lambda m: 0)
        assert run(["fixed-vertex", "6", "--brute", "--dyck", "--expect", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "closed-form\t9\nbrute-force\t9\ndyck\t0\n"
        assert captured.err == "error: counts disagree\n"

    @pytest.mark.parametrize("flags", [[], ["--dyck"], ["--brute"]])
    def test_refused_above_the_limit(self, flags):
        # A subprocess with a timeout fails, rather than hangs, if the
        # refusal is lost and the sums start.
        n = str(FIXED_VERTEX_LIMIT + 1)
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", "fixed-vertex", n, *flags],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: n={n} is above the limit of {FIXED_VERTEX_LIMIT}\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
class TestIntStrLimit:
    def test_catalan_past_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert run(["catalan", "7200"]) == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            expected = str(comb(14400, 7200) // 7201)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expected) == 4329  # past the default limit of 4300 digits
        assert capsys.readouterr().out == expected + "\n"

    def test_limit_restored_when_a_command_raises(self, monkeypatch):
        limit = sys.get_int_max_str_digits()

        def boom(args):
            assert sys.get_int_max_str_digits() == 0
            raise KeyError("boom")

        monkeypatch.setattr("polycenter.cli._cmd_catalan", boom)
        with pytest.raises(KeyError):
            run(["catalan", "1"])
        assert sys.get_int_max_str_digits() == limit


class TestRender:
    def test_diameter_highlight(self, tmp_path, capsys):
        out = tmp_path / "d.svg"
        assert run(["render", "4", "--diagonals", "0-2", "--out", str(out), "--highlight-central"]) == 0
        central = elements_with_class(out.read_text(), "central")
        assert len(central) == 1
        assert central[0].tag == f"{SVG_NS}line"

    def test_cell_highlight(self, tmp_path):
        out = tmp_path / "c.svg"
        assert run(["render", "6", "--diagonals", "0-2,2-4,0-4", "--out", str(out), "--highlight-central"]) == 0
        central = elements_with_class(out.read_text(), "central")
        assert len(central) == 1
        assert central[0].tag == f"{SVG_NS}polygon"

    def test_no_highlight(self, tmp_path):
        out = tmp_path / "p.svg"
        assert run(["render", "6", "--diagonals", "0-2,2-4,0-4", "--out", str(out)]) == 0
        assert elements_with_class(out.read_text(), "central") == []

    @pytest.mark.parametrize("highlight", [[], ["--highlight-central"]])
    @pytest.mark.parametrize(
        "n,diagonals,message",
        [("4", "0-2,1-3", "cross"), ("6", "0-2", "has 5 vertices")],
    )
    def test_invalid_dissection_rejected(self, tmp_path, capsys, highlight, n, diagonals, message):
        out = tmp_path / "bad.svg"
        assert run(["render", n, "--diagonals", diagonals, "--out", str(out), *highlight]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRenderLimit:
    # A subprocess with a timeout fails, rather than hangs or fills memory,
    # if the refusal is lost and the render starts.
    def render(self, tmp_path, n, *flags):
        out = tmp_path / "big.svg"
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", "render", str(n), "--out", str(out), *flags],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert not out.exists()
        return done

    @pytest.mark.parametrize("n", [RENDER_LIMIT + 1, 1_000_000])
    @pytest.mark.parametrize("flags", [["--diagonals", ""], ["--k", "500001", "--diagonals", "0-500000"]])
    def test_refused_above_the_limit(self, tmp_path, n, flags):
        done = self.render(tmp_path, n, *flags)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: n={n} is above the limit of {RENDER_LIMIT}\n"

    def test_wrong_cell_size_message_is_short_at_the_limit(self, tmp_path):
        done = self.render(tmp_path, RENDER_LIMIT, "--diagonals", "")
        assert done.returncode == 2
        assert f"has {RENDER_LIMIT} vertices; not a dissection into 3-gons" in done.stderr
        assert len(done.stderr.encode()) < 1024


class Admitted(Exception):
    """Raised by a command's first work function once every check has passed."""


def _admitted(*args, **kwargs):
    raise Admitted


# One row per limit: argv at the limit, argv just above it, the refusal just
# above it, and the first function that does the command's work.
LIMITS = {
    "enumeration": (
        ["census", "16"],
        ["census", "17"],
        f"n=17, k=3 would enumerate more than {ENUMERATION_LIMIT} dissections",
        "central_census",
    ),
    "enumeration-n": (
        ["verify", "census", str(ENUMERATION_N_LIMIT), "--k", str(ENUMERATION_N_LIMIT)],
        ["verify", "census", str(ENUMERATION_N_LIMIT + 1), "--k", str(ENUMERATION_N_LIMIT + 1)],
        f"n={ENUMERATION_N_LIMIT + 1} is above the limit of {ENUMERATION_N_LIMIT}",
        "_central_terms",
    ),
    "congruence": (
        ["verify", "congruence", "--theorem", "odd", "--max", str(CONGRUENCE_LIMIT)],
        ["verify", "congruence", "--theorem", "odd", "--max", str(CONGRUENCE_LIMIT + 1)],
        f"max={CONGRUENCE_LIMIT + 1} is above the limit of {CONGRUENCE_LIMIT}",
        "verify_congruence",
    ),
    "congruence-mod": (
        ["catalan", str(CONGRUENCE_LIMIT), "--mod", "7"],
        ["catalan", str(CONGRUENCE_LIMIT + 1), "--mod", "7"],
        f"n={CONGRUENCE_LIMIT + 1} is above the limit of {CONGRUENCE_LIMIT}",
        "catalan_mod",
    ),
    "fixed-vertex": (
        ["fixed-vertex", str(FIXED_VERTEX_LIMIT), "--dyck"],
        ["fixed-vertex", str(FIXED_VERTEX_LIMIT + 1), "--dyck"],
        f"n={FIXED_VERTEX_LIMIT + 1} is above the limit of {FIXED_VERTEX_LIMIT}",
        "fixed_vertex_outside",
    ),
    "render": (
        ["render", str(RENDER_LIMIT), "--out", os.devnull],
        ["render", str(RENDER_LIMIT + 1), "--out", os.devnull],
        f"n={RENDER_LIMIT + 1} is above the limit of {RENDER_LIMIT}",
        "parse_diagonals",
    ),
    "count": (
        ["catalan", "705919"],
        ["catalan", "705920"],
        f"the count has about 425001 digits, which is above the limit of {COUNT_LIMIT}",
        "fuss_catalan",
    ),
    "recursion-central": (
        ["verify", "recursion", "--kind", "central", "--max", "1304"],
        ["verify", "recursion", "--kind", "central", "--max", "1305"],
        "max=1305 is above the limit of 1304",
        "_central_sum",
    ),
    "recursion-quad": (
        ["verify", "recursion", "--kind", "quad", "--max", "414"],
        ["verify", "recursion", "--kind", "quad", "--max", "415"],
        "max=415 is above the limit of 414",
        "_central_sum",
    ),
    "recursion-kang": (
        ["verify", "recursion", "--kind", "kang", "--k", "5", "--max", "688"],
        ["verify", "recursion", "--kind", "kang", "--k", "5", "--max", "689"],
        "max=689 is above the limit of 688",
        "_central_sum",
    ),
}


class TestLimits:
    @pytest.mark.parametrize("at,above,message,work", LIMITS.values(), ids=LIMITS.keys())
    def test_refused_above_and_admitted_at_the_limit(self, monkeypatch, at, above, message, work):
        # A subprocess with a timeout fails, rather than hangs, if the
        # refusal is lost and the work starts.
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *above], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 1.0
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")
        # At the limit every check passes and the work begins.
        monkeypatch.setattr(cli, work, _admitted)
        with pytest.raises(Admitted):
            run(at)


class TestRecursionLimit:
    @pytest.mark.parametrize(
        "command,limit",
        [
            (["--kind", "central"], 1304),
            (["--kind", "quad"], 414),
            (["--kind", "kang", "--k", "3"], 1304),
            (["--kind", "kang", "--k", "5"], 688),
            (["--kind", "kang", "--k", "10000000000"], 619999999877),
        ],
    )
    def test_refused_before_any_term(self, command, limit):
        argv = ["verify", "recursion", *command, "--max", str(10**18)]
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "polycenter.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 1.0
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: max=1000000000000000000 is above the limit of {limit}\n"

    @pytest.mark.parametrize("k", [3, 4, 7, 100, 2000, 10**10, 10**100])
    def test_estimate_is_fast(self, k):
        start = time.perf_counter()
        cli._recursion_max(k, 2)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "kind,k", [("central", 3), ("quad", 4), ("kang", 3), ("kang", 5), ("kang", 12), ("kang", 100)]
    )
    @pytest.mark.parametrize("budget", [10**4, 10**7])
    def test_limit_counts_the_walked_tuples(self, monkeypatch, kind, k, budget):
        # The first refused index, with T counted tuple by tuple over the
        # indices below the diameter that the central walk itself reads.
        monkeypatch.setattr(cli, "RECURSION_LIMIT", budget)
        first = 2 if kind == "kang" else 1
        for m in count(first):
            top = _central((k - 2) * m + 2, k)[3]
            tuples = sum(1 for _ in bounded_partitions(m - 1, k, 0, top))
            bits = ceil(cli._micro_digits(m, k - 1) * log2(10) / 10**6)
            if tuples * bits * (m - first + 1) > budget:
                break
        assert cli._recursion_max(k, first) == m


class TestInternalError:
    def test_assertion_exits_3_without_traceback(self, monkeypatch, capsys):
        def broken(n, k):
            raise AssertionError("two central components")

        monkeypatch.setattr("polycenter.cli.central_census", broken)
        assert run(["census", "6"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: two central components\n"

    def test_negative_valuation_in_residue_sweep_exits_3(self, monkeypatch, capsys):
        # A ratio that divides by 2 at every step drives v_2 below zero.
        monkeypatch.setattr("polycenter.congruences._ratio", lambda m, k: (1, 2))
        assert run(["verify", "congruence", "--theorem", "odd", "--max", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: fuss_catalan(1, 2) has negative 2-adic valuation -1\n"

    def test_valuation_mismatch_in_residue_sweep_exits_3(self, monkeypatch, capsys):
        # A Legendre valuation of 0 sends modp to step to its first index,
        # where the stepped valuation of C(3) = 5 is 1.
        monkeypatch.setattr("polycenter.congruences._fuss_valuation", lambda m, k, p: 0)
        assert run(["verify", "congruence", "--theorem", "modp", "--p", "5", "--max", "20"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: fuss_catalan(3, 2) has 5-adic valuation 1 stepped but 0 by Legendre\n"

    @pytest.mark.parametrize(
        "argv", [["fixed-vertex", "10"], ["verify", "recursion", "--kind", "kang", "--k", "5", "--max", "20"]]
    )
    def test_inexact_division_exits_3(self, monkeypatch, capsys, argv):
        # An inexact ratio is a broken invariant, not bad input.  The
        # recursion sweep reports the cases before the first ratio step.
        monkeypatch.setattr("polycenter.sequences._prefixes", {})
        monkeypatch.setattr("polycenter.sequences._ratio", lambda m, k: (1, 3))
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert "verified" not in captured.out
        assert captured.err == "internal error: inexact division 1/3\n"


class TestImportFootprint:
    def test_cli_import_loads_no_dataclasses(self):
        # -S keeps site hooks from importing these modules first and masking
        # an import by the package.
        heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
        code = f"import sys, polycenter.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
        done = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            timeout=30,
            env={"PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


class TestSvgDocument:
    def test_well_formed_with_vertex_markers(self):
        svg = render_svg(Dissection(6, {(0, 2), (2, 4), (0, 4)}))
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"
        circles = [el for el in root.iter() if el.get("class") == "vertex"]
        labels = [el for el in root.iter() if el.get("class") == "label"]
        assert len(circles) == 6 and len(labels) == 6

    def test_deterministic(self):
        d1 = Dissection(8, {(0, 2), (2, 4), (4, 6), (0, 4), (0, 6)})
        d2 = Dissection(8, [(6, 4), (2, 0), (4, 2), (4, 0), (6, 0)])
        assert render_svg(d1) == render_svg(d2)

    @pytest.mark.parametrize(
        "n, diagonals, highlight, digest, k",
        [
            (12, FIGURE_STYLE_12GON, True, "34b32ed55b7c26c6f7bdcda8f61d3adc8000bf844d4e6a9ab386ea5813de8418", 3),
            (12, FIGURE_STYLE_12GON, False, "71fe8b22d902ce229ce9079ed70587874b862d1570472f3df2875246c3d8fda8", 3),
            (6, "0-3,0-2,3-5", True, "53ea8074df1b8e93b8d3a5a32f33f5682c6e138f69b63a1cedddc2c8ed266126", 3),
            (6, "0-3,0-2,3-5", False, "3b4846a18baf7ebf83e71fc1bd8ab2dca25f8d891e6df891ba06c46ba9a0fc74", 3),
            (10, "0-3,3-6,6-9", True, "9de7154edb9208068bec2cd1431111f47bca28bdff1026243dc136570a310d6a", 4),
            (10, "0-3,3-6,6-9", False, "28214478ba475a96d815b5ff708124603cf5c1273675e7c3466cb16bbc9389a4", 4),
            (10, "0-5,0-3,5-8", True, "933a8d63ce58d3f9a2977500f072ecd5da042da35db5180afb2e8af19618dddf", 4),
            (10, "0-5,0-3,5-8", False, "27bcd4151a56771b76eab6d1474cf43837254bda4feb6688201fd995c080418c", 4),
            (25, ZIGZAG_25GON, True, "70d052bea1c05347438b92c119a8df9e4adec81e7e92bad082b1812a773cb409", 3),
            (25, ZIGZAG_25GON, False, "5cda9e9474c9d35d1b273f580ca0c262c15615efafb187baaa867eaf04cc3eb0", 3),
        ],
    )
    def test_bytes_match_pinned_digest(self, n, diagonals, highlight, digest, k):
        # Pinned digests keep the output byte-identical across versions, not
        # only within one process: the README 12-gon, diameter cases for
        # k = 3 and 4, a central 4-cell, and an odd n with long diagonals.
        from polycenter import parse_diagonals

        svg = render_svg(Dissection(n, parse_diagonals(diagonals), k), highlight_central=highlight)
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    @pytest.mark.parametrize("highlight", [True, False])
    @pytest.mark.parametrize(
        "n, diagonals, message",
        [
            (4, {(0, 2), (1, 3)}, "diagonals (0, 2) and (1, 3) cross"),
            (6, {(0, 2)}, "cell (0, 2, 3, 4, 5) has 5 vertices; not a dissection into 3-gons"),
        ],
    )
    def test_invalid_dissection_raises_the_faces_message(self, n, diagonals, message, highlight):
        from polycenter import faces

        d = Dissection(n, diagonals)
        with pytest.raises(ValueError) as expected:
            faces(d)
        assert str(expected.value) == message
        with pytest.raises(ValueError) as got:
            render_svg(d, highlight_central=highlight)
        assert str(got.value) == message

    def test_frame_cache_keeps_one_n(self):
        from polycenter import parse_diagonals
        from polycenter.svg import _frame

        cases = {
            12: Dissection(12, parse_diagonals(FIGURE_STYLE_12GON)),
            25: Dissection(25, parse_diagonals(ZIGZAG_25GON)),
            6: Dissection(6, {(0, 3), (0, 2), (3, 5)}),
        }
        fresh = {}
        for n, d in cases.items():
            _frame.cache_clear()
            fresh[n] = render_svg(d)
        _frame.cache_clear()
        for n in (12, 25, 12, 6, 12):
            assert render_svg(cases[n]) == fresh[n]
            assert _frame.cache_info().currsize <= 1

    def test_figure_style_central_triangle(self):
        from polycenter import central_component, face_arcs, parse_diagonals

        d = Dissection(12, parse_diagonals(FIGURE_STYLE_12GON))
        c = central_component(d)
        assert len(c.vertices) == 3
        assert sorted(face_arcs(c.vertices, 12)) == [3, 4, 5]
        central = elements_with_class(render_svg(d), "central")
        assert len(central) == 1
