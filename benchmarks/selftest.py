"""Self-test of the benchmark's checks, so they are never vacuous.

Run from the repository root:

    python3 benchmarks/selftest.py

On small plans of every workload it shows that
- a clean pass, untraced and traced, reports no failure;
- corrupting one expected value of each case kind makes that case fail,
  so error_rate > 0;
- each workload's CLI command passes its check;
- a census above the object cap is refused before anything is enumerated;
- cases that end after the pass time limit count as failures.

Exits 0 when every claim holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import run
import workloads

SMALL = {
    "recursion_sweep": {"central_max": 20, "quad_max": 6, "kang_ks": [3, 4], "kang_max": 20, "fixed_max": 20},
    "oracle_census": {"tri_max": 7, "quad4_max": 8, "vertex0_max": 7, "svg_n": 8, "svg_docs": 10},
    "congruence_sweep": {
        **workloads.PARAMS["congruence_sweep"],
        "max_n": 300,
        "prime_pool": [5, 7, 11],
        "primes": 2,
        "modp_indices": 4,
        "kang_pairs": 2,
        "kangp_indices": 4,
    },
}


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "polycenter" / "__init__.py").is_file():
        print("error: run from a polycenter checkout (src/polycenter not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from polycenter.sequences import kangulation_count

    env = run.child_env(root)
    problems = []

    def claim(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    def child(spec: dict) -> dict:
        return run.run_child({"limit_s": run.PASS_LIMIT_S, **spec}, root, env)

    for name, params in SMALL.items():
        cases = workloads.plan(name, 1, params, kangulation_count)
        for mode in ("pass", "traced"):
            r = child({"mode": mode, "cases": cases})
            claim(r["failed"] == 0, f"{name} {mode}: clean pass has no failures {r['failures']}")
        first_of_kind = {}
        for i, case in enumerate(cases):
            first_of_kind.setdefault(case[0], i)
        for kind, i in sorted(first_of_kind.items()):
            r = child({"mode": "pass", "cases": cases, "corrupt": i})
            claim(r["failed"] == 1 and r["failed"] / r["attempted"] > 0,
                  f"{name}: corrupted {kind} expectation gives error_rate {r['failed']}/{r['attempted']}")
        r = child({"mode": "cli", "workload": name, "argv": workloads.CLI_ARGV[name]})
        claim(r["failed"] == 0, f"{name}: CLI command {workloads.CLI_ARGV[name]} passes its check")

        r = child({"mode": "pass", "cases": cases, "limit_s": 0.0})
        claim(r["failed"] == r["attempted"], f"{name}: cases past the time limit fail ({r['failed']}/{r['attempted']})")

    too_big = {**workloads.PARAMS["oracle_census"], "tri_max": 16}
    try:
        workloads.plan("oracle_census", 1, too_big, kangulation_count)
        claim(False, "census n=16 is refused by the object cap")
    except ValueError as exc:
        claim(True, f"census n=16 is refused by the object cap: {exc}")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
