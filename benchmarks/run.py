"""Benchmark for polycenter: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 benchmarks/run.py --workload recursion_sweep --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one caller.  Passes run one after another,
each in a fresh child interpreter so the ``sequences`` caches start cold,
until --seconds have passed.  Each metric is the median over the passes, or
over the set-up spawns for setup_s.  wall_ref is a pass's wall time divided
by the time of a fixed reference loop run in the same child, so it does not
move when the host as a whole gets slower.  The last line of stdout is one JSON object with keys correct,
attempted, failed and metrics; the metric names and units come from
BENCHMARK.json.  A fuller record (environment, parameters, every pass) goes
to .bench_out/, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

CHILD = Path(__file__).with_name("child.py")
OUT_DIR = ".bench_out"
#: A pass stops starting cases after this long; a case that ends later fails.
PASS_LIMIT_S = 60.0
#: A child still running this long after the pass limit is killed.
KILL_GRACE_S = 30.0
#: Fewest fresh interpreters timed for setup_s.
SETUP_SPAWNS = 9
SETUP_CODE = "import polycenter.cli as cli; cli.build_parser()"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, root: Path, env: dict) -> dict:
    """Run one child to completion.

    A child that crashes or is killed is lost: it returns no measurements and
    every case it held counts as failed.
    """
    attempted = len(spec.get("cases", [None]))
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            cwd=root,
            env=env,
            timeout=PASS_LIMIT_S + KILL_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        return {"attempted": attempted, "failed": attempted, "lost": True,
                "failures": [f"{spec['mode']} child killed after {PASS_LIMIT_S + KILL_GRACE_S}s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"attempted": attempted, "failed": attempted, "lost": True,
                "failures": [f"{spec['mode']} child exited {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout)


def time_setup(root: Path, env: dict) -> float:
    """Wall time of a fresh interpreter importing polycenter and building the CLI parser."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env, check=True)
    return time.perf_counter() - start


def git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def loop(seconds: float, step) -> list:
    """Call step() until seconds have passed (at least once) or a child is lost."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(step())
        if any(r.get("lost") for r in results[-1]):
            break
    return results


def timed_run(args, cases, root, env) -> dict:
    """Passes until --seconds have passed, each after one timed set-up spawn.

    Spreading the set-up spawns over the run makes their median see the same
    machine conditions as the passes.
    """
    time_setup(root, env)  # unmeasured: warms the bytecode and file caches
    setup = []
    spec = {"mode": "pass", "cases": cases, "limit_s": PASS_LIMIT_S}

    def step():
        setup.append(time_setup(root, env))
        return [run_child(spec, root, env)]

    passes = [r[0] for r in loop(args.seconds, step)]
    while len(setup) < SETUP_SPAWNS:
        setup.append(time_setup(root, env))
    timed = [p for p in passes if "wall_s" in p]
    if not timed:
        raise RuntimeError(passes[0]["failures"][0])
    walls = [p["wall_s"] for p in timed]
    refs = [statistics.mean(p["ref_s"]) for p in timed]
    # Other tenants of a shared host change its speed by up to 1.5x over
    # minutes and 1.8x within one run.  Dividing each pass by the reference
    # loop timed around it in the same child cancels that drift, so wall_ref
    # is the bounded figure; wall_s and items_per_s are printed beside it.
    metrics = {
        "wall_ref": statistics.median(w / r for w, r in zip(walls, refs)),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in timed),
        "setup_s": statistics.median(setup),
    }
    extra = {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(p["items"] / p["wall_s"] for p in timed), "items/s"),
        "ref_s": (statistics.median(refs), "s"),
    }
    summary = (f"passes {len(walls)}: fastest {min(walls):.4f} s, median {statistics.median(walls):.4f} s, "
               f"slowest {max(walls):.4f} s; setup spawns {len(setup)}")
    return {"metrics": metrics, "extra": extra, "children": passes, "setup_s": setup, "summary": summary}


def traced_run(args, cases, root, env) -> dict:
    """Rounds of (untraced pass, traced pass, CLI run); per-layer medians over rounds."""
    plain = {"mode": "pass", "cases": cases, "limit_s": PASS_LIMIT_S}
    traced = {"mode": "traced", "cases": cases, "limit_s": PASS_LIMIT_S}
    cli = {"mode": "cli", "workload": args.workload, "argv": workloads.CLI_ARGV[args.workload]}

    def step():
        children = []
        for spec in (plain, traced, cli):
            children.append(run_child(spec, root, env))
            if children[-1].get("lost"):  # stop at once, so a hang costs one kill
                break
        return children

    rounds = loop(args.seconds, step)
    whole = [r for r in rounds if not any(c.get("lost") for c in r)]
    if not whole:
        raise RuntimeError(next(c for c in rounds[0] if c.get("lost"))["failures"][0])
    per_round = []
    for p, t, c in whole:
        layers = dict(t["layers"])
        layers["cli.import_s"] = c["import_s"]
        layers["cli.run_s"] = c["run_s"]
        layers["cli.stdout_bytes"] = c["stdout_bytes"]
        layers["trace.overhead_ratio"] = t["wall_s"] / p["wall_s"]
        per_round.append(layers)
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    spans = [
        {"round": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "case": s[4]}
        for i, (_, t, _) in enumerate(whole)
        for s in t.pop("spans")
    ]
    summary = f"rounds {len(whole)} of (untraced pass, traced pass, CLI run); {len(spans)} spans"
    return {"metrics": metrics, "children": [c for r in rounds for c in r], "spans": spans, "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polycenter" / "__init__.py").is_file():
        print("error: run from a polycenter checkout (src/polycenter not found)", file=sys.stderr)
        return 2
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from polycenter.sequences import kangulation_count

    params = workloads.PARAMS[args.workload]
    try:
        cases = workloads.plan(args.workload, args.seed, params, kangulation_count)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = child_env(root)
    try:
        run = (traced_run if args.trace else timed_run)(args, cases, root, env)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(wanted) != set(run["metrics"]):
        print(f"error: measured {sorted(run['metrics'])}, BENCHMARK.json declares {sorted(wanted)}",
              file=sys.stderr)
        return 1
    attempted = sum(c["attempted"] for c in run["children"])
    failed = sum(c["failed"] for c in run["children"])
    metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in wanted.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "item_unit": workloads.ITEM_UNIT[args.workload],
        "cases": len(cases),
        "environment": environment(root),
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "unregistered_metrics": run.get("extra"),
        "setup_s_samples": run.get("setup_s"),
        "children": run["children"],
    }
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(run["spans"]))

    env_info = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={env_info['python']} "
          f"nproc={env_info['nproc']} commit={env_info['git_commit']} record={OUT_DIR}/{stem}.json")
    print(f"# {run['summary']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in run.get("extra", {}).items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {record['error_rate']:.6g} ({failed}/{attempted} cases failed)")
    for child in run["children"]:
        for line in child["failures"]:
            print(f"FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
