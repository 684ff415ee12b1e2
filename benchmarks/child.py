"""One benchmark pass in a fresh interpreter, so every pass starts with cold caches.

Reads a JSON spec on stdin and prints one JSON object on stdout.  Modes:

``pass``    run the cases in order and time them as one block; the
            reference loop is timed just before and after the block, and
            the checks run after it.
``traced``  run the same cases, and before each library call replay the
            inner layer calls it makes on the same inputs, each inside a span.
``cli``     run one ``polycenter.cli.run(argv)`` in-process, stdout captured.

``polycenter`` must be importable (the parent puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import io
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

_start = time.perf_counter()
import polycenter.cli  # noqa: E402  (timed: this is the CLI's import cost)

IMPORT_S = time.perf_counter() - _start

from polycenter import sequences  # noqa: E402
from polycenter.congruences import Theorem, verify_congruence  # noqa: E402
from polycenter.enumeration import (  # noqa: E402
    census_to_json,
    central_census,
    count_vertex0_outside,
    enumerate_kangulations,
)
from polycenter.model import (  # noqa: E402
    Dissection,
    central_component,
    contains_vertex,
    faces,
    placement_count,
)
from polycenter.recursions import (  # noqa: E402
    bounded_partitions,
    central_recursion_rhs,
    dyck_formula,
    fixed_vertex_outside,
    kang_recursion_rhs,
    quad_recursion_rhs,
)
from polycenter.sequences import (  # noqa: E402
    ballot_T,
    catalan,
    catalan_mod,
    kangulation_count,
    quadrangulation_count,
)
from polycenter.svg import render_svg  # noqa: E402

import workloads  # noqa: E402


def _census(n, k):
    entries = central_census(n, k)
    return entries, census_to_json(n, k, entries)


#: The library call each case kind makes; the untraced pass times exactly these.
CALLS = {
    "central": central_recursion_rhs,
    "quad": quad_recursion_rhs,
    "kang": kang_recursion_rhs,
    "fixed": lambda n: (fixed_vertex_outside(n), dyck_formula(n - 2)),
    "census": _census,
    "vertex0": count_vertex0_outside,
    "svg": render_svg,
    "odd": lambda m: verify_congruence(Theorem.ODD_CHARACTERIZATION, m),
    "mod4": lambda m: verify_congruence(Theorem.MOD4_CLASSIFICATION, m),
    "modp": lambda p, m: verify_congruence(Theorem.MODP_CATALAN, m, p=p),
    "kangp": lambda p, k, m: verify_congruence(Theorem.MODP_KANGULATION, m, p=p, k=k),
}


def _args(case) -> tuple:
    """Library inputs of a case, built before any timing starts."""
    if case[0] == "svg":
        return (Dissection(case[1], case[2]),)
    return tuple(case[1:])


def _cached_functions() -> dict:
    """Every public function of ``sequences``, mapped to itself if it has a cache, else None."""
    return {
        name: (f if hasattr(f, "cache_info") else None)
        for name, f in sorted(vars(sequences).items())
        if callable(f) and not name.startswith("_") and getattr(f, "__module__", "") == sequences.__name__
    }


def _cache_totals() -> tuple:
    hits = misses = 0
    for f in _cached_functions().values():
        if f is not None:
            info = f.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


def _triangulations(lo: int, hi: int):
    """Diagonal tuples of every triangulation of the polygon lo..hi, by apex on edge (lo, hi)."""
    if hi - lo < 2:
        yield ()
        return
    for apex in range(lo + 1, hi):
        own = ((lo, apex),) * (apex - lo > 1) + ((apex, hi),) * (hi - apex > 1)
        for left in _triangulations(lo, apex):
            for right in _triangulations(apex, hi):
                yield own + left + right


def _reference_loop() -> int:
    """Fixed pure-Python work shaped like the library's (generators, tuples, sets); never calls polycenter."""
    return sum(len(frozenset(t)) for t in _triangulations(0, 7))


def reference_s(slices: int = 9) -> float:
    """Median time of the reference loop: how fast the host runs this process right now."""
    times = []
    for _ in range(slices):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _pct(xs, q: float) -> float:
    """Nearest-rank q-quantile; 0.0 for an empty sample."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


class Tracer:
    """Spans (name, start, end, parent, case) plus counters and per-call samples."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list = []
        self.stack: list = []
        self.case = None
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter() - self.t0, None, parent, self.case])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter() - self.t0

    @contextmanager
    def sequence_batch(self, calls: int):
        """Span for a batch of ``sequences`` calls, with its cache hits and misses."""
        hits, misses = _cache_totals()
        with self.span("sequences"):
            yield
        after = _cache_totals()
        self.counts["sequences.calls"] += calls
        self.counts["sequences.hits"] += after[0] - hits
        self.counts["sequences.misses"] += after[1] - misses

    def timed(self, name: str, f, *args):
        start = time.perf_counter()
        out = f(*args)
        self.samples[name].append(time.perf_counter() - start)
        return out

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]


# --- traced case bodies: inner layer calls first, then the composite call ----


def _sum_terms(tr, name, composite, n_place, partition_args, factor, diameter):
    with tr.span("recursions.bounded_partitions"):
        tuples = list(bounded_partitions(*partition_args))
    tr.counts["recursions.partitions"] += len(tuples)
    with tr.span("model.placement_count"):
        for t in tuples:
            tr.timed("model.placement_count", placement_count, t, n_place)
    calls = sum(len(t) for t in tuples) + (diameter is not None)
    with tr.sequence_batch(calls):
        products = [math.prod(factor(i) for i in t) for t in tuples]
        if diameter is not None:
            diameter()
    tr.counts["recursions.nonzero_terms"] += sum(1 for x in products if x)
    with tr.span(name):
        return composite()


def _trace_central(tr, n):
    return _sum_terms(
        tr, "recursions.central_recursion_rhs", lambda: central_recursion_rhs(n),
        n, (n, 3, 1, (n - 1) // 2), lambda i: catalan(i - 1),
        (lambda: catalan(n // 2 - 1)) if n % 2 == 0 else None,
    )


def _trace_quad(tr, n):
    return _sum_terms(
        tr, "recursions.quad_recursion_rhs", lambda: quad_recursion_rhs(n),
        2 * n + 2, (2 * n + 2, 4, 1, n, 1, 2), lambda i: quadrangulation_count((i - 1) // 2),
        lambda: quadrangulation_count(Fraction(n, 2)),
    )


def _trace_kang(tr, n, k):
    mod = k - 2 if k > 3 else 1
    return _sum_terms(
        tr, "recursions.kang_recursion_rhs", lambda: kang_recursion_rhs(n, k),
        n, (n, k, 1, (n - 1) // 2, 1 % mod, mod), lambda i: kangulation_count(i + 1, k),
        (lambda: kangulation_count(n // 2 + 1, k)) if n % 2 == 0 else None,
    )


def _trace_fixed(tr, n):
    ms = range(1, n // 2)
    ks = range((n - 1) // 2)
    with tr.sequence_batch(2 * len(ms) + 2 * len(ks)):
        for m in ms:
            catalan(m)
            catalan(n - 2 - m)
        for k in ks:
            ballot_T(n - 2, k)
            ballot_T(n - 2, k + 1)
    with tr.span("recursions.fixed_vertex_outside"):
        closed = fixed_vertex_outside(n)
    with tr.span("recursions.dyck_formula"):
        dyck = dyck_formula(n - 2)
    return closed, dyck


def _classify(tr, ds, vertex0=False):
    with tr.span("model.faces"):
        for d in ds:
            faces(d)
    tr.counts["model.faces_calls"] += len(ds)
    with tr.span("model.central_component"):
        for d in ds:
            c = tr.timed("model.central_component", central_component, d)
            if vertex0:
                contains_vertex(c, 0)


def _enumerate(tr, n, k):
    with tr.span("enumeration.enumerate_kangulations"):
        ds = list(enumerate_kangulations(n, k))
    tr.counts["enumeration.objects"] += len(ds)
    return ds


def _trace_census(tr, n, k):
    _classify(tr, _enumerate(tr, n, k))
    with tr.span("enumeration.central_census"):
        return _census(n, k)


def _trace_vertex0(tr, n):
    _classify(tr, _enumerate(tr, n, 3), vertex0=True)
    with tr.span("enumeration.count_vertex0_outside"):
        return count_vertex0_outside(n)


def _trace_svg(tr, d):
    _classify(tr, [d])
    with tr.span("svg.render_svg"):
        doc = tr.timed("svg.render_svg", render_svg, d)
    tr.counts["svg.docs"] += 1
    tr.counts["svg.bytes"] += len(doc.encode())
    return doc


def _congruence_tracer(kind, value):
    def trace(tr, *args):
        ns = workloads.indices([kind, *args])
        with tr.sequence_batch(len(ns)):
            for n in ns:
                value(n, *args)
        tr.counts["congruences.cases"] += len(ns)
        with tr.span("congruences.verify_congruence"):
            return CALLS[kind](*args)

    return trace


TRACES = {
    "central": _trace_central,
    "quad": _trace_quad,
    "kang": _trace_kang,
    "fixed": _trace_fixed,
    "census": _trace_census,
    "vertex0": _trace_vertex0,
    "svg": _trace_svg,
    "odd": _congruence_tracer("odd", lambda n, m: catalan_mod(n, 2)),
    "mod4": _congruence_tracer("mod4", lambda n, m: catalan_mod(n, 4)),
    "modp": _congruence_tracer("modp", lambda n, p, m: catalan_mod(n, p)),
    "kangp": _congruence_tracer("kangp", lambda n, p, k, m: kangulation_count(n, k) % p),
}

RHS_SPANS = (
    "recursions.central_recursion_rhs",
    "recursions.quad_recursion_rhs",
    "recursions.kang_recursion_rhs",
    "recursions.fixed_vertex_outside",
    "recursions.dyck_formula",
)


def _layers(tr) -> dict:
    """Per-layer metrics of one traced pass (0 where the workload leaves a layer idle)."""
    total = lambda name: sum(tr.durations(name))  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    c, s = tr.counts, tr.samples
    rhs = [d for name in RHS_SPANS for d in tr.durations(name)]
    cached = [f for f in _cached_functions().values() if f is not None]
    enum_s = total("enumeration.enumerate_kangulations")
    return {
        "sequences.calls": c["sequences.calls"],
        "sequences.busy_s": total("sequences"),
        "sequences.cache_hit_ratio": ratio(c["sequences.hits"], c["sequences.hits"] + c["sequences.misses"]),
        "sequences.cache_entries": sum(f.cache_info().currsize for f in cached),
        "recursions.rhs_calls": len(rhs),
        "recursions.rhs_s": sum(rhs),
        "recursions.rhs_p50_ms": _pct(rhs, 0.5) * 1e3,
        "recursions.rhs_p90_ms": _pct(rhs, 0.9) * 1e3,
        "recursions.partitions": c["recursions.partitions"],
        "recursions.partition_s": total("recursions.bounded_partitions"),
        "recursions.nonzero_term_ratio": ratio(c["recursions.nonzero_terms"], c["recursions.partitions"]),
        "model.placement_calls": len(s["model.placement_count"]),
        "model.placement_s": total("model.placement_count"),
        "model.placement_p50_us": _pct(s["model.placement_count"], 0.5) * 1e6,
        "model.placement_p99_us": _pct(s["model.placement_count"], 0.99) * 1e6,
        "model.faces_calls": c["model.faces_calls"],
        "model.faces_s": total("model.faces"),
        "model.central_s": total("model.central_component"),
        "model.central_p50_us": _pct(s["model.central_component"], 0.5) * 1e6,
        "model.central_p99_us": _pct(s["model.central_component"], 0.99) * 1e6,
        "enumeration.objects": c["enumeration.objects"],
        "enumeration.enum_s": enum_s,
        "enumeration.objects_per_s": ratio(c["enumeration.objects"], enum_s),
        "enumeration.census_s": total("enumeration.central_census"),
        "enumeration.vertex0_s": total("enumeration.count_vertex0_outside"),
        "congruences.cases": c["congruences.cases"],
        "congruences.verify_s": total("congruences.verify_congruence"),
        "svg.docs": c["svg.docs"],
        "svg.bytes": c["svg.bytes"],
        "svg.render_s": total("svg.render_svg"),
        "svg.render_p50_us": _pct(s["svg.render_svg"], 0.5) * 1e6,
    }


def _cache_state() -> dict:
    """cache_info() of each public sequences function, or None where it has no cache."""
    return {
        name: (f.cache_info()._asdict() if f is not None else None)
        for name, f in _cached_functions().items()
    }


def run_cases(spec: dict) -> dict:
    cases = spec["cases"]
    limit = spec["limit_s"]
    traced = spec["mode"] == "traced"
    tr = Tracer() if traced else None
    args = [_args(case) for case in cases]
    outs = [None] * len(cases)
    errors = [None] * len(cases)
    ref_before = reference_s()
    start = time.perf_counter()
    for i, (case, a) in enumerate(zip(cases, args)):
        if time.perf_counter() - start > limit:
            errors[i] = "not started: pass time limit reached"
            continue
        try:
            if traced:
                tr.case = i
                with tr.span("case"):
                    outs[i] = TRACES[case[0]](tr, *a)
            else:
                outs[i] = CALLS[case[0]](*a)
        except Exception as exc:  # a crashing case is a failed case, not a failed pass
            errors[i] = f"crashed: {exc!r}"
            continue
        if time.perf_counter() - start > limit:
            errors[i] = "finished after the pass time limit"
    wall = time.perf_counter() - start
    ref_after = reference_s()

    done = 0
    for i, case in enumerate(cases):
        if errors[i] is not None:
            continue
        out = outs[i]
        if case[0] == "svg":
            out = (out, render_svg(*args[i]))
        try:
            pairs = workloads.expectations(case, out)
        except Exception as exc:  # malformed output, e.g. JSON that does not parse
            errors[i] = f"check crashed: {exc!r}"
            continue
        if i == spec.get("corrupt"):
            pairs = workloads.corrupt(pairs)
        bad = [(e, a) for e, a in pairs if e != a]
        if bad:
            errors[i] = f"mismatch: expected {bad[0][0]!r}, got {bad[0][1]!r}"[:300]
        else:
            done += workloads.items(case)

    failures = [f"case {i} {cases[i][:2]}: {err}" for i, err in enumerate(errors) if err]
    result = {
        "wall_s": wall,
        "ref_s": [ref_before, ref_after],
        "items": done,
        "attempted": len(cases),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        result["layers"] = _layers(tr)
        result["cache"] = _cache_state()
        result["spans"] = tr.spans
    return result


def run_cli(spec: dict) -> dict:
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = polycenter.cli.run(spec["argv"])
    run_s = time.perf_counter() - start
    stdout = buf.getvalue()
    try:
        bad = [(e, a) for e, a in workloads.cli_expectations(spec["workload"], code, stdout) if e != a]
        error = f"mismatch: expected {bad[0][0]!r}, got {bad[0][1]!r}" if bad else None
    except (ValueError, KeyError, IndexError) as exc:
        error = f"check crashed: {exc!r}"
    return {
        "import_s": IMPORT_S,
        "run_s": run_s,
        "stdout_bytes": len(stdout.encode()),
        "attempted": 1,
        "failed": int(error is not None),
        "failures": [f"cli {spec['argv']}: {error}"] if error else [],
    }


def main() -> None:
    spec = json.load(sys.stdin)
    result = run_cli(spec) if spec["mode"] == "cli" else run_cases(spec)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
