"""Command-line front end.

Commands work in Fuss-Catalan index space: each count and each recursion
case is F(m, s) of one index m, found once from the command's arguments.
Every negative or too-large value is refused in one place, :func:`_admit`,
before any work and with exit 2.  Each limit is a constant below, with the
timings that sized it.

Exit codes: 0 = success / everything verified, 1 = a counterexample or
identity failure was found (or an --expect assertion missed), 2 = usage
error (unknown flags, malformed diagonal lists, invalid parameters),
3 = internal error (a broken invariant of the library itself, not a
mathematical counterexample).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import count
from pathlib import Path

from .congruences import Theorem, VerificationReport, _first_mismatch, _no_case, verify_congruence
from .enumeration import _key_order, _shape_json, central_census, census_to_json, count_vertex0_outside
from .model import DIAMETER, Dissection, parse_diagonals
from .recursions import _central_sum, _central_terms, _slot_width, dyck_formula, fixed_vertex_outside
from .sequences import _fuss_index, catalan_mod, fuss_catalan
from .svg import render_svg

#: Most dissections a brute-force command may enumerate.  The count is read
#: from kangulation_count before enumerating, so a larger request exits 2
#: at once instead of running for hours: 3,000,000 admits the 2,674,440
#: triangulations of the 16-gon and refuses the 9,694,845 of the 17-gon.
ENUMERATION_LIMIT = 3_000_000

#: Largest n that a brute-force command accepts.  Below ENUMERATION_LIMIT
#: the cost still grows with the cell size k: each cell is built and
#: classified in O(k), and nearly every cell of a few-cell dissection is a
#: distinct central component.  Four cells per dissection is the slowest
#: case, so census 358 --k 91 (1,927,830 dissections) ends in 19 to 24 s
#: with a peak RSS near 560 MiB, where census 414 --k 105 takes 38 s and
#: 945 MiB.  The per-call cell table's memory is what binds.
ENUMERATION_N_LIMIT = 360

#: Largest index a residue command accepts: the --max of verify congruence
#: and the n of catalan --mod.  It bounds the dense sweeps odd and mod4,
#: which step the residue at every index for about a µs, so a run at the
#: limit ends within about 30 s (mod4 --max 10000000 took 7.0 to 9.5 s on
#: CPython 3.11 and 11.6 to 12.1 s on 3.10, on a busy host), where
#: --max 1000000000000 would run for weeks.
#: A passing modp or kangp run steps nothing: it reads each checked index's
#: p-adic valuation from Legendre's formula, about log_p of the index in
#: work.  Only a library bug makes a run fail, and a failing kangp run steps
#: up to max/(k-2) ratios of two binomials each.  Stepping all of them at
#: the limit with p = 3, in process, took 0.4 to 12 s on CPython 3.11
#: (4.5 s at k = 5, 4.4 s at 199, 10.1 s at 1001, 11.8 s at 1999, 11.9 s
#: at 2300, 8.5 s at 3163, 0.4 s at 10001) and 1.9 to 76 s on 3.10 (9.2,
#: 14.6, 51.9, 76.1, 73.9, 52.0 and 1.9 s), whose math.comb multiplies one
#: factor at a time.  p = 5 and p = 7 took 0.5 to 15.4 s on 3.11.  catalan
#: --mod sieves 2n + 1 bytes: catalan 10000000 --mod 1000000007 ends in
#: about 2 s with a peak RSS near 53 MiB.
CONGRUENCE_LIMIT = 10_000_000

#: Largest n that fixed-vertex accepts.  The cost of its closed form and Dyck
#: sum grows as about n**2.8, so fixed-vertex 40000 --dyck ends in about 30 s
#: with a peak RSS near 220 MiB, most of it the Catalan prefix it tabulates.
FIXED_VERTEX_LIMIT = 40_000

#: Largest n that render accepts.  Memory binds before time: a document
#: costs about 0.9 KB of peak RSS and 5 µs a vertex, so render 250000
#: --k 250000 --highlight-central ends in about 1.5 s with a peak RSS near
#: 222 MiB and writes a 58 MB SVG, where n = 1000000 peaks near 1 GiB.
RENDER_LIMIT = 250_000

#: Most decimal digits that catalan, fuss, kang and quad may compute,
#: estimated before any work; catalan --mod is bounded by CONGRUENCE_LIMIT
#: instead.  catalan is the slowest per digit: catalan 705919, the largest
#: index admitted (424,997 digits), ends in about 29 s, where quad, kang and
#: fuss at the limit end in 4 to 18 s.
COUNT_LIMIT = 425_000

#: Most units of work that one verify recursion run may do at k = 3, where
#: its last case, of Fuss-Catalan index M, closes T sorted triples of
#: indices with bigints of about B bits: T * B * cases units (see
#: _recursion_max).  central --max 1304, the largest admitted for central
#: and kang --k 3, took 8.5 to 12.0 s as a whole CLI run on CPython 3.11 on
#: a shared 2-vCPU host, 0.7 to 1.0e-10 s a unit.
RECURSION_LIMIT = 120_000_000_000

#: The same at k >= 4, where each case is one packed power: its products
#: times (M * w)**log2(3) units for ints of M slots of w bits.  Whole CLI
#: runs at the largest admitted --max, priced 1.85 to 2.0e12 units, took
#: 2.9 to 6.4e-12 s a unit on the same host, 5.7 to 11.9 s at every k from
#: quad to 10**100 (the README limits table lists each).
RECURSION_POWER_LIMIT = 2_000_000_000_000


def _finish(value, args) -> int:
    print(value)
    return _check_expect(value, args)


def _check_expect(value, args) -> int:
    """1, with an error line on stderr, when --expect was given and value differs from it; else 0."""
    if args.expect is not None and str(value) != args.expect:
        print(f"error: expected {args.expect}, got {value}", file=sys.stderr)
        return 1
    return 0


def _admit(name: str, value: int, limit: int | None = None, *, negative_ok: bool = False) -> int:
    """value, or a usage error (exit 2) before any work: the one place that writes a refusal.

    A negative value is refused unless negative_ok, which leaves it to the
    library's own, more precise message (n >= 3, n >= k); a value above
    limit, when there is one, is refused with the limit.
    """
    if value < 0 and not negative_ok:
        raise ValueError(f"{name} must be >= 0")
    if limit is not None and value > limit:
        raise ValueError(f"{name}={value} is above the limit of {limit}")
    return value


def _micro_digits(m: int, s: int) -> int:
    """The decimal digits of F(m, s), s >= 2, estimated from above in millionths of a digit.

    F(m, s) = binomial(sm, m)/((s-1)m + 1).  log10 binomial(sm, m) is below
    m times the rate s log10 s - (s-1) log10 (s-1), its entropy bound, and
    within a few digits of it, so log10 F(m, s) is estimated from above as
    m * rate - log10((s-1)m + 1).  The rate is log10 s + t log10 (1 + 1/t)
    with t = s-1, and t log10 (1 + 1/t) has reached log10 e in double
    precision by t = 2**52.  The estimate is kept in integer millionths of a
    digit, rounded up, so an input of any size is estimated without a float
    overflow.
    """
    t = min(s - 1, 2**52)
    rate = math.log10(s) + t * math.log1p(1 / t) / math.log(10)
    return m * math.ceil(rate * 10**6) - math.floor(math.log10((s - 1) * m + 1) * 10**6)


def _check_count(m: int, s: int) -> None:
    """Refuse, before any work, a Fuss-Catalan number F(m, s) of more than COUNT_LIMIT digits.

    Its digits are estimated by :func:`_micro_digits`.
    """
    if s < 2:
        return  # fuss_catalan rejects s itself
    micro = _micro_digits(m, s)
    if micro > COUNT_LIMIT * 10**6:
        digits = -(-micro // 10**6)
        raise ValueError(f"the count has about {digits} digits, which is above the limit of {COUNT_LIMIT}")


def _count(m: int, s: int, args) -> int:
    _check_count(m, s)
    return _finish(fuss_catalan(m, s), args)


def _cmd_catalan(args) -> int:
    if args.mod is not None:
        return _finish(catalan_mod(_admit("n", args.n, CONGRUENCE_LIMIT), args.mod), args)
    return _count(_admit("n", args.n), 2, args)


def _cmd_fuss(args) -> int:
    return _count(_admit("n", args.n), args.k, args)


def _cmd_kang(args) -> int:
    """F(m, k-1) k-angulations of the n-gon when n = (k-2)m + 2, else none."""
    n = _admit("n", args.n)
    if args.k < 3:
        raise ValueError("k must be >= 3")
    m = _fuss_index(n, args.k)
    return _finish(0, args) if m is None else _count(m, args.k - 1, args)


def _cmd_quad(args) -> int:
    return _count(_admit("n", args.n), 3, args)


def _preflight(n: int, k: int) -> None:
    """Refuse, before enumerating, a brute-force run above ENUMERATION_LIMIT
    dissections or ENUMERATION_N_LIMIT vertices.

    The run enumerates kangulation_count(n, k) dissections: the Fuss-Catalan
    number F(m, k-1) when n = (k-2)m + 2, else none.  F(m, s) is
    nondecreasing in m and at least the Catalan number C(m) >= 2**(m-1), so
    every index from cap = ENUMERATION_LIMIT.bit_length() + 1 on is past the
    limit, and one value at min(m, cap) decides: a binomial of at most cap
    factors, where the exact count of a large n would take minutes and
    print thousands of digits.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    m = _fuss_index(n, k)
    if m is not None and fuss_catalan(min(m, ENUMERATION_LIMIT.bit_length() + 1), k - 1) > ENUMERATION_LIMIT:
        raise ValueError(f"n={n}, k={k} would enumerate more than {ENUMERATION_LIMIT} dissections")
    _admit("n", n, ENUMERATION_N_LIMIT, negative_ok=True)


def _shape_text(shape) -> str:
    return DIAMETER if shape == DIAMETER else ",".join(map(str, shape))


def _print_report(report: VerificationReport, args, text: str) -> int:
    """Print the report as one JSON line with --json, else the caller's text line; exit 0 iff it passed."""
    print(json.dumps(report.to_json(), sort_keys=True) if args.json else text)
    return 0 if report.passed else 1


def _recursion_max(k: int, first: int) -> int:
    """The first Fuss-Catalan index that verify recursion refuses at cell size k, its cases counted from first.

    A run to the case of index M costs that case's price, by the path
    :func:`_central_sum` takes, times its cases.  At k = 3 the case closes
    the sorted triples of indices <= (M-1)//2 summing to M - 1, bigints of
    about the bits of F(M, 2): the ((M+2)**2 + 6)//12 partitions of M - 1
    into at most 3 parts less the x + (x-1)**2//4, x = M//2, with a part
    above (M-1)//2.  At k >= 4 it makes k.bit_length() - 1 squarings and
    k.bit_count() - 1 multiplies of ints of M slots of :func:`_slot_width`
    bits, each priced (M * width)**log2(3) for Karatsuba multiplication.
    """
    products = k.bit_length() + k.bit_count() - 2
    for m in count(first):
        if k == 3:
            x = m // 2
            tuples = ((m + 2) ** 2 + 6) // 12 - (x + (x - 1) ** 2 // 4)
            bits = math.ceil(_micro_digits(m, 2) * math.log2(10) / 10**6)
            if tuples * bits * (m - first + 1) > RECURSION_LIMIT:
                return m
        elif products * (m * _slot_width(m - 1, k)) ** math.log2(3) * (m - first + 1) > RECURSION_POWER_LIMIT:
            return m


def _verify_recursion(args) -> int:
    """Check the central sum of the polygon (k-2)m + 2 against F(m, k-1) for each index m.

    The kang cases start at m = 2, where the polygon first exceeds one
    cell, the others at m = 1.  Case m prints n = step * m + start: m itself
    for quad, else the polygon.  Only kang takes --k, 3 when it is absent.
    A --max below the first case is refused: a run that checks nothing
    does not pass.
    """
    k = {"central": 3, "quad": 4}.get(args.kind, 3)
    if args.k is not None:
        if args.kind != "kang":
            raise ValueError(f"--k is only for --kind kang; --kind {args.kind} has k = {k}")
        k = args.k
    first = 2 if args.kind == "kang" else 1
    step, start = (1, 0) if args.kind == "quad" else (k - 2, 2)
    if k < 3:
        raise ValueError("k must be >= 3")
    _admit("max", args.max, step * _recursion_max(k, first) + start - 1)
    cases = range(first, (args.max - start) // step + 1)
    if not cases:
        raise _no_case(args.max, step * first + start)
    for m in cases:
        n, rhs, expected = step * m + start, _central_sum((k - 2) * m + 2, k), fuss_catalan(m, k - 1)
        if rhs != expected:
            print(f"n={n} FAIL: recursion gives {rhs}, expected {expected}")
            return 1
        print(f"n={n} OK")
    print(f"verified {len(cases)} cases")
    return 0


def _verify_congruence(args) -> int:
    """Sweep the theorem up to --max; a --max below the first case or a --p or --k it ignores is refused."""
    if args.p is not None and args.theorem not in ("modp", "kangp"):
        raise ValueError("--p is only for --theorem modp and kangp")
    if args.k is not None and args.theorem != "kangp":
        raise ValueError("--k is only for --theorem kangp")
    _admit("max", args.max, CONGRUENCE_LIMIT)
    report = verify_congruence(Theorem(args.theorem), args.max, p=args.p, k=3 if args.k is None else args.k)
    if report.passed:
        return _print_report(report, args, f"{args.theorem}: verified up to n={args.max}")
    return _print_report(report, args, f"{args.theorem}: counterexample {report.counterexample}")


def _verify_census(args) -> int:
    n, k = args.n, args.k
    _preflight(n, k)  # also rejects k < 3
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if _fuss_index(n, k) is None:
        raise ValueError(f"n={n} violates n = 2 (mod {k - 2})")
    expected = {shape: count for shape, count in _central_terms(n, k) if count}
    enumerated = {e.key: e.count for e in central_census(n, k)}
    shapes = sorted(expected.keys() | enumerated.keys(), key=_key_order)
    mismatch = _first_mismatch(
        "shape",
        map(_shape_json, shapes),
        (str(expected.get(shape, 0)) for shape in shapes),
        (str(enumerated.get(shape, 0)) for shape in shapes),
    )
    report = VerificationReport(None, {"n": n, "k": k}, *mismatch)
    if report.passed:
        return _print_report(report, args, f"census n={n} k={k}: verified {report.cases} cases")
    counterexample = report.counterexample
    shape = _shape_text(counterexample["shape"])
    return _print_report(
        report,
        args,
        f"census n={n} k={k}: shape {shape} expected {counterexample['expected']}, "
        f"enumerated {counterexample['actual']}",
    )


def _cmd_census(args) -> int:
    _preflight(args.n, args.k)
    entries = central_census(args.n, args.k)
    if args.json:
        print(json.dumps(census_to_json(args.n, args.k, entries), sort_keys=True))
    else:
        for e in entries:
            print(f"{_shape_text(e.key)}\t{e.count}")
    return 0


def _cmd_fixed_vertex(args) -> int:
    _admit("n", args.n, FIXED_VERTEX_LIMIT, negative_ok=True)
    if args.brute:
        _preflight(args.n, 3)
    closed = fixed_vertex_outside(args.n)
    values = {"closed-form": closed}
    if args.brute:
        values["brute-force"] = count_vertex0_outside(args.n)
    if args.dyck:
        values["dyck"] = dyck_formula(args.n - 2)
    for name, value in values.items():
        print(f"{name}\t{value}")
    if len(set(values.values())) != 1:
        print("error: counts disagree", file=sys.stderr)
        return 1
    return _check_expect(closed, args)


def _cmd_render(args) -> int:
    _admit("n", args.n, RENDER_LIMIT, negative_ok=True)
    diags = parse_diagonals(args.diagonals)
    d = Dissection(args.n, diags, args.k)
    svg = render_svg(d, highlight_central=args.highlight_central)
    out = Path(args.out)
    out.write_text(svg, encoding="utf-8")
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycenter",
        description="Exact counts, recursion/congruence verification, censuses "
        "and SVG rendering for polygon dissections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_expect(sp):
        sp.add_argument(
            "--expect",
            metavar="VALUE",
            help="exit 1 unless the printed value equals VALUE",
        )

    sp = sub.add_parser("catalan", help="Catalan number C(n)")
    sp.add_argument("n", type=int)
    sp.add_argument("--mod", type=int, help="print C(n) modulo this instead")
    add_expect(sp)
    sp.set_defaults(func=_cmd_catalan)

    sp = sub.add_parser("fuss", help="Fuss-Catalan number")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    add_expect(sp)
    sp.set_defaults(func=_cmd_fuss)

    sp = sub.add_parser("kang", help="number of k-angulations of an n-gon")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    add_expect(sp)
    sp.set_defaults(func=_cmd_kang)

    sp = sub.add_parser("quad", help="number of quadrangulations of a (2n+2)-gon")
    sp.add_argument("n", type=int)
    add_expect(sp)
    sp.set_defaults(func=_cmd_quad)

    sp = sub.add_parser("verify", help="verification sweeps")
    vsub = sp.add_subparsers(dest="what", required=True)

    vr = vsub.add_parser("recursion", help="check a recursion against closed forms")
    vr.add_argument("--kind", choices=["central", "quad", "kang"], required=True)
    vr.add_argument("--k", type=int, help="cell size for --kind kang (default 3)")
    vr.add_argument("--max", type=int, required=True)
    vr.set_defaults(func=_verify_recursion)

    vc = vsub.add_parser("congruence", help="check a congruence theorem")
    vc.add_argument("--theorem", choices=[t.value for t in Theorem], required=True)
    vc.add_argument("--p", type=int, help="prime for the mod-p theorems")
    vc.add_argument("--k", type=int, help="cell size for kangp (default 3)")
    vc.add_argument("--max", type=int, required=True)
    vc.add_argument("--json", action="store_true")
    vc.set_defaults(func=_verify_congruence)

    vs = vsub.add_parser(
        "census", help="check each recursion term against the brute-force census, shape by shape"
    )
    vs.add_argument("n", type=int)
    vs.add_argument("--k", type=int, default=3)
    vs.add_argument("--json", action="store_true")
    vs.set_defaults(func=_verify_census)

    sp = sub.add_parser("census", help="brute-force central-component census")
    sp.add_argument("n", type=int)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("fixed-vertex", help="triangulations with vertex 0 outside the central component")
    sp.add_argument("n", type=int)
    sp.add_argument("--brute", action="store_true", help="also brute-force the count")
    sp.add_argument("--dyck", action="store_true", help="also evaluate the ballot-number form")
    add_expect(sp)
    sp.set_defaults(func=_cmd_fixed_vertex)

    sp = sub.add_parser("render", help="render a dissection as SVG")
    sp.add_argument("n", type=int)
    sp.add_argument("--diagonals", default="", help='comma-separated "x-y" list')
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--out", required=True)
    sp.add_argument("--highlight-central", action="store_true")
    sp.set_defaults(func=_cmd_render)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # A computed count prints in full, past the int-to-str digit limit that
    # CPython has had since 3.10.7.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
