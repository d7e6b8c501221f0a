"""Command-line front door: expand series, evaluate single coefficients,
run verification sweeps, check lemma fixtures, and emit coefficient tables.

Exit status is 0 only when every requested check passes; structured output
(verify) is JSON lines, tables are CSV, and everything is UTF-8.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import congruences, macmahon, qexpr
from .macmahon import UnsupportedA
from .special import overpartition_gf, prefactor_a

_EXPAND_ALIASES = {
    "prefA": "f1*f6/(f2^2*f3)",
    "overp": "f2/f1^2",
}


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like LO..HI")
    return range(int(lo), int(hi) + 1)


def cmd_expand(args) -> int:
    text = _EXPAND_ALIASES.get(args.expr, args.expr)
    try:
        series = qexpr.evaluate_text(text, args.order)
    except qexpr.ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    coeffs = list(series.coeffs)
    if args.mod:
        coeffs = [c % args.mod for c in coeffs]
    if args.format == "json":
        print(json.dumps({"expr": args.expr, "order": args.order,
                          "mod": args.mod or None, "coeffs": [str(c) for c in coeffs]}))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["n", "coeff"])
        for n, c in enumerate(coeffs):
            w.writerow([n, c])
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


def _modd_one(method: str, a: int, t: int, n: int) -> int:
    if method == "direct":
        return macmahon.modd_direct(a, t, n)
    if method == "explicit":
        return macmahon.modd_explicit(a, t, n)
    if method == "powersum":
        return macmahon.modd_powersum(a, t, n)
    return macmahon.oracle_modd(a, t, n)


def cmd_modd(args) -> int:
    method = args.method
    if method is None:
        method = "explicit" if args.a in (-2, 0, 1) else "direct"
    try:
        if method == "all":
            values = [_modd_one(m, args.a, args.t, args.n)
                      for m in ("direct", "explicit", "oracle", "powersum")]
            print(" ".join(str(v) for v in values))
            if len(set(values)) != 1:
                print("error: evaluation methods disagree", file=sys.stderr)
                return 1
        else:
            print(_modd_one(method, args.a, args.t, args.n))
    except (UnsupportedA, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    try:
        reports = congruences.verify_all(args.profile, ids=args.family,
                                         j_values=args.j, n_budget=args.budget)
    except (congruences.UnknownFamily, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for r in reports:
        print(json.dumps(r.to_json()))
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} families pass", file=sys.stderr)
    return 1 if failed else 0


def cmd_lemmas(args) -> int:
    try:
        fixtures = qexpr.load_fixtures(args.path)
    except (OSError, ValueError, qexpr.ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = qexpr.check_fixtures(fixtures, args.order)
    for r in reports:
        print(r.line())
    passed = sum(r.passed for r in reports)
    print(f"{passed}/{len(reports)} pass")
    return 0 if passed == len(reports) else 1


def cmd_table(args) -> int:
    if not len(args.n):
        print("error: empty range", file=sys.stderr)
        return 2
    if args.n.start < 0:
        print("error: the range must start at n >= 0", file=sys.stderr)
        return 2
    top = args.n[-1]
    if args.seq in ("prefA", "overp"):
        build = prefactor_a if args.seq == "prefA" else overpartition_gf
        coeffs = build(top + 1, args.mod).coeffs
        values = [coeffs[n] for n in args.n]
    else:
        if args.a is None or args.t is None:
            print("error: --seq modd needs -a and -t", file=sys.stderr)
            return 2
        try:
            values = macmahon.modd_explicit_batch(args.a, args.t, list(args.n))
        except (UnsupportedA, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    w = csv.writer(sys.stdout)
    w.writerow(["n", "value"])
    for n, v in zip(args.n, values):
        w.writerow([n, v % args.mod if args.mod else v])
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qlab",
        description="Exact q-series expansions and congruence verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand an eta/theta expression")
    p.add_argument("expr", help="DSL expression, e.g. \"f2/f1^2\"")
    p.add_argument("--order", type=int, required=True, help="number of coefficients")
    p.add_argument("--mod", type=int, default=0, help="reduce coefficients mod M")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("modd", help="one coefficient of the odd divisor-sum family")
    p.add_argument("-a", type=int, required=True, choices=(-2, -1, 0, 1, 2))
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--method", choices=("direct", "explicit", "oracle", "powersum", "all"))
    p.set_defaults(func=cmd_modd)

    p = sub.add_parser("verify", help="sweep congruence families")
    p.add_argument("--family", action="append", help="family id (repeatable)")
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.add_argument("--budget", type=int,
                   help="override every family's argument bound (default: the profile's)")
    p.add_argument("--j", type=int, nargs="+",
                   help="explicit J values (default: the family's first two)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lemmas", help="check a fixture file of identities")
    p.add_argument("path", nargs="?", default=None,
                   help="fixture file (.qx; default: the packaged dissection corpus)")
    p.add_argument("--order", type=int, default=None,
                   help="override each fixture's check order")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("table", help="CSV table of a coefficient sequence")
    p.add_argument("--seq", choices=("prefA", "overp", "modd"), required=True)
    p.add_argument("-a", type=int, choices=(-2, 0, 1))
    p.add_argument("-t", type=int)
    p.add_argument("--n", type=_parse_range, required=True, help="range LO..HI")
    p.add_argument("--mod", type=int, default=0)
    p.set_defaults(func=cmd_table)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "order", None) is not None and args.order < 1:
        print("error: --order must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "mod", 0) < 0:
        print("error: --mod must be >= 0", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
