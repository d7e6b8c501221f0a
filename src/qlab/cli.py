"""Command-line front door: expand series, evaluate single coefficients,
run verification sweeps, check lemma fixtures, and emit coefficient tables.

Exit status is 0 only when every requested check passes, 1 when one fails,
and 2 when the input is refused: every refusal is raised as a ValueError (or
an OSError for an unreadable file), and `main` alone prints it as one
`error: <message>` line.  Structured output (verify) is JSON lines, tables
are CSV, and everything is UTF-8.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import congruences, macmahon, qexpr
from .macmahon import UnsupportedA
from .special import overpartition_gf, prefactor_a

# named sequences, built on residues when --mod is given
_SEQUENCES = {"prefA": prefactor_a, "overp": overpartition_gf}

# Each slow route's limit as steps {rows: n}, rows ascending: a call that
# builds at most `rows` rows (one per t up to -t) takes -n up to n.  A -t
# past the last step is refused unless t^2 > n, which every route answers
# with 0 at once.  `--method all` runs direct, oracle and powersum, so all
# three limits apply.  The DP costs about rows * n^2 bit operations, the
# power sums rows^2 products of n slots.  Each step's corner at a = 2, the
# slowest a, in three runs: direct t=3 n=5000 0.7-1.2 s, t=10 n=2000
# 1.1-1.7 s, t=20 n=1000 0.7-1.4 s (t=20 n=5000 took 29-34 s); powersum
# t=2 n=50000 0.8-1.2 s, t=3 n=20000 0.7-1.1 s, t=6 n=5000 0.6-0.7 s,
# t=10 n=2000 0.6-1.1 s, t=15 n=1200 0.9-1.3 s, t=20 n=700 0.7-0.9 s
# (a = -2: 0.9-1.3 s; t=10 n=10000 took 9.4 s); oracle t=6 n=100
# 0.3-0.5 s (t=6 n=150 took 8-11 s).  One process, 2-vCPU VM, Python 3.11.
_ROUTE_LIMITS = {
    "direct": {3: 5000, 10: 2000, 20: 1000},
    "oracle": {10: 100},
    "powersum": {2: 50000, 3: 20000, 6: 5000, 10: 2000, 15: 1200, 20: 700},
}


def _past_limit(route: str, t: int, n: int) -> str | None:
    """Why `route` refuses -t t -n n, or None when it takes them."""
    if t * t > n:                   # no t distinct odd parts sum to n
        return None
    for rows, most in _ROUTE_LIMITS[route].items():
        if t <= rows:
            if n <= most:
                return None
            return f"-n {n} is past the {route} route's limit of {most} at -t <= {rows}"
    return f"-t {t} is past the {route} route's limit of {rows} rows (at -n <= {most})"


# The largest order `lemmas` checks at, from --order or a fixture's
# check_to: the 16-identity corpus took 0.28 s at order 1000, 1.4 s at 4000
# and 3.9 s at 8000 (one process, 2-vCPU VM, Python 3.11).
_LEMMAS_LIMIT = 4000


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like LO..HI")
    return range(int(lo), int(hi) + 1)


def cmd_expand(args) -> int:
    build = _SEQUENCES.get(args.expr)
    series = build(args.order, args.mod) if build else qexpr.evaluate_text(args.expr, args.order)
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


# `--method` name -> the macmahon function of that m_odd route (looked up
# when it runs), in the order `--method all` prints them
_ROUTES = {"direct": "modd_direct", "explicit": "modd_explicit",
           "oracle": "oracle_modd", "powersum": "modd_powersum"}


def _modd_all(a: int, t: int, n: int) -> list[int | None]:
    """The four routes' values, None for the closed form when a has none."""
    values = []
    for route in _ROUTES.values():
        try:
            values.append(getattr(macmahon, route)(a, t, n))
        except UnsupportedA:
            values.append(None)
    return values


def cmd_modd(args) -> int:
    if args.method == "all":
        values = _modd_all(args.a, args.t, args.n)
        print(" ".join("-" if v is None else str(v) for v in values))
        if len({v for v in values if v is not None}) != 1:
            print("error: evaluation methods disagree", file=sys.stderr)
            return 1
    else:
        print(getattr(macmahon, _ROUTES[args.method])(args.a, args.t, args.n))
    return 0


def cmd_verify(args) -> int:
    if args.j is not None:
        fams = (congruences.registry() if args.family is None
                else [congruences.lookup(i) for i in args.family])
        bare = [fam.id for fam in fams if fam.t_rule is None]
        if bare:
            named = ", ".join(bare[:3]) + (", ..." if len(bare) > 3 else "")
            raise ValueError(f"--j needs families with a t rule, and {len(bare)} of the "
                             f"{len(fams)} selected families have no t rule ({named}); "
                             f"choose families with one by --family")
    reports = congruences.verify_all(args.profile, ids=args.family,
                                     j_values=args.j, n_budget=args.budget)
    for r in reports:
        print(json.dumps(r.to_json()))
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} families pass", file=sys.stderr)
    return 1 if failed else 0


def cmd_lemmas(args) -> int:
    fixtures = qexpr.load_fixtures(args.path)
    orders = ([("--order", args.order)] if args.order is not None
              else [(f"{fx.name}: check_to", fx.check_to) for fx in fixtures])
    for what, order in orders:
        if order > _LEMMAS_LIMIT:
            raise ValueError(f"{what} {order} is past the lemmas limit of {_LEMMAS_LIMIT}")
    reports = qexpr.check_fixtures(fixtures, args.order)
    for r in reports:
        print(r.line())
    passed = sum(r.passed for r in reports)
    print(f"{passed}/{len(reports)} pass")
    return 0 if passed == len(reports) else 1


def cmd_table(args) -> int:
    if not len(args.n):
        raise ValueError("empty range")
    if args.n.start < 0:
        raise ValueError("the range must start at n >= 0")
    if args.seq != "modd" and (args.a is not None or args.t is not None):
        raise ValueError("-a and -t apply only to --seq modd")
    if args.seq in _SEQUENCES:
        coeffs = _SEQUENCES[args.seq](args.n[-1] + 1, args.mod).coeffs
        values = [coeffs[n] for n in args.n]
    else:
        if args.a is None or args.t is None:
            raise ValueError("--seq modd needs -a and -t")
        values = macmahon.modd_explicit_batch(args.a, args.t, list(args.n), mod=args.mod)
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
    p.add_argument("-a", type=int, required=True, choices=macmahon.DP_AS)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--method", choices=(*_ROUTES, "all"),
                   help="route (default: explicit where a has a closed form, else "
                        "direct); direct takes n <= {}, oracle n <= {}, powersum "
                        "n <= {}, less as t grows; all takes each limit".format(
                            *(max(steps.values()) for steps in _ROUTE_LIMITS.values())))
    p.set_defaults(func=cmd_modd)

    p = sub.add_parser("verify", help="sweep congruence families")
    p.add_argument("--family", action="append", help="family id (repeatable)")
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.add_argument("--budget", type=int,
                   help="every family's argument budget (default: the profile's); "
                        f"an m_odd sweep reaches at least t^2+{congruences.DP_WINDOW}, "
                        "and the a=0 support-pattern families stop there; no sweep "
                        f"may reach past {congruences.MAX_ORDER}")
    p.add_argument("--j", type=int, nargs="+",
                   help="explicit J values (default: the family's first two)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lemmas", help="check a fixture file of identities")
    p.add_argument("path", nargs="?", default=None,
                   help="fixture file (.qx; default: the packaged dissection corpus)")
    p.add_argument("--order", type=int, default=None,
                   help="override each fixture's check order; "
                        f"orders past {_LEMMAS_LIMIT} are refused")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("table", help="CSV table of a coefficient sequence")
    p.add_argument("--seq", choices=(*_SEQUENCES, "modd"), required=True)
    p.add_argument("-a", type=int, choices=macmahon.EXPLICIT_AS)
    p.add_argument("-t", type=int)
    p.add_argument("--n", type=_parse_range, required=True, help="range LO..HI")
    p.add_argument("--mod", type=int, default=0)
    p.set_defaults(func=cmd_table)
    return ap


def _size(args) -> tuple[str, int]:
    """(the option, its value) that sizes what the command builds."""
    if args.command == "modd":
        return "-n", args.n
    if args.command == "table":
        return "--n", args.n[-1] if len(args.n) else 0
    return "--order", getattr(args, "order", None) or 0


def _refuse_sizes(args) -> None:
    """Raise ValueError for an order, size, route limit or modulus that no
    command takes, before anything is built."""
    if getattr(args, "order", None) is not None and args.order < 1:
        raise ValueError("--order must be >= 1")
    flag, size = _size(args)
    if size > congruences.MAX_ORDER:
        raise ValueError(f"{flag} {size} is past MAX_ORDER = {congruences.MAX_ORDER}")
    if args.command == "modd":
        args.method = args.method or ("explicit" if args.a in macmahon.EXPLICIT_AS else "direct")
        for route in _ROUTE_LIMITS:
            why = args.method in (route, "all") and _past_limit(route, args.t, args.n)
            if why:
                if not _past_limit("powersum", args.t, args.n):
                    why += "; --method powersum answers it"
                raise ValueError(why)
    if getattr(args, "mod", 0) < 0:
        raise ValueError("--mod must be >= 0")


def main(argv=None) -> int:
    # exact coefficients may pass the 4300-digit default of str(int)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        _refuse_sizes(args)
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`qlab table ... | head`): point stdout
        # at devnull so the flush at exit is quiet too, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as exc:
        # refused input, a library refusal or an unreadable file; routes
        # that disagree (ArithmeticError) and any other fault stay tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
