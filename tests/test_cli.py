"""CLI surface: flags, output shapes, exit codes, method agreement."""

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qlab import congruences, macmahon
from qlab.cli import _LEMMAS_LIMIT, _ROUTE_LIMITS, _size, build_parser, main
from qlab.macmahon import modd_explicit_batch

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "f2/f1^2", "--order", "6")
    assert code == 0 and out.strip() == "1 2 4 8 14 24"
    code, out, _ = run(capsys, "expand", "q", "--order", "3")
    assert code == 0 and out.strip() == "0 1 0"
    code, out, _ = run(capsys, "expand", "f1*f6/(f2^2*f3)", "--order", "9")
    assert code == 0 and out.strip() == "1 -1 1 -1 2 -3 4 -5 7"


def test_expand_mod_json_csv(capsys):
    code, out, _ = run(capsys, "expand", "f2/f1^2", "--order", "5", "--mod", "4")
    assert code == 0 and out.strip() == "1 2 0 0 2"
    code, out, _ = run(capsys, "expand", "prefA", "--order", "4", "--format", "json")
    blob = json.loads(out)
    assert blob["coeffs"] == ["1", "-1", "1", "-1"]
    code, out, _ = run(capsys, "expand", "q^2", "--order", "3", "--format", "csv")
    assert out.splitlines()[0] == "n,coeff" and out.splitlines()[3] == "2,1"


@pytest.mark.parametrize("name, expr", [("prefA", "f1*f6/(f2^2*f3)"), ("overp", "f2/f1^2")])
def test_expand_named_sequences_match_the_dsl(capsys, name, expr):
    # past one block of 512, so --mod runs the blocked residue division
    order = "1100"
    code, exact, _ = run(capsys, "expand", expr, "--order", order)
    assert code == 0
    for mod in (None, 2, 192):
        flags = ["--mod", str(mod)] if mod else []
        code, out, _ = run(capsys, "expand", name, "--order", order, *flags)
        want = [int(c) % mod if mod else int(c) for c in exact.split()]
        assert code == 0 and [int(c) for c in out.split()] == want, mod


def test_expand_errors(capsys):
    code, _, err = run(capsys, "expand", "q^", "--order", "3")
    assert code == 2 and "offset" in err
    code, _, err = run(capsys, "expand", "1/q", "--order", "3")
    assert code == 2 and "valuation" in err
    code, _, err = run(capsys, "expand", "f1", "--order", "0")
    assert code == 2
    code, out, err = run(capsys, "expand", "f1", "--order", "5", "--mod", "-3")
    assert code == 2 and out == "" and "--mod" in err
    for expr in ("f1\u00b2", "q^\u00b2", "f\u0661"):
        code, out, err = run(capsys, "expand", expr, "--order", "4")
        assert code == 2 and out == "" and "offset" in err and "Traceback" not in err


@pytest.mark.parametrize("expr, want", [
    ("q^999999999999", "0 0 0 0 0"),
    ("phi(q^999999999999)", "1 0 0 0 0"),
])
def test_expand_huge_q_power_is_cheap(capsys, expr, want):
    # each used to allocate the whole shift or substituted base first and
    # end in a MemoryError traceback
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", expr, "--order", "5")
    assert time.perf_counter() - start < 1
    assert code == 0 and out.strip() == want and err == ""


@pytest.mark.parametrize("expr", ["2^131072*f1*f2", "2^131072/(1-q)"])
def test_expand_refuses_a_wide_constant_in_a_long_product(capsys, expr):
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", expr, "--order", "10000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "MAX_PACKED_BITS" in err and "Traceback" not in err


@pytest.mark.parametrize("expr, order", [("f1^-256", "3000"), ("f1^20000", "1000")])
def test_expand_refuses_eta_powers_past_max_eta_bits(capsys, expr, order):
    # they ran 5.4-6.8 s and 11-14 s and exited 0
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", expr, "--order", order)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "MAX_ETA_BITS" in err


def test_expand_prints_coefficients_past_4300_digits(capsys):
    # str(int) refuses more than 4300 digits by default since CPython 3.10.7
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(4300)        # that default, whatever ran before
    code, out, err = run(capsys, "expand", "2^20000", "--order", "3")
    first, *rest = out.split()
    assert code == 0 and err == "" and rest == ["0", "0"]
    assert len(first) == 6021 and int(first) == 2 ** 20000
    code, out, err = run(capsys, "expand", "2^20000", "--order", "3", "--format", "json")
    assert code == 0 and err == "" and len(json.loads(out)["coeffs"][0]) == 6021


def test_modd(capsys):
    code, out, _ = run(capsys, "modd", "-a", "-2", "-t", "1", "-n", "9")
    assert code == 0 and out.strip() == "13"
    code, out, _ = run(capsys, "modd", "-a", "0", "-t", "1", "-n", "13")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "modd", "-a", "1", "-t", "2", "-n", "4", "--method", "all")
    assert code == 0 and out.strip() == "1 1 1 1"
    # a outside the closed forms falls back to the dynamic program
    code, out, _ = run(capsys, "modd", "-a", "-1", "-t", "1", "-n", "5")
    assert code == 0
    code, _, err = run(capsys, "modd", "-a", "-1", "-t", "1", "-n", "5",
                       "--method", "explicit")
    assert code == 2 and "a=-1" in err


def test_modd_all_without_closed_form(capsys, monkeypatch):
    # a = 2 and a = -1 have no closed form: its column reads "-" and the
    # three other routes are compared
    code, out, err = run(capsys, "modd", "-a", "2", "-t", "2", "-n", "9", "--method", "all")
    assert code == 0 and out.strip() == "-18 - -18 -18" and err == ""
    code, out, _ = run(capsys, "modd", "-a", "-1", "-t", "3", "-n", "25", "--method", "all")
    direct, explicit, *rest = out.split()
    assert code == 0 and explicit == "-" and rest == [direct, direct]
    # a disagreement among the routes that exist still exits 1
    monkeypatch.setattr("qlab.macmahon.modd_powersum", lambda a, t, n: 7)
    code, out, err = run(capsys, "modd", "-a", "2", "-t", "2", "-n", "9", "--method", "all")
    assert code == 1 and out.strip() == "-18 - -18 7" and "disagree" in err


def test_modd_method_agreement(capsys):
    for a in (-2, 0, 1):
        for t in (1, 2, 3):
            for n in range(t * t, 61, 7):
                code, out, _ = run(capsys, "modd", "-a", str(a), "-t", str(t),
                                   "-n", str(n), "--method", "all")
                assert code == 0
                vals = out.split()
                assert len(set(vals)) == 1, (a, t, n, vals)


def test_modd_powersum(capsys):
    # the fourth route covers every a, closed form or not
    for a, t, n in ((-2, 1, 9), (0, 1, 13), (-1, 2, 17), (2, 3, 40)):
        code, out, _ = run(capsys, "modd", "-a", str(a), "-t", str(t), "-n", str(n),
                           "--method", "powersum")
        _, want, _ = run(capsys, "modd", "-a", str(a), "-t", str(t), "-n", str(n),
                         "--method", "direct")
        assert code == 0 and out == want
    # t^2 > n: the row is zero at this truncation
    code, out, _ = run(capsys, "modd", "-a", "1", "-t", "5", "-n", "3", "--method", "all")
    assert code == 0 and out.strip() == "0 0 0 0"


def test_verify_single_family(capsys):
    code, out, err = run(capsys, "verify", "--family", "vm2A-3", "--profile", "quick")
    assert code == 0
    blob = json.loads(out.strip())
    assert blob["id"] == "vm2A-3" and blob["status"] == "pass"
    assert "1/1 families pass" in err


# (nonzero, observed_modulus) per default J at the quick profile; None is
# not pinned.  v1-0 and vm2-1b at J=0 check only values 0 mod 192, and the
# observed moduli of v0odd-3 (claim 16), v1-2c (8), a24n19-mod8 (8) and
# ovc3-27n18-mod3 (3) are sharper than the claims.
PER_J = {
    "v1-0": [(0, 192), (0, 192)],
    "vm2-1b": [(0, None), (None, 4)],
    "v0odd-3": [(None, 64), (None, 64)],
    "v1-2c": [(None, 16), (None, 16)],
    "a24n19-mod8": [(None, 24)],
    "ovc3-27n18-mod3": [(None, 12)],
    "m0-even-vanish": [(0, 0), (0, 0)],
}


def test_verify_reports_per_j_rows(capsys):
    argv = ["verify", "--profile", "quick"]
    for fid in PER_J:
        argv += ["--family", fid]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    blobs = [json.loads(line) for line in out.splitlines()]
    assert [b["id"] for b in blobs] == list(PER_J)
    for blob in blobs:
        rows = blob["ranges"]["per_j"]
        assert [row["J"] for row in rows] == blob["ranges"].get("J", [None])
        for row, (nonzero, observed) in zip(rows, PER_J[blob["id"]], strict=True):
            assert set(row) == {"J", "nonzero", "observed_modulus"}
            assert nonzero is None or row["nonzero"] == nonzero, blob["id"]
            assert observed is None or row["observed_modulus"] == observed, blob["id"]
            assert 0 <= row["nonzero"] <= blob["ranges"]["checked"]


def test_verify_custom_budget_and_j(capsys):
    code, out, _ = run(capsys, "verify", "--family", "v1-1", "--budget", "3000",
                       "--j", "0", "2")
    assert code == 0
    blob = json.loads(out.strip())
    assert blob["ranges"]["J"] == [0, 2]


def test_verify_j_without_budget_uses_family_budget(capsys):
    code, out, _ = run(capsys, "verify", "--family", "c0-1a", "--j", "1")
    assert code == 0
    assert json.loads(out.strip())["ranges"]["max_n"] == 1500
    code, out, _ = run(capsys, "verify", "--family", "c0-1a", "--j", "1",
                       "--budget", "2500")
    assert code == 0
    assert json.loads(out.strip())["ranges"]["max_n"] == 2500


def test_verify_unknown_family(capsys):
    code, out, err = run(capsys, "verify", "--family", "nonexistent")
    assert code == 2 and out == "" and err == "error: unknown family 'nonexistent'\n"


def test_verify_budget_zero_is_honoured(capsys):
    code, out, err = run(capsys, "verify", "--family", "c1-1", "--budget", "0")
    assert code == 2 and out == ""
    assert err == "error: c1-1: no arguments up to 0\n"


def test_verify_repeated_j_is_rejected(capsys):
    code, out, err = run(capsys, "verify", "--family", "m1-t1-6n5", "--j", "0", "0",
                         "--budget", "100")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "repeated J" in err


def test_verify_repeated_family_is_rejected(capsys):
    # a repeated --family used to sweep the family twice: "2/2 families pass"
    code, out, err = run(capsys, "verify", "--family", "vm2A-3", "--family", "vm2A-3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "repeated famil" in err


def test_verify_negative_budget_is_rejected(capsys):
    code, out, err = run(capsys, "verify", "--family", "v1-1", "--budget", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget -5" in err


def test_verify_rejects_a_sweep_past_max_order(capsys):
    # J = 100000 puts t^2 + 2000 near 4e10: the plan is refused before any
    # expansion is allocated, instead of ending in a MemoryError
    assert congruences.MAX_ORDER >= congruences.FULL_BUDGET
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--family", "v1-1", "--j", "100000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "40000402001" in err and str(congruences.MAX_ORDER) in err
    code, out, err = run(capsys, "verify", "--family", "ovc8",
                         "--budget", str(congruences.MAX_ORDER + 1))
    assert code == 2 and out == "" and str(congruences.MAX_ORDER + 1) in err
    # the bound itself is allowed; only the plan is made here, nothing built
    fam = congruences.lookup("ovc8")
    assert congruences._sweep_plan(fam, None, congruences.MAX_ORDER)[1] == congruences.MAX_ORDER


@pytest.mark.parametrize("argv", [
    ["table", "--seq", "prefA", "--n", "0..100000000"],
    ["expand", "f1", "--order", "100000000"],
    ["lemmas", "--order", "100000000"],
    ["modd", "-a", "1", "-t", "2", "-n", "100000000"],
    ["modd", "-a", "1", "-t", "2", "-n", "100000000", "--method", "direct"],
])
def test_sizes_past_max_order_are_refused(capsys, argv):
    # each of these used to end in a MemoryError traceback
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "100000000" in err and str(congruences.MAX_ORDER) in err


def test_modd_huge_t_is_zero_at_once(capsys):
    # t^2 > n: no t distinct odd parts sum to n; the DP and power-sum rows
    # up to t used to be built first, ending in a MemoryError traceback
    start = time.perf_counter()
    code, out, err = run(capsys, "modd", "-a", "1", "-t", "1000000000", "-n", "5",
                         "--method", "all")
    assert time.perf_counter() - start < 1
    assert code == 0 and out.strip() == "0 0 0 0" and err == ""


def test_verify_huge_j_allocates_nothing(capped_python):
    # c1-1 reads coeff_column(1, 2J-1, ...); at J = 10^9 the column used to
    # build t leading zeros first, ending in a MemoryError traceback
    start = time.perf_counter()
    proc = capped_python("-m", "qlab.cli", "verify", "--family", "c1-1",
                         "--j", "1000000000")
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0 and proc.stderr == "1/1 families pass\n", proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"


@pytest.mark.parametrize("argv, route", [
    (["modd", "-a", "2", "-t", "3", "-n", "20000"], "direct"),
    (["modd", "-a", "2", "-t", "7", "-n", "150", "--method", "oracle"], "oracle"),
    (["modd", "-a", "1", "-t", "2", "-n", "150", "--method", "all"], "oracle"),
    (["modd", "-a", "1", "-t", "2", "-n", "6000", "--method", "all"], "direct"),
])
def test_slow_routes_past_their_limit_are_refused(capsys, argv, route):
    # each of these ran for seconds to minutes below MAX_ORDER
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    t = int(argv[argv.index("-t") + 1])
    most = next(most for rows, most in _ROUTE_LIMITS[route].items() if t <= rows)
    assert f"the {route} route's limit of {most}" in err and "powersum" in err


ROUTE_REFUSALS = {
    "-t 20 -n 5000 --method direct":
        "-n 5000 is past the direct route's limit of 1000 at -t <= 20",
    "-t 21 -n 1000 --method direct":
        "-t 21 is past the direct route's limit of 20 rows (at -n <= 1000)",
    "-t 4 -n 3000":
        "-n 3000 is past the direct route's limit of 2000 at -t <= 10; "
        "--method powersum answers it",
    "-t 3 -n 300000 --method powersum":
        "-n 300000 is past the powersum route's limit of 20000 at -t <= 3",
    "-t 10 -n 10000 --method powersum":
        "-n 10000 is past the powersum route's limit of 2000 at -t <= 10",
    "-t 15 -n 5000 --method powersum":
        "-n 5000 is past the powersum route's limit of 1200 at -t <= 15",
    "-t 30 -n 2000 --method powersum":
        "-t 30 is past the powersum route's limit of 20 rows (at -n <= 700)",
    "-t 10 -n 10000 --method all":
        "-n 10000 is past the direct route's limit of 2000 at -t <= 10",
}


@pytest.mark.parametrize("argv", ROUTE_REFUSALS)
def test_route_limits_bound_rows_and_n(capsys, argv):
    # the direct route took 29-34 s at t = 20, n = 5000 and powersum had no
    # limit; "--method powersum" is suggested only where powersum takes it
    start = time.perf_counter()
    code, out, err = run(capsys, "modd", "-a", "2", *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {ROUTE_REFUSALS[argv]}\n")


def test_route_limits_accept_each_step(capsys, monkeypatch):
    # every (rows, n) corner gets through the limits to its route (stubbed
    # here: the comment above _ROUTE_LIMITS times each corner), and one more
    # n or t does not
    ran = []

    def modd(route, t, n):
        return run(capsys, "modd", "-a", "2", "-t", str(t), "-n", str(n), "--method", route)[0]

    for route, name in (("direct", "modd_direct"), ("oracle", "oracle_modd"),
                        ("powersum", "modd_powersum")):
        monkeypatch.setattr(macmahon, name, lambda a, t, n, route=route: ran.append((route, t, n)))
        for rows, most in _ROUTE_LIMITS[route].items():
            assert (modd(route, rows, most), modd(route, rows, most + 1)) == (0, 2), route
        # past the last step only a t with t^2 > n still runs: 11^2 > 100
        assert modd(route, rows + 1, most) == (0 if route == "oracle" else 2)
    corners = [(route, *step) for route, steps in _ROUTE_LIMITS.items() for step in steps.items()]
    assert sorted(ran) == sorted(corners + [("oracle", 11, 100)])


def test_powersum_runs_past_the_slow_routes_limits(capsys):
    code, out, _ = run(capsys, "modd", "-a", "2", "-t", "3", "-n", "20000",
                       "--method", "powersum")
    assert code == 0 and int(out) != 0
    # each limit itself is accepted (t^2 > n keeps the DP from running)
    code, out, _ = run(capsys, "modd", "-a", "2", "-t", "100", "-n",
                       str(max(_ROUTE_LIMITS["direct"].values())))
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "modd", "-a", "2", "-t", "2", "-n",
                       str(max(_ROUTE_LIMITS["oracle"].values())), "--method", "all")
    assert code == 0 and len(set(out.split()) - {"-"}) == 1
    # a t with t^2 > n is 0 at once on every route, however large n is
    for method in ("direct", "powersum", "all"):
        code, out, _ = run(capsys, "modd", "-a", "2", "-t", "1000", "-n", "5000",
                           "--method", method)
        assert code == 0 and set(out.split()) <= {"0", "-"}, method


def test_sizes_up_to_max_order_are_accepted():
    # the limit itself passes the size check (the command is not run here)
    for argv in (["table", "--seq", "prefA", "--n", f"0..{congruences.MAX_ORDER}"],
                 ["modd", "-a", "1", "-t", "2", "-n", str(congruences.MAX_ORDER)],
                 ["expand", "f1", "--order", str(congruences.MAX_ORDER)]):
        assert _size(build_parser().parse_args(argv))[1] == congruences.MAX_ORDER


def test_modd_rejects_negative_arguments(capsys):
    # the oracle used to print 0 for a negative n and hang on a negative t
    for method in ("direct", "explicit", "oracle", "powersum", "all"):
        for t, n in (("0", "-4"), ("-1", "5")):
            code, out, err = run(capsys, "modd", "-a", "1", "-t", t, "-n", n,
                                 "--method", method)
            assert code == 2 and out == "" and ">= 0" in err
    # a negative t used to fail only once an argument reached a c_n column:
    # a=0, t=-2 printed 0 at n=5 and four zero rows from `table`
    for a in ("-2", "0", "1"):
        for n in ("0", "5", "8"):
            for flags in (["--method", "explicit"], []):
                code, out, err = run(capsys, "modd", "-a", a, "-t", "-2", "-n", n, *flags)
                assert code == 2 and out == "" and ">= 0" in err, (a, n, flags)
        code, out, err = run(capsys, "table", "--seq", "modd", "-a", a, "-t", "-2",
                             "--n", "0..3")
        assert code == 2 and out == "" and ">= 0" in err, a


def test_verify_j_needs_a_t_rule(capsys):
    code, out, err = run(capsys, "verify", "--family", "ovc8", "--j", "7")
    assert code == 2 and out == ""
    assert "ovc8" in err and "no t rule" in err
    # without --family, --j still applies, and the prefactor families take none
    code, out, err = run(capsys, "verify", "--j", "1")
    assert code == 2 and out == "" and "no t rule" in err


def test_verify_j_without_family_counts_the_families_without_a_t_rule(capsys):
    # the message names the rule and the way out, not one family the user
    # never chose
    bare = [fam.id for fam in congruences.registry() if fam.t_rule is None]
    code, out, err = run(capsys, "verify", "--j", "2")
    assert code == 2 and out == ""
    assert "--j needs families with a t rule" in err
    assert f"{len(bare)} of the {len(congruences.registry())} selected families" in err
    assert "--family" in err
    assert "the family has no t rule" not in err
    # one bare family among chosen ones: counted among those chosen
    code, out, err = run(capsys, "verify", "--family", "v1-1", "--family", "ovc8",
                         "--j", "1")
    assert code == 2 and out == "" and "1 of the 2 selected families" in err
    assert "ovc8" in err


def test_lemmas(capsys):
    code, out, _ = run(capsys, "lemmas", "--order", "400")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "16/16 pass"
    assert sum(1 for line in lines if line.startswith("PASS")) == 16
    for path in ("no/such/file.qx", "."):       # "." is a directory
        code, out, err = run(capsys, "lemmas", path)
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    # an order below 1 compares no coefficients, so it cannot pass
    for order in ("0", "-5"):
        code, out, err = run(capsys, "lemmas", "--order", order)
        assert code == 2 and out == "" and "--order" in err


def test_lemmas_bad_expression(capsys, tmp_path):
    # a fixture that does not parse is bad input, not a crash, and the
    # message names the fixture and the side
    path = tmp_path / "bad.qx"
    for lhs, rhs, where in (("f1 +", "f1", "lhs"), ("zeta(q)", "f1", "lhs"),
                            ("f1", "f2 *", "rhs"), ("f1\u00b2", "f1^2", "lhs"),
                            ("f1", "f\u0661", "rhs")):
        path.write_text(f"name: bad\nlhs = {lhs}\nrhs = {rhs}\ncheck_to = 60\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "lemmas", str(path))
        assert code == 2 and out == "" and err.startswith(f"error: bad: {where}: ")
    path.write_text("name: bad\nlhs = f1 +\nrhs = f1\ncheck_to = 60\n", encoding="utf-8")
    _, _, err = run(capsys, "lemmas", str(path))
    assert err.strip() == "error: bad: lhs: expected an atom (at offset 4)"
    # a file with no fixture checks nothing, so it cannot pass
    for text in ("", "# only a comment\n\n# and another\n"):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "lemmas", str(path))
        assert code == 2 and out == "" and err.strip() == f"error: {path}: holds no fixtures"


def test_lemmas_malformed_fixture_file_is_refused(capsys, tmp_path):
    # two fixtures without a blank line between them used to merge: the
    # second name renamed the first block and the false identity f1 = f2
    # was never checked ("PASS b ... 1/1 pass", exit 0)
    path = tmp_path / "bad.qx"
    for text, message in (
        ("name: a\nlhs = f1\nrhs = f2\ncheck_to = 60\n"
         "name: b\nlhs = f1\nrhs = f1\ncheck_to = 60\n", "a: name given twice"),
        ("name: a\nlhs = f1\nlhs = f2\nrhs = f1\ncheck_to = 60\n", "a: lhs given twice"),
        ("name:   # no name\nlhs = f1\nrhs = f1\ncheck_to = 60\n", "empty fixture name"),
        ("name: a\nlhs = f1\nrhs = f1\ncheck_to = 6x0\n", "a: check_to must be"),
        ("name: a\nlhs = f1\nrhs = f1\ncheck_to = 60\n\n"
         "name: a\nlhs = f2\nrhs = f2\ncheck_to = 60\n", "duplicate fixture names: 'a'"),
    ):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "lemmas", str(path))
        assert code == 2 and out == "", text
        assert err.startswith(f"error: {message}"), err


def test_lemmas_check_to_past_max_order_is_refused(capsys, tmp_path):
    # a fixture's own check_to is a size too: past MAX_ORDER it used to end
    # in a MemoryError traceback; it is refused at the lemmas limit, and an
    # --order within that limit still runs it
    path = tmp_path / "huge.qx"
    path.write_text("name: huge\nlhs = f1\nrhs = f1\ncheck_to = 100000000\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "lemmas", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.strip() == (f"error: huge: check_to 100000000 is past the lemmas limit "
                           f"of {_LEMMAS_LIMIT}")
    code, out, _ = run(capsys, "lemmas", str(path), "--order", "60")
    assert code == 0 and out.strip().splitlines()[-1] == "1/1 pass"


def test_lemmas_orders_past_the_limit_are_refused(capsys, tmp_path):
    # the corpus took 3.9 s at order 8000, and --order took up to MAX_ORDER;
    # past the limit --order and check_to are refused before any expansion,
    # and the limit itself runs
    over = str(_LEMMAS_LIMIT + 1)
    path = tmp_path / "edge.qx"
    for text, argv, what in (
        ("check_to = 60", ["--order", over], f"--order {over}"),
        (f"check_to = {over}", [], f"edge: check_to {over}"),
    ):
        path.write_text(f"name: edge\nlhs = f1\nrhs = f1\n{text}\n", encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "lemmas", str(path), *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "", argv
        assert err.strip() == f"error: {what} is past the lemmas limit of {_LEMMAS_LIMIT}"
    for text, argv in ((f"check_to = {_LEMMAS_LIMIT}", []),
                       ("check_to = 60", ["--order", str(_LEMMAS_LIMIT)])):
        path.write_text(f"name: edge\nlhs = f1\nrhs = f1\n{text}\n", encoding="utf-8")
        code, out, _ = run(capsys, "lemmas", str(path), *argv)
        assert code == 0 and out.strip().splitlines()[-1] == "1/1 pass", argv
        assert f"(order {_LEMMAS_LIMIT}," in out


def test_deep_nesting_is_refused(capsys, tmp_path):
    # 260 nested groups used to end in a RecursionError traceback
    deep = "(" * 260 + "q" + ")" * 260
    message = "groups nest more than 100 deep (at offset 100)"
    code, out, err = run(capsys, "expand", deep, "--order", "3")
    assert code == 2 and out == "" and err.strip() == f"error: {message}"
    path = tmp_path / "deep.qx"
    path.write_text(f"name: deep\nlhs = {deep}\nrhs = q\ncheck_to = 60\n", encoding="utf-8")
    code, out, err = run(capsys, "lemmas", str(path))
    assert code == 2 and out == "" and err.strip() == f"error: deep: lhs: {message}"


def test_faults_that_are_not_refusals_stay_tracebacks(monkeypatch):
    # the residue and exact routes disagreeing is a fault, not bad input, and
    # so is any other exception that is not a ValueError or an OSError
    for fault in (ArithmeticError("the residue and exact routes disagree"),
                  RuntimeError("a fault")):
        def raise_fault(*args, **kwargs):
            raise fault
        monkeypatch.setattr(congruences, "verify_all", raise_fault)
        with pytest.raises(type(fault)):
            main(["verify", "--family", "v1-1"])


def test_closed_pipe_exits_1_without_traceback():
    # `qlab table ... | head -1` used to end in a BrokenPipeError traceback
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from qlab.cli import main; sys.exit(main())",
         "table", "--seq", "prefA", "--n", "0..200000", "--mod", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().rstrip() == b"n,value"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err and "Error" not in err, err


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--seq", "prefA", "--n", "0..23", "--mod", "2")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert rows["13"] == "0"
    assert rows["0"] == "1"
    code, out, _ = run(capsys, "table", "--seq", "overp", "--n", "0..5")
    assert out.strip().splitlines()[1:] == ["0,1", "1,2", "2,4", "3,8", "4,14", "5,24"]
    code, out, _ = run(capsys, "table", "--seq", "modd", "-a", "-2", "-t", "1",
                       "--n", "1..9")
    assert out.strip().splitlines()[-1] == "9,13"
    code, _, err = run(capsys, "table", "--seq", "modd", "--n", "1..4")
    assert code == 2


def test_table_mod_and_bad_ranges(capsys):
    code, out, _ = run(capsys, "table", "--seq", "overp", "--n", "0..5", "--mod", "4")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,1", "1,2", "2,0", "3,0", "4,2", "5,0"]
    # a negative start used to wrap around to the end of the expansion
    for seq in ("prefA", "overp"):
        code, out, err = run(capsys, "table", "--seq", seq, "--n=-2..3")
        assert code == 2 and out == "" and "n >= 0" in err
        code, out, err = run(capsys, "table", "--seq", seq, "--n", "0..3", "--mod", "-3")
        assert code == 2 and out == "" and "--mod" in err


def test_table_rejects_a_and_t_outside_modd(capsys):
    # -a and -t pick an m_odd column; a prefactor table must not drop them silently
    for seq in ("prefA", "overp"):
        for flags in (["-a", "1", "-t", "3"], ["-a", "1"], ["-t", "3"]):
            code, out, err = run(capsys, "table", "--seq", seq, "--n", "0..5", *flags)
            assert code == 2 and out == ""
            assert err.strip() == "error: -a and -t apply only to --seq modd"


def test_table_modd_mod_matches_exact_values_reduced(capsys):
    # --mod reads residues, which must print the exact values reduced
    n = range(3001)
    for a in (-2, 0, 1):
        exact = modd_explicit_batch(a, 3, list(n))
        for mod in (2, 8, 192):
            code, out, _ = run(capsys, "table", "--seq", "modd", "-a", str(a), "-t", "3",
                               "--n", "0..3000", "--mod", str(mod))
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["n", "value"])
            writer.writerows(zip(n, (v % mod for v in exact)))
            assert code == 0 and out == buf.getvalue(), (a, mod)


def test_verify_failure_exit_code(capsys, monkeypatch):
    from qlab import congruences as cong

    broken = cong.lookup("vm2A-3").replace(modulus=16)
    monkeypatch.setitem(cong._BY_ID, "vm2A-3-broken", broken)
    code, out, err = run(capsys, "verify", "--family", "vm2A-3-broken",
                         "--budget", "2000")
    assert code == 1
    blob = json.loads(out.strip())
    assert blob["status"] == "fail" and blob["counterexample"] is not None


def test_readme_commands_parse():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    commands = [shlex.split(line, comments=True)
                for block in blocks for line in block.splitlines()
                if line.startswith("qlab ")]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])     # argparse exits on an unknown flag
