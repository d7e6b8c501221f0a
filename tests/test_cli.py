"""CLI surface: flags, output shapes, exit codes, method agreement."""

import json
import re
import shlex
from pathlib import Path

from qlab.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_expand_errors(capsys):
    code, _, err = run(capsys, "expand", "q^", "--order", "3")
    assert code == 2 and "offset" in err
    code, _, err = run(capsys, "expand", "1/q", "--order", "3")
    assert code == 2 and "valuation" in err
    code, _, err = run(capsys, "expand", "f1", "--order", "0")
    assert code == 2
    code, out, err = run(capsys, "expand", "f1", "--order", "5", "--mod", "-3")
    assert code == 2 and out == "" and "--mod" in err


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
    code, _, err = run(capsys, "verify", "--family", "nonexistent")
    assert code == 2 and "nonexistent" in err


def test_verify_budget_zero_is_honoured(capsys):
    code, out, err = run(capsys, "verify", "--family", "c1-1", "--budget", "0")
    assert code == 2 and out == ""
    assert "BudgetTooSmall" in err


def test_verify_negative_budget_is_rejected(capsys):
    code, out, err = run(capsys, "verify", "--family", "v1-1", "--budget", "-5")
    assert code == 2 and out == ""
    assert "ValueError" in err and "-5" in err


def test_modd_rejects_negative_arguments(capsys):
    # the oracle used to print 0 for a negative n and hang on a negative t
    for method in ("direct", "explicit", "oracle", "powersum", "all"):
        for t, n in (("0", "-4"), ("-1", "5")):
            code, out, err = run(capsys, "modd", "-a", "1", "-t", t, "-n", n,
                                 "--method", method)
            assert code == 2 and out == "" and ">= 0" in err


def test_verify_j_needs_a_t_rule(capsys):
    code, out, err = run(capsys, "verify", "--family", "ovc8", "--j", "7")
    assert code == 2 and out == ""
    assert "ovc8" in err and "no t rule" in err
    # without --family, --j still applies, and the prefactor families take none
    code, out, err = run(capsys, "verify", "--j", "1")
    assert code == 2 and out == "" and "no t rule" in err


def test_lemmas(capsys):
    code, out, _ = run(capsys, "lemmas", "--order", "400")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "16/16 pass"
    assert sum(1 for line in lines if line.startswith("PASS")) == 16
    code, _, err = run(capsys, "lemmas", "no/such/file.qx")
    assert code == 2
    # an order below 1 compares no coefficients, so it cannot pass
    for order in ("0", "-5"):
        code, out, err = run(capsys, "lemmas", "--order", order)
        assert code == 2 and out == "" and "--order" in err


def test_lemmas_bad_expression(capsys, tmp_path):
    # a fixture that does not parse is bad input, not a crash, and the
    # message names the fixture and the side
    path = tmp_path / "bad.qx"
    for lhs, rhs, where in (("f1 +", "f1", "lhs"), ("zeta(q)", "f1", "lhs"),
                            ("f1", "f2 *", "rhs")):
        path.write_text(f"name: bad\nlhs = {lhs}\nrhs = {rhs}\ncheck_to = 60\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "lemmas", str(path))
        assert code == 2 and out == "" and err.startswith(f"error: bad: {where}: ")
    path.write_text("name: bad\nlhs = f1 +\nrhs = f1\ncheck_to = 60\n", encoding="utf-8")
    _, _, err = run(capsys, "lemmas", str(path))
    assert err.strip() == "error: bad: lhs: expected an atom (at offset 4)"


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


def test_verify_failure_exit_code(capsys, monkeypatch):
    import dataclasses
    from qlab import congruences as cong

    broken = dataclasses.replace(cong.lookup("vm2A-3"), modulus=16)
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
