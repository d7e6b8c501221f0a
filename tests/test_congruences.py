"""Registry shape, sweep engine behavior, and failure reporting."""

import json
import random
import time
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qlab import congruences
from qlab.macmahon import modd_explicit, modd_explicit_batch, powersum_utilde
from qlab.series import Series
from qlab.special import prefactor_a
from qlab.congruences import (
    COEFF,
    CONG_ZERO,
    EQUALS_MODD_M2,
    EXACT_ZERO,
    OVERPARTITION,
    PARITY_A2N,
    PARITY_M2_T1,
    VALUATION_TABLE,
    SWEEP_MOD,
    BudgetTooSmall,
    CongruenceFamily,
    MODD,
    SweepCache,
    UnknownFamily,
    VerifyReport,
    _args_of,
    _bound,
    _sweep,
    _sweep_modulus,
    _sweep_plan,
    _values,
    lookup,
    registry,
    verify_all,
    verify_family,
)

# Every congruence-type statement in the source material maps to at least
# one registry id, and no id is claimed by two statements.  Dissection
# identities live in the fixture corpus instead.
MANIFEST = {
    "prefactor parity characterization of a(2n)": ("a2n-parity",),
    "a(6n+4) mod 2": ("a6n4-mod2",),
    "a(6n+6) mod 2": ("a6n6-mod2",),
    "a(8n+4) mod 2": ("a8n4-mod2",),
    "a(8n+6) mod 2": ("a8n6-mod2",),
    "a(2(pn+r)) mod 2, r a nonresidue": ("a2pn-mod2-p5", "a2pn-mod2-p7", "a2pn-mod2-p11"),
    "a(24n+13) mod 2": ("a24n13-mod2",),
    "a(12n+6) mod 4": ("a12n6-mod4",),
    "a(16n+6) mod 4": ("a16n6-mod4",),
    "a(24n+16) mod 4": ("a24n16-mod4",),
    "a(24n+22) mod 4": ("a24n22-mod4",),
    "a(12n+9) mod 8": ("a12n9-mod8",),
    "a(24n+19) mod 8": ("a24n19-mod8",),
    "a(32n+28) mod 8": ("a32n28-mod8",),
    "a(32n+20) mod 4": ("a32n20-mod4",),
    "prefactor valuation table mod 24": ("pre1-24",),
    "prefactor valuation table mod 32": ("pre1-32",),
    "overpartition valuation table mod 8": ("ovc8",),
    "overpartition valuation table mod 9": ("ovc9",),
    "overpartition 16n+10 mod 8": ("ovc-16n10-mod8",),
    "overpartition 27n+18 mod 3": ("ovc3-27n18-mod3",),
    "m_odd(-2,1) parity": ("m2-parity-t1",),
    "m_odd(-2,1;6N+5) mod 6": ("m2-6n5-mod6",),
    "m_odd(-2,t;8N+{3,6}) mod 4": ("vm2A-1",),
    "m_odd(-2,t;9N+{3,6}) mod 4": ("vm2A-2",),
    "m_odd(-2,t;8N+7) mod 8": ("vm2A-3",),
    "m_odd(-2,2J+1;8N+{0,4}) mod 4": ("vm2-1",),
    "m_odd(-2,2J;8N+2) mod 4": ("vm2-1b",),
    "m_odd(-2,2J+1;8N+6) mod 8": ("vm2-2",),
    "m_odd(-2,2J;8N+3) mod 8": ("vm2-2b",),
    "m_odd(-2,4J+3;8N+{0,4}) mod 8": ("vm2-2c",),
    "m_odd(-2,4J+2;16N+14) mod 8": ("vm2-2d",),
    "m_odd(-2,4J;8N+7) mod 16": ("vm2-3",),
    "m_odd(-2,8J+7;8N) mod 16": ("vm2-3a",),
    "m_odd(-2,16J+15;8N) mod 32": ("vm2-4",),
    "m_odd(-2,32J+31;8N) mod 64": ("vm2-5",),
    "m_odd(-2,27J+13;27N+25) mod 3": ("vm2-10",),
    "m_odd(-2,27J+26;27N+19) mod 3": ("vm2-11",),
    "a=0 support patterns and reinterpretation": (
        "m0-even-vanish", "m0-even-reinterp", "m0-odd-vanish"),
    "m_odd(0,2J+1;36N+{21,33}) mod 4": ("m0-36n-mod4",),
    "m_odd(0,8J+7;16N+{9,13}) mod 4": ("v0odd-1",),
    "m_odd(0,16J+15;16N+13) mod 8": ("v0odd-2",),
    "m_odd(0,64J+63;32N+29) mod 16": ("v0odd-3",),
    "m_odd(0,128J+127;32N+29) mod 32": ("v0odd-3b",),
    "m_odd(0,54J+25;108N+49) mod 3": ("v0odd-4",),
    "m_odd(0,54J+53;108N+73) mod 3": ("v0odd-5",),
    "m_odd(0,1;4(9n+5)+1) = m_odd(0,1;4(9n+8)+1) = 0": ("m0-t1-vanish",),
    "m_odd(1,J;24N+22) mod 2": ("v1-0",),
    "m_odd(1,2J+1;12N+7) mod 2": ("v1-0b",),
    "m_odd(1,4J+3;24N+7) mod 4": ("v1-0c",),
    "m_odd(1,2J+1;8N+{5,7}) mod 2": ("v1-1",),
    "m_odd(1,16J+15;16N+7) mod 4": ("v1-2",),
    "m_odd(1,32J+31;32N+{21,29}) mod 4": ("v1-2b",),
    "m_odd(1,64J+63;32N+29) mod 8": ("v1-2c",),
    "m_odd(1,27J+13;27N+25) mod 3": ("v1-mod3-13",),
    "m_odd(1,27J+26;27N+19) mod 3": ("v1-mod3-26",),
    "m_odd(1,1;6n+5) = 0": ("m1-t1-6n5",),
}


def test_registry_shape():
    fams = registry()
    assert len(fams) >= 45
    ids = [f.id for f in fams]
    assert len(set(ids)) == len(ids)
    assert all(isinstance(f, CongruenceFamily) for f in fams)


def test_records_store_only_the_claim():
    # j_min and the power-sum window follow from the t rule and the claim
    assert len(CongruenceFamily._FIELDS) == 9
    assert not {"j_min", "dp_backed", "note"} & set(CongruenceFamily._FIELDS)
    for fam in registry():
        if fam.t_rule is None:
            assert fam.j_min == 0, fam.id
            continue
        j = fam.j_min
        assert fam.t_of(j) >= 0 and (j == 0 or fam.t_of(j - 1) < 0), fam.id
    assert {f.id for f in registry() if f.j_min == 1} == {
        f.id for f in registry() if f.kind == COEFF and f.t_rule[1] == -1}
    assert len([f for f in registry() if f.j_min == 1]) == 17
    assert all(f.j_min == 0 for f in registry() if f.j_min != 1)
    # the families that stop DP_WINDOW past t^2 whatever the budget
    windowed = {f.id for f in registry()
                if _bound(f, 9, 10 ** 6) == 9 * 9 + congruences.DP_WINDOW}
    assert windowed == {"m0-even-vanish", "m0-even-reinterp", "m0-odd-vanish"}
    assert CongruenceFamily("x", MODD, 0, EXACT_ZERO, t_rule=(0, 1)).j_min == 0
    assert CongruenceFamily("x", MODD, 0, EXACT_ZERO, t_rule=(3, -7)).j_min == 3


def test_manifest_covers_every_statement_once():
    ids = {f.id for f in registry()}
    claimed = []
    for display, mapped in MANIFEST.items():
        assert mapped, display
        for fid in mapped:
            assert fid in ids, (display, fid)
            claimed.append(fid)
    assert len(claimed) == len(set(claimed)), "some id claimed twice"
    # anything not claimed must be a coefficient-theorem entry
    leftovers = ids - set(claimed)
    assert all(f.startswith(("cm2-", "c0-", "c1-")) for f in leftovers), leftovers


def test_lookup():
    fam = lookup("v1-2c")
    assert fam.kind == "MODD" and fam.a == 1
    assert fam.sequence == "MODD(1)"
    assert fam.t_rule == (64, 63)
    assert fam.arg_mod == 32 and fam.arg_residues == (29,)
    assert fam.modulus == 8
    fam = lookup("vm2A-3")
    assert fam.arg_rule_str() == "8N+7"
    fam = lookup("a24n13-mod2")
    assert fam.kind == "PREFACTOR_A" and fam.a is None
    assert fam.sequence == "PREFACTOR_A"
    assert lookup("cm2-2").sequence == "COEFF(-2)"
    # the argument rule names the arguments the sweep reads
    assert lookup("c1-1").arg_rule_str() == "n ≢ 1 (mod 2)"
    assert lookup("c0-1a").arg_rule_str() == "n ≢ 0,1 (mod 4)"
    assert lookup("c1-2-s2").arg_rule_str() == "n ≢ 1 (mod 2)"    # excludes (1, 1)
    assert lookup("ovc8").arg_rule_str() == "8N+{0,1,2,3,4,5,6,7}"
    assert lookup("pre1-32").arg_rule_str() == "32N+{4,6,10,12,14,16,20,22,24,26,28,30}"
    with pytest.raises(UnknownFamily):
        lookup("nonexistent")


def test_quadratic_nonresidue_families():
    assert lookup("a2pn-mod2-p5").arg_residues == (4, 6)
    assert lookup("a2pn-mod2-p7").arg_residues == (6, 10, 12)
    assert lookup("a2pn-mod2-p11").arg_residues == (4, 12, 14, 16, 20)


def test_verify_family_passes():
    cache = SweepCache()
    r = verify_family("vm2A-3", n_budget=2000, cache=cache)
    assert r.passed and r.counterexample is None
    assert r.ranges["checked"] > 0
    r = verify_family("a2n-parity", n_budget=2000, cache=cache)
    assert r.passed
    # spot values behind the parity characterization
    a = prefactor_a(20).coeffs
    assert a[2] % 2 == 1      # n = 1: square, not divisible by 3
    assert a[18] % 2 == 0     # n = 9: square divisible by 3


def test_parity_sets_match_a_route_the_sweep_does_not_read():
    # a(x) for even x: the sweep reads prefactor_a reduced mod SWEEP_MOD
    a = prefactor_a(20001, 2).coeffs
    want = congruences._odd_support(lookup("a2n-parity"), 20000)
    assert {x for x in range(0, 20001, 2) if a[x] & 1} == want
    # m_odd(-2,1;N): the sweep reads the closed form, not the power-sum row
    m = powersum_utilde(-2, 1, 20001)[1].coeffs
    want = congruences._odd_support(lookup("m2-parity-t1"), 20000)
    assert {n for n in range(20001) if m[n] & 1} == want


def test_verify_all_plans_each_family_once(monkeypatch):
    calls = []
    real = congruences._sweep_plan

    def counted(fam, *args):
        calls.append(fam.id)
        return real(fam, *args)

    monkeypatch.setattr(congruences, "_sweep_plan", counted)
    reports = verify_all("quick")
    assert len(reports) == 80 and calls == [r.family_id for r in reports]


def test_millis_times_the_sweep_alone(monkeypatch):
    # a direct verify_family call builds its expansions before the clock starts
    real = SweepCache.reserve

    def slow(self, *needs):
        time.sleep(0.3)
        real(self, *needs)

    monkeypatch.setattr(SweepCache, "reserve", slow)
    assert verify_family("vm2A-3", n_budget=2000).millis < 300
    assert verify_all("quick", ids=["vm2A-3"], n_budget=2000)[0].millis < 300


def test_bumped_modulus_fails_with_counterexample():
    fam = lookup("vm2A-3").replace(modulus=16)
    r = verify_family(fam, n_budget=2000)
    assert not r.passed
    cex = r.counterexample
    assert set(cex) >= {"J", "N", "value", "modulus"}
    assert cex["modulus"] == 16
    assert cex["N"] % 8 == 7
    # the reported value really is divisible by 8 but not 16
    v = modd_explicit(-2, cex["J"] + 1, cex["N"])
    assert v % 8 == 0 and v % 16 != 0
    assert cex["value"] == str(v)


def test_counterexamples_carry_exact_values():
    # residue route: a(10) = 232 fails mod 16; its residue mod 192 is 40
    fam = lookup("ovc-16n10-mod8").replace(modulus=16)
    assert _sweep_modulus(fam) == SWEEP_MOD
    r = verify_family(fam, n_budget=2000)
    assert r.counterexample == {"J": None, "N": 10, "value": "232", "modulus": 16}
    fam = lookup("v1-mod3-13").replace(modulus=6)
    assert _sweep_modulus(fam) == SWEEP_MOD
    cex = verify_family(fam, j_values=(0,), n_budget=2000).counterexample
    assert cex["N"] == 916 and cex["value"] == str(modd_explicit(1, 13, 916))
    assert cex["value"] == "-55617341180961"
    # a modulus that does not divide 192 reads exact expansions
    fam = lookup("vm2A-3").replace(modulus=5)
    assert _sweep_modulus(fam) == 0
    assert set(_sweep_plan(fam)[2]) == {("overpartition", 0)}
    cex = verify_family(fam, n_budget=2000).counterexample
    v = modd_explicit(-2, cex["J"] + 1, cex["N"])
    assert cex["value"] == str(v) and v % 5 != 0


@pytest.mark.parametrize("family_id, kind, index", [
    ("ovc-16n10-mod8", "overpartition", 10),   # CONG_ZERO on a shared expansion
    ("ovc8", "overpartition", 7),              # VALUATION_TABLE
    ("a2n-parity", "prefactor_a", 4),          # PARITY_A2N
    ("m2-6n5-mod6", "overpartition", 4),       # m_odd closed form
])
def test_residue_exact_disagreement_raises(monkeypatch, family_id, kind, index):
    # one wrong residue makes the residue route fail a point whose exact
    # value passes; the sweep must not report that as a counterexample
    build = SweepCache._BUILDERS[kind]

    def corrupted(order, mod):
        series = build(order, mod)
        if not mod:
            return series
        coeffs = list(series.coeffs)
        coeffs[index] = (coeffs[index] + 1) % mod
        return Series(coeffs)

    monkeypatch.setattr(SweepCache, "_BUILDERS", {**SweepCache._BUILDERS, kind: corrupted})
    fam = lookup(family_id)
    assert _sweep_modulus(fam) == SWEEP_MOD
    j_values = None if fam.t_rule is None else (fam.j_min,)
    with pytest.raises(ArithmeticError, match="disagree"):
        verify_family(fam, j_values, n_budget=500)


@pytest.mark.parametrize("family_id, change, cex", [
    ("ovc8", {"val_table": ((0, 1), (1, 1), (4, 1), (2, 2), (3, 3), (5, 3), (6, 3), (7, 7))},
     {"J": None, "N": 7, "value": "64", "modulus": 128, "required_nu2": 7}),
    ("m2-parity-t1", {"a": 1},
     {"J": 0, "N": 2, "value": "-1", "modulus": 2, "expected": 0}),
    ("m1-t1-6n5", {"arg_residues": (1,)},
     {"J": 0, "N": 1, "value": "1", "modulus": 0}),
    ("a2n-parity", {"kind": OVERPARTITION},
     {"J": None, "N": 2, "value": "4", "modulus": 2, "expected": 1}),
])
def test_counterexample_shape_per_expected_kind(family_id, change, cex):
    fam = lookup(family_id).replace(**change)
    j_values = None if fam.t_rule is None else (fam.j_min,)
    r = verify_family(fam, j_values, n_budget=500)
    assert r.status == "fail" and r.counterexample == cex


def test_valuation_table_reports_its_smallest_failing_argument():
    # rows 2 and 4 raised to nu_2 >= 5: pbar(2) = 4 is the first failure;
    # the table order used to reach class 4 first and report pbar(4) = 14
    # after 126 checks
    table = ((0, 1), (1, 1), (4, 5), (2, 5), (3, 3), (5, 3), (6, 3), (7, 6))
    r = verify_family(lookup("ovc8").replace(val_table=table), n_budget=500)
    assert r.counterexample == {"J": None, "N": 2, "value": "4", "modulus": 32,
                                "required_nu2": 5}
    assert r.checked == 2


def test_record_rejects_a_bad_claim_or_layout():
    with pytest.raises(ValueError, match="unknown expected kind"):
        CongruenceFamily("x", OVERPARTITION, None, "CONG_ONE", modulus=2)
    with pytest.raises(ValueError, match="unknown expected kind"):
        lookup("ovc8").replace(expected="VALUATION")
    # two rows for one class, and classes that open more than arg_mod apart
    with pytest.raises(ValueError, match="classes"):
        lookup("vm2A-1").replace(arg_residues=(3, 11))
    with pytest.raises(ValueError, match="classes"):
        lookup("vm2A-1").replace(arg_residues=(3, 12))
    with pytest.raises(ValueError, match="classes"):
        lookup("ovc8").replace(val_table=((1, 1), (1, 2)))


def test_registry_records_are_read_only_and_replace_revalidates():
    fam = lookup("vm2A-3")
    before = dict(vars(fam))
    with pytest.raises(AttributeError):
        fam.modulus = 16
    with pytest.raises(AttributeError):
        del fam.modulus
    changed = fam.replace(modulus=16)
    # a new record whose derived classes follow the change
    assert changed is not fam and changed.id == fam.id
    assert {m for _, m in changed.classes} == {16} != {m for _, m in fam.classes}
    with pytest.raises(ValueError, match="classes"):
        fam.replace(arg_residues=(3, 11))
    with pytest.raises(TypeError):
        fam.replace(modulo=16)
    assert lookup("vm2A-3") is fam and vars(fam) == before


def test_arguments_repeat_the_classes_in_order():
    # the bulk test takes class i's gcd over args[i::k], for every plan
    for fam in registry():
        k, m = len(fam.classes), fam.arg_mod
        assert fam.class_modulus == {start % m: mod for start, mod in fam.classes}, fam.id
        j_values, n_budget, _ = _sweep_plan(fam)
        for t in [fam.t_of(j) for j in j_values] or [None]:
            args, _ = _args_of(fam, t, n_budget)
            assert args == sorted(set(args)), (fam.id, t)
            assert all(x % m == args[i % k] % m == fam.classes[i % k][0] % m
                       for i, x in enumerate(args)), (fam.id, t)


def test_residue_route_covers_every_congruence_claim():
    # a family whose moduli stopped dividing 192 would silently fall back
    # to the exact route; only exact-value claims belong there
    exact = []
    for fam in registry():
        lengths = _sweep_plan(fam)[2]
        if fam.expected in (EXACT_ZERO, EQUALS_MODD_M2):
            exact.append(fam.id)
            assert _sweep_modulus(fam) == 0
        elif lengths:
            assert _sweep_modulus(fam) == SWEEP_MOD, fam.id
        prefactors = {mod for kind, mod in lengths if kind != "powersum"}
        assert prefactors <= {_sweep_modulus(fam)}, fam.id
    assert len(exact) == 5


def test_residue_route_agrees_with_exact_route_per_family():
    # every m_odd family on the residue route, at its own argument shape
    # (one or two residue classes, the a=0 quarters): the residue route's
    # values are congruent mod 192 to the exact route's
    cache = SweepCache()
    fams = [f for f in registry() if f.kind == MODD and _sweep_modulus(f)]
    assert len(fams) == 33
    for fam in fams:
        t = fam.t_of(fam.j_min)
        args, _ = _args_of(fam, t, 1500)
        values = _values(fam, t, args, cache, SWEEP_MOD)
        exact = _values(fam, t, args, cache, 0)
        for x, v, w in zip(args, values, exact, strict=True):
            assert (v - w) % SWEEP_MOD == 0, (fam.id, x)


def test_bumped_coefficient_family_fails():
    fam = lookup("c1-1").replace(modulus=4)
    r = verify_family(fam, n_budget=200)
    assert not r.passed
    assert r.counterexample["N"] == 2  # c_2(1,1) = 2


def test_budget_too_small():
    with pytest.raises(BudgetTooSmall):
        verify_family("a24n13-mod2", n_budget=5)
    # a negative budget is an error, not a cue to take the m_odd minimum bound
    with pytest.raises(ValueError, match="budget -5"):
        verify_family("v1-1", n_budget=-5)


def test_j_range_validation():
    with pytest.raises(ValueError):
        verify_family("cm2-3", j_values=(0, 1))  # theorem needs J >= 1
    with pytest.raises(ValueError):
        verify_family("v1-1", j_values=())
    # a family without a t rule takes no J, rather than dropping it
    with pytest.raises(ValueError, match="no t rule"):
        verify_family("ovc8", j_values=(7,))
    with pytest.raises(ValueError, match="no t rule"):
        verify_all("quick", ids=["v1-1", "ovc8"], j_values=(1,))


def test_report_json_shape():
    r = verify_family("ovc8", n_budget=500)
    blob = json.loads(json.dumps(r.to_json()))
    assert set(blob) == {"id", "sequence", "t_rule", "arg_rule", "modulus",
                         "ranges", "status", "counterexample", "millis"}
    assert blob["status"] == "pass"
    assert blob["t_rule"] is None


def test_status_and_passed_follow_the_counterexample():
    fam = lookup("vm2A-3")
    ok = VerifyReport(fam, {"checked": 3}, None, 1.0)
    assert ok.passed and ok.status == "pass" and ok.family_id == "vm2A-3"
    cex = {"J": 1, "N": 7, "value": "4", "modulus": 8}
    bad = VerifyReport(fam, {"checked": 3}, cex, 1.0)
    assert not bad.passed and bad.status == "fail"
    blob = bad.to_json()
    assert (blob["status"], blob["counterexample"]) == ("fail", cex)
    # every label is the family's, so none can disagree with it
    assert [blob[k] for k in ("id", "sequence", "t_rule", "arg_rule", "modulus")] == \
        [fam.id, fam.sequence, fam.t_rule_str(), fam.arg_rule_str(), fam.modulus]
    with pytest.raises(AttributeError):
        bad.status = "pass"


def test_coeff_budget_is_honoured():
    # the default is the quick profile's n <= 1500 ...
    r = verify_family("c1-1", j_values=(1,))
    assert r.passed and r.ranges["max_n"] == 1500
    assert r.checked == 750                      # even n only
    # ... and an explicit budget is swept in full, not capped
    r = verify_family("c1-1", j_values=(1,), n_budget=3000)
    assert r.passed and r.ranges["max_n"] == 3000
    assert r.checked == 1500
    # the count is stored once, in the ranges
    assert r.ranges["checked"] == 1500
    with pytest.raises(AttributeError):
        r.checked = 0


def test_default_budget_follows_profile():
    r = verify_family("ovc-16n10-mod8")
    assert r.passed and r.ranges["max_arg"] == 50000
    r = verify_family("vm2A-3", n_budget=None)
    assert r.ranges["max_arg"] == 20000


def test_verify_all_selection():
    reports = verify_all("quick", ids=["m1-t1-6n5", "ovc-16n10-mod8"])
    assert [r.family_id for r in reports] == ["m1-t1-6n5", "ovc-16n10-mod8"]
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        verify_all("quick", ids=[])
    with pytest.raises(UnknownFamily):
        verify_all("quick", ids=["nope"])
    with pytest.raises(ValueError, match="repeated famil"):     # swept twice before
        verify_all("quick", ids=["vm2A-3", "ovc8", "vm2A-3"])
    with pytest.raises(ValueError):
        verify_all("nightly")


def test_verify_all_overrides_j_and_budget():
    ids = ["v1-1", "c1-1"]
    reports = verify_all("quick", ids=ids, j_values=(2,), n_budget=3000)
    assert [r.ranges["J"] for r in reports] == [[2], [2]]
    assert reports[0].ranges["max_arg"] == 3000 and reports[1].ranges["max_n"] == 3000
    solo = [verify_family(i, j_values=(2,), n_budget=3000) for i in ids]
    assert [r.to_json() | {"millis": 0} for r in reports] == \
        [r.to_json() | {"millis": 0} for r in solo]


@pytest.fixture
def builds(monkeypatch):
    """(kind, mod, order) of every SweepCache expansion built in the test."""
    seen = []

    def counted(kind, build):
        def wrapper(order, mod):
            seen.append((kind, mod, order))
            return build(order, mod)
        return wrapper

    monkeypatch.setattr(SweepCache, "_BUILDERS", {
        kind: counted(kind, build) for kind, build in SweepCache._BUILDERS.items()})
    return seen


def test_each_expansion_is_built_once(builds):
    # t = 63 and t = 95 read the expansion to 63^2 + 2000 and 95^2 + 2000
    r = verify_family("vm2-5", j_values=(1, 2), n_budget=100)
    assert r.passed and r.ranges["max_arg"] == 95 * 95 + 2000
    assert len(builds) == 1
    kind, mod, order = builds[0]
    assert (kind, mod) == ("overpartition", 192) and order >= 11026


def test_a0_prefactor_reads_quarter_arguments(builds):
    # the a=0 closed form reads the overpartition counts at n//4 only
    r = verify_family("v0odd-3b")
    assert r.passed and r.ranges["max_arg"] == 255 * 255 + 2000
    assert len(builds) == 1
    kind, mod, order = builds[0]
    assert (kind, mod) == ("overpartition", 192) and order <= 16757


def test_exact_claims_build_no_prefactor(builds):
    # the exact claims read the power-sum rows, not the closed form's
    # prefactor (m1-t1-6n5 used to build an exact prefactor_a(20001))
    for fid in ("m1-t1-6n5", "m0-t1-vanish", "m0-even-vanish", "m0-odd-vanish"):
        assert verify_family(fid).passed, fid
    assert builds and {kind for kind, _, _ in builds} == {"powersum"}
    # the reinterpretation's m_odd(-2) side still reads the closed form
    del builds[:]
    assert verify_family("m0-even-reinterp").passed
    assert [(kind, mod) for kind, mod, _ in builds if kind != "powersum"] == [
        ("overpartition", 0)]


def test_powersum_rows_are_built_once_per_key(monkeypatch):
    # one entry per (a, t), built at the requested order and rebuilt only
    # when a later request asks for more; a shorter one reads its prefix
    real = congruences.powersum_utilde
    calls = []

    def counted(a, t_max, order):
        calls.append((a, t_max, order))
        return real(a, t_max, order)

    monkeypatch.setattr(congruences, "powersum_utilde", counted)
    cache = SweepCache()
    requests = [(0, 1, 300), (0, 3, 310), (0, 0, 301), (0, 2, 200), (0, 1, 900),
                (0, 1, 310), (2, 1, 300), (0, 3, 900), (0, 2, 600), (0, 1, 300)]
    for a, t, order in requests:
        row = cache.coeffs("powersum", order, (a, t))
        assert row[:order] == real(a, t, order)[t].coeffs, (a, t, order)
    assert calls == [(0, 1, 300), (0, 3, 310), (0, 0, 301), (0, 2, 200), (0, 1, 900),
                     (2, 1, 300), (0, 3, 900), (0, 2, 600)]


def test_plan_names_every_build(monkeypatch):
    # every expansion a sweep builds, power-sum rows included, is one the
    # plan names, built once at its planned length
    builds, rows = [], []
    real = congruences.powersum_utilde

    def counted(kind, build):
        def wrapper(order, param):
            builds.append(((kind, param), order))
            return build(order, param)
        return wrapper

    def counted_rows(a, t_max, order):
        rows.append(((a, t_max), order))
        return real(a, t_max, order)

    monkeypatch.setattr(SweepCache, "_BUILDERS", {
        kind: counted(kind, build) for kind, build in SweepCache._BUILDERS.items()})
    monkeypatch.setattr(congruences, "powersum_utilde", counted_rows)
    for fam in registry():
        del builds[:], rows[:]
        lengths = _sweep_plan(fam)[2]
        assert verify_family(fam, cache=SweepCache()).passed, fam.id
        assert sorted(builds, key=repr) == sorted(lengths.items(), key=repr), fam.id
        # the power-sum route runs only for the rows the store builds
        assert rows == [(at, n) for (kind, at), n in builds if kind == "powersum"], fam.id


@pytest.mark.parametrize("family_id", ["m1-t1-6n5", "m0-t1-vanish"])
def test_power_sum_route_equals_closed_form(family_id):
    # the exact claims' values on the power-sum route equal the closed
    # form's, on the claimed arguments (all zero) and on every n <= 3000
    fam = lookup(family_id)
    t = fam.t_of(0)
    everywhere = fam.replace(arg_mod=1, arg_residues=(0,))
    for f in (fam, everywhere):
        args, bound = _args_of(f, t, 3000)
        assert bound == 3000
        assert _values(f, t, args, SweepCache(), 0) == modd_explicit_batch(f.a, t, args), f
    assert sum(1 for v in _values(everywhere, t, args, SweepCache(), 0) if v) > 400


def test_repeated_j_is_rejected():
    # J = (0, 0) used to sweep t = 1 twice and report each value twice
    with pytest.raises(ValueError, match="repeated J"):
        verify_family("m1-t1-6n5", j_values=(0, 0), n_budget=100)
    with pytest.raises(ValueError, match="repeated J"):
        verify_all("quick", ids=["v1-1"], j_values=(2, 1, 2))
    # distinct J values that give the same t are still two sweeps
    assert verify_family("m1-t1-6n5", j_values=(0, 1), n_budget=100).checked == 2 * 333


def test_budget_extension_beyond_leading_exponent():
    # t = 63 forces the sweep window out to t^2 + 2000 even on tiny budgets
    r = verify_family("v1-2c", j_values=(0,), n_budget=100)
    assert r.passed
    assert r.ranges["max_arg"] >= 63 * 63 + 2000


def test_bound_is_the_largest_argument_swept():
    # the reported bound is inclusive for every family: no argument lies
    # above it, and each residue class checked reaches it within one step
    for fam in registry():
        if fam.kind == COEFF:
            continue
        j_values, n_budget, _ = _sweep_plan(fam)
        for t in [fam.t_of(j) for j in j_values] or [None]:
            args, bound = _args_of(fam, t, n_budget)
            assert max(args) <= bound < max(args) + fam.arg_mod, (fam.id, t)
            for r in {x % fam.arg_mod for x in args}:
                top = max(x for x in args if x % fam.arg_mod == r)
                assert bound < top + fam.arg_mod, (fam.id, t, r)


# -- the bulk verdict against the per-value scan -------------------------

# (family, change): every expected kind, on residues and on the exact
# route, a family without a t rule, and one whose two J share one t
BULK_CASES = [
    ("a24n13-mod2", {}),                    # CONG_ZERO, no t rule
    ("vm2A-3", {}),                         # CONG_ZERO, two J
    ("vm2A-3", {"modulus": 5}),             # CONG_ZERO on the exact route
    ("c1-1", {}),                           # CONG_ZERO on a c_n column
    ("c0-3", {}),                           # 25 c_n classes, two J
    ("v1-mod3-13", {}),                     # CONG_ZERO mod 3
    ("ovc8", {}),                           # VALUATION_TABLE, nu_2 up to 6
    ("pre1-24", {}),
    ("m1-t1-6n5", {}),                      # EXACT_ZERO, t=1 for both J
    ("m0-even-reinterp", {}),               # EQUALS_MODD_M2
    ("a2n-parity", {}),                     # PARITY_A2N
    ("m2-parity-t1", {}),                   # PARITY_M2_T1
]
WHERE = {"first": lambda n: 0, "middle": lambda n: n // 2, "last": lambda n: n - 1}


def passing_value(fam, x, rnd):
    if fam.expected in (PARITY_A2N, PARITY_M2_T1):
        odd = congruences._verdict(fam, None, x, 1) is None
        return 2 * rnd.randint(-3, 3) + odd
    return fam.class_modulus[x % fam.arg_mod] * rnd.randint(-3, 3)


def failing_value(fam, x, rnd):
    """A value ``_verdict`` rejects; for VALUATION_TABLE one that only its
    own class rejects when that class asks for nu_2 >= 2."""
    if fam.expected in (PARITY_A2N, PARITY_M2_T1):
        return passing_value(fam, x, rnd) + 1
    m = fam.class_modulus[x % fam.arg_mod]
    if fam.expected == VALUATION_TABLE:
        return (m >> 1) * (2 * rnd.randint(-3, 3) + 1)
    if m:
        return passing_value(fam, x, rnd) + rnd.randint(1, m - 1)
    return rnd.choice((-1, 1)) * rnd.randint(1, 10 ** 30)


def planted(fam, j_values, n_budget, fails, seed):
    """A stand-in for ``congruences._values``: exact values that pass,
    except at the (J index, position) pairs in `fails`, with residues that
    differ from them by multiples of the sweep modulus."""
    rnd = random.Random(seed)
    table = {}
    for index, j in enumerate(j_values or (None,)):
        t = None if j is None else fam.t_of(j)
        if t in table:      # two J with one t share the first one's values
            continue
        args, _ = _args_of(fam, t, n_budget)
        bad = {WHERE[where](len(args)) for i, where in fails if i == index}
        row = table[t] = {}
        for pos, x in enumerate(args):
            v = failing_value(fam, x, rnd) if pos in bad else passing_value(fam, x, rnd)
            row[x] = (v, rnd.randint(-2, 2))

    def values(fam, t, args, cache, mod):
        return [v + mod * k for v, k in (table[t][x] for x in args)]

    return values


def scan_reference(fam, j_values, n_budget, values_of):
    """(checked, top, cex, rows) of the per-value loop: every exact value
    through ``_verdict`` until the first counterexample; each row over the
    J's residues."""
    mod = _sweep_modulus(fam)
    checked = top = 0
    rows = []
    for j in j_values or (None,):
        t = None if j is None else fam.t_of(j)
        args, bound = _args_of(fam, t, n_budget)
        top = max(top, bound)
        residues = values_of(fam, t, args, None, mod)
        observed = mod
        nonzero = 0
        for v in residues:
            observed = gcd(observed, v)
            nonzero += (v % mod if mod else v) != 0
        rows.append({"J": j, "nonzero": nonzero, "observed_modulus": observed})
        for x, v in zip(args, values_of(fam, t, args, None, 0)):
            checked += 1
            cex = congruences._verdict(fam, j, x, v)
            if cex is not None:
                return checked, top, cex, rows
    return checked, top, None, rows


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BULK_CASES),
       st.lists(st.tuples(st.integers(0, 1), st.sampled_from(sorted(WHERE))), max_size=3),
       st.integers(0, 2 ** 32))
@example(("ovc8", {}), [(0, "last")], 0)        # 32 in class 7 of ovc8, which wants 2^6
@example(("pre1-24", {}), [(0, "middle")], 1)
def test_bulk_verdict_equals_the_per_value_scan(case, fails, seed):
    family_id, change = case
    fam = lookup(family_id).replace(**change)
    j_values, n_budget, _ = _sweep_plan(fam, n_budget=400)
    values_of = planted(fam, j_values, n_budget, fails, seed)
    want = scan_reference(fam, j_values, n_budget, values_of)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(congruences, "_values", values_of)
        assert _sweep(fam, j_values, n_budget, SweepCache()) == want


def test_quick_pass_calls_no_per_value_verdict(monkeypatch):
    # a passing J is decided by its bulk test alone
    calls = []
    real = congruences._verdict

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(congruences, "_verdict", counted)
    reports = verify_all("quick")
    assert all(r.passed for r in reports)
    assert calls == []
