"""Acceptance gate: every exit criterion, exact (tolerance zero), timed.

Each test prints one PASS line with its measured runtime; run with -s to
see them live.  All comparisons are exact integer equality or exact
congruence.
"""

import time
from math import comb

from qlab.special import prefactor_a
from qlab.macmahon import (
    direct_utilde,
    explicit_utilde,
    modd_explicit_batch,
    oracle_modd,
    powersum_utilde,
    riordan_series,
    te_sum,
)
from qlab.arith import nu_binomial_kummer, pow2_poly_congruence
from qlab.congruences import SweepCache, lookup, registry, verify_all, verify_family
from qlab.qexpr import check_fixtures, evaluate_text, load_fixtures


class timer:
    def __init__(self, cid, limit):
        self.cid, self.limit = cid, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *a):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"\nACCEPTANCE {self.cid}: PASS ({elapsed:.1f}s < {self.limit}s)")
            assert elapsed < self.limit, f"{self.cid} exceeded {self.limit}s"
        else:
            print(f"\nACCEPTANCE {self.cid}: FAIL after {elapsed:.1f}s")
        return False


U1_A1_COEFFS = [1, -1, 1, 1, 0, -1, 2, -1, 1]          # q^1..q^9
PINNED_PREFACTOR = [1, -1, 1, -1, 2, -3, 4, -5, 7]     # q^0..q^8
C_N_1_1 = [1, 2, 0, -4]                                # c_n(1,1), n=1..4


def test_c1_printed_series_reproduction():
    with timer("C1 printed-series reproduction", 1.0):
        u = direct_utilde(-2, 1, 10)[1]
        assert list(u.coeffs[1:]) == [1, 2, 4, 4, 6, 8, 8, 8, 13]
        u0 = direct_utilde(0, 1, 38)[1]
        assert dict(u0.nonzero_terms()) == {
            1: 1, 5: 2, 9: 1, 13: 2, 17: 2, 25: 3, 29: 2, 37: 2}
        u1 = direct_utilde(1, 1, 10)[1]
        assert list(u1.coeffs[1:]) == U1_A1_COEFFS


def test_c2_method_triangulation():
    with timer("C2 method triangulation", 60.0):
        for a in (-2, 0, 1):
            rows = direct_utilde(a, 5, 300)
            sums = powersum_utilde(a, 5, 300)
            for t in range(6):
                assert explicit_utilde(a, t, 300).eq(rows[t]), (a, t)
                assert sums[t].eq(rows[t]), (a, t)
            for t in range(4):
                for n in range(61):
                    want = oracle_modd(a, t, n)
                    assert rows[t].coeff(n) == want, (a, t, n)


def test_c3_riordan_lemma():
    with timer("C3 Riordan coefficient lemma", 10.0):
        for a in (-2, -1, 0, 1, 2):
            for t in range(1, 81):
                rs = riordan_series(a, t, 80)
                for n in range(t, 81):
                    assert te_sum(a, t, n) == rs.coeff(n), (a, t, n)


def test_c4_dissection_fixture_corpus():
    with timer("C4 dissection fixture corpus", 60.0):
        fixtures = load_fixtures()
        assert len(fixtures) == 16
        assert all(fx.check_to >= 400 for fx in fixtures)
        reports = check_fixtures(fixtures)
        bad = [r.line() for r in reports if not r.passed]
        assert not bad, bad
        # companion checks: the halves really are the two printed quotients
        a = prefactor_a(400)
        assert a.dissect(2, 0).eq(evaluate_text("f8*f12^2/(f1*f3*f4*f24)", 200))
        assert a.dissect(2, 1).eq(evaluate_text("-f4^2*f6*f24/(f1*f2*f3*f8*f12)", 200))


def test_c5_prefactor_theorems():
    with timer("C5 prefactor congruence theorems", 180.0):
        cache = SweepCache()
        r = verify_family("a2n-parity", n_budget=20000, cache=cache)
        assert r.passed and r.ranges["checked"] >= 10001
        for fid in ("a24n13-mod2",
                    "a12n6-mod4", "a16n6-mod4", "a24n16-mod4", "a24n22-mod4",
                    "a12n9-mod8", "a24n19-mod8",
                    "a32n28-mod8", "a32n20-mod4"):
            r = verify_family(fid, n_budget=100000, cache=cache)
            assert r.passed, (fid, r.counterexample)


def test_c6_coefficient_theorems():
    with timer("C6 coefficient theorems", 120.0):
        coeff_ids = [f.id for f in registry() if f.sequence.startswith("COEFF")]
        assert len(coeff_ids) == 19
        cache = SweepCache()
        for fid in coeff_ids:
            fam = lookup(fid)
            js = (1, 2, 3) if fam.j_min == 1 else (0, 1, 2, 3)
            r = verify_family(fid, j_values=js, n_budget=1500, cache=cache)
            assert r.passed, (fid, r.counterexample)
        for p in (2, 3, 5, 7):
            for n in range(401):
                for m in range(n + 1):
                    v = comb(n, m)
                    e = 0
                    while v % p == 0:
                        v //= p
                        e += 1
                    assert nu_binomial_kummer(p, n, m) == e, (p, n, m)
        for s in range(1, 13):
            assert pow2_poly_congruence(s)


def test_c7_congruence_sweep_quick(monkeypatch):
    # record every build of the one sweep store: the plan sizes each
    # expansion once, and the sweep's own reads never ask for more
    builds = []

    def counted(kind, build):
        def wrapper(order, param):
            builds.append((kind, param, order))
            return build(order, param)
        return wrapper

    monkeypatch.setattr(SweepCache, "_BUILDERS", {
        kind: counted(kind, build) for kind, build in SweepCache._BUILDERS.items()})
    with timer("C7a quick-profile sweep", 300.0):
        reports = verify_all("quick")
        bad = [(r.family_id, r.counterexample) for r in reports if not r.passed]
        assert not bad, bad
        assert len(reports) >= 45
    # the exact claims read one power-sum row per (a, t), each to the
    # largest bound + 1 any family asks of it
    assert sorted(builds) == [("overpartition", 0, 502), ("overpartition", 192, 50001),
                              ("powersum", (0, 0), 2001), ("powersum", (0, 1), 20001),
                              ("powersum", (0, 2), 2005), ("powersum", (0, 3), 2010),
                              ("powersum", (1, 1), 20001), ("prefactor_a", 192, 20001)]


def test_c7_congruence_sweep_full_deep_families():
    with timer("C7b full-profile deep a=1 families", 1800.0):
        reports = verify_all("full", ids=["v1-2b", "v1-2c"])
        for r in reports:
            assert r.passed, (r.family_id, r.counterexample)
            assert r.ranges["max_arg"] >= 150000
        # t = 63 really sees >= 2000 coefficients beyond q^3969
        t = 63
        args = [x for x in range(29, 150001, 32) if x > t * t]
        assert len(args) >= 2000


def test_c8_exact_zero_and_closed_forms():
    with timer("C8 exact zeros and t=1 closed forms", 30.0):
        vals = modd_explicit_batch(1, 1, [6 * n + 5 for n in range(1001)])
        assert all(v == 0 for v in vals)
        vals = modd_explicit_batch(0, 1, [4 * (9 * n + 5) + 1 for n in range(501)])
        assert all(v == 0 for v in vals)
        vals = modd_explicit_batch(0, 1, [4 * (9 * n + 8) + 1 for n in range(501)])
        assert all(v == 0 for v in vals)

        top = 2000
        divisors = [[] for _ in range(top + 1)]
        for d in range(1, top + 1):
            for m in range(d, top + 1, d):
                divisors[m].append(d)

        vals = modd_explicit_batch(-2, 1, list(range(1, top + 1)))
        for n in range(1, top + 1):
            want = sum(divisors[n])
            if n % 2 == 0:
                want -= sum(divisors[n // 2])
            assert vals[n - 1] == want, n

        tri = []
        k = 0
        while k * (k + 1) // 2 <= top:
            tri.append(k * (k + 1) // 2)
            k += 1
        tri_set = set(tri)
        vals = modd_explicit_batch(0, 1, [4 * n + 1 for n in range(top + 1)])
        for n in range(top + 1):
            want = sum(1 for t_ in tri if t_ <= n and n - t_ in tri_set)
            assert vals[n] == want, n

        vals = modd_explicit_batch(1, 1, list(range(1, top + 1)))
        for n in range(1, top + 1):
            ds = divisors[n]
            want = (sum(1 for d in ds if d % 6 == 1)
                    - 2 * sum(1 for d in ds if d % 6 == 2)
                    + 2 * sum(1 for d in ds if d % 6 == 4)
                    - sum(1 for d in ds if d % 6 == 5))
            assert vals[n - 1] == want, n


def test_c9_misprint_guard():
    with timer("C9 prefactor misprint guard", 5.0):
        assert list(prefactor_a(9).coeffs) == PINNED_PREFACTOR

        def convolve_with_theta(pref):
            theta = {n * n: C_N_1_1[n - 1] for n in (1, 2, 3)}
            out = []
            for x in range(1, 10):
                out.append(sum(c * pref[x - e] for e, c in theta.items() if e <= x))
            return out

        assert convolve_with_theta(PINNED_PREFACTOR + [0]) == U1_A1_COEFFS

        # the printed variant (zero at q^3, everything after shifted up)
        printed_variant = [1, -1, 1, 0, -1, 2, -3, 4, -5, 7]
        assert convolve_with_theta(printed_variant) != U1_A1_COEFFS
