"""Odd divisor-sum families: DP vs closed forms vs enumeration, the
Chebyshev/Riordan machinery, and the classical t=1 identities."""

import pytest

from qlab.series import Series
from qlab.special import eta, eta_quotient
from qlab.special import overpartition_gf, prefactor_a
from qlab.macmahon import (
    UnsupportedA,
    _theta_batch,
    chebyshev_T,
    coeff_c,
    coeff_column,
    direct_utilde,
    explicit_utilde,
    local_factor_coeffs,
    modd_direct,
    modd_explicit,
    modd_explicit_batch,
    oracle_modd,
    powersum_utilde,
    riordan_coeff,
    riordan_series,
    te,
    te_sum,
    theta_weight_terms,
    two_te_at_quarter,
    two_te_quarter_shift,
    w_series,
)


# -- independent divisor-function oracles --------------------------------

def sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def tau_mod6(n, j):
    return sum(1 for d in range(1, n + 1) if n % d == 0 and d % 6 == j)


def triangular_pairs(n):
    count = 0
    i = 0
    while i * (i + 1) // 2 <= n:
        rest = n - i * (i + 1) // 2
        j = 0
        while j * (j + 1) // 2 < rest:
            j += 1
        if j * (j + 1) // 2 == rest:
            count += 1
        i += 1
    return count


def test_local_factor_coeffs():
    assert local_factor_coeffs(-2, 6) == [0, 1, 2, 3, 4, 5, 6]
    assert local_factor_coeffs(0, 8) == [0, 1, 0, -1, 0, 1, 0, -1, 0]
    assert local_factor_coeffs(1, 6) == [0, 1, -1, 0, 1, -1, 0]
    assert local_factor_coeffs(-1, 6) == [0, 1, 1, 0, -1, -1, 0]
    assert local_factor_coeffs(2, 5) == [0, 1, -2, 3, -4, 5]
    with pytest.raises(ValueError):
        local_factor_coeffs(3, 5)


def test_direct_displays():
    assert direct_utilde(-2, 1, 10)[1].coeffs == (0, 1, 2, 4, 4, 6, 8, 8, 8, 13)
    assert direct_utilde(1, 1, 10)[1].coeffs == (0, 1, -1, 1, 1, 0, -1, 2, -1, 1)
    u2 = direct_utilde(0, 2, 9)[2]
    assert all(c == 0 for e, c in enumerate(u2.coeffs) if e % 4 != 0)
    assert u2.coeff(4) == 1 and u2.coeff(8) == 2


def test_u1_a0_display():
    u = direct_utilde(0, 1, 38)[1]
    want = {1: 1, 5: 2, 9: 1, 13: 2, 17: 2, 25: 3, 29: 2, 37: 2}
    assert dict(u.nonzero_terms()) == want


def test_oracle_examples():
    assert oracle_modd(-2, 2, 4) == 1
    assert oracle_modd(1, 2, 4) == 1
    for a in (-2, -1, 0, 1, 2):
        assert oracle_modd(a, 1, 1) == 1
    assert oracle_modd(0, 2, 3) == 0
    assert oracle_modd(-2, 0, 0) == 1


def test_direct_matches_oracle():
    for a in (-2, -1, 0, 1, 2):
        rows = direct_utilde(a, 3, 41)
        for t in range(4):
            for n in range(41):
                assert rows[t].coeff(n) == oracle_modd(a, t, n), (a, t, n)


def test_powersum_matches_direct():
    for a in (-2, -1, 0, 1, 2):
        want = direct_utilde(a, 5, 400)
        got = powersum_utilde(a, 5, 400)
        assert len(got) == 6
        for t in range(6):
            assert got[t].coeffs == want[t].coeffs, (a, t)


def test_powersum_small_orders_and_zero_rows():
    for a in (-2, -1, 0, 1, 2):
        for order in (1, 2, 4, 5, 10, 17):
            want = [r.coeffs for r in direct_utilde(a, 6, order)]
            assert [r.coeffs for r in powersum_utilde(a, 6, order)] == want, (a, order)
    rows = powersum_utilde(1, 4, 9)           # t^2 >= 9 for t = 3, 4
    assert rows[3].is_zero() and rows[4].is_zero() and rows[3].order == 9


def test_powersum_argument_guards():
    for bad in ((3, 2, 10), (-3, 2, 10), (0, -1, 10), (0, 2, 0), (0, 2, -5)):
        with pytest.raises(ValueError):
            powersum_utilde(*bad)


def test_explicit_matches_direct():
    for a in (-2, 0, 1):
        rows = direct_utilde(a, 5, 300)
        for t in range(6):
            assert explicit_utilde(a, t, 300).eq(rows[t]), (a, t)


def test_zero_pattern_a0():
    rows = direct_utilde(0, 5, 300)
    for t in (2, 4):
        for r in (1, 2, 3):
            assert rows[t].dissect(4, r).is_zero()
    for t in (1, 3, 5):
        for r in (0, 2, 3):
            assert rows[t].dissect(4, r).is_zero()


def test_sign_identity():
    for a in (0, 1, 2):
        pos = direct_utilde(a, 4, 200)
        neg = direct_utilde(-a, 4, 200)
        for t in range(5):
            want = pos[t].substitute_negq()
            if t % 2:
                want = -want
            assert neg[t].eq(want), (a, t)


# -- coefficient families ------------------------------------------------

def test_coeff_c_closed_forms():
    assert coeff_c(-2, 1, 3) == 9
    assert [coeff_c(-2, 1, n) for n in range(1, 6)] == [1, -4, 9, -16, 25]
    assert coeff_c(1, 1, 2) == 2
    assert [coeff_c(1, 1, n) for n in (1, 2, 3, 4)] == [1, 2, 0, -4]
    assert [coeff_c(0, 0, n) for n in (1, 2, 3)] == [1, -3, 5]
    for t in range(1, 9):
        assert coeff_c(-2, t, t) == 1
        assert coeff_c(1, t, t) == 1
        assert coeff_c(0, t, t + 1) == 1
        for a in (-2, -1, 0, 1, 2):
            assert te_sum(a, t, t) == 1
    with pytest.raises(UnsupportedA):
        coeff_c(2, 1, 1)
    with pytest.raises(ValueError):
        coeff_c(1, 1, 0)


def test_coeff_column_matches_coeff_c():
    for a in (-2, 0, 1):
        for t in (0, 1, 2, 3, 7, 31):
            column = coeff_column(a, t, 300)
            assert column == [0] + [coeff_c(a, t, n) for n in range(1, 301)], (a, t)
    assert coeff_column(1, 5, 0) == [0]
    with pytest.raises(UnsupportedA):
        coeff_column(2, 1, 10)
    with pytest.raises(ValueError):
        coeff_column(1, -1, 10)
    with pytest.raises(ValueError):
        coeff_column(1, 1, -1)


def test_coeff_column_deep_a1_against_te_sum():
    # the largest a=1 column the quick sweep reads: t = 127, n <= 1500
    column = coeff_column(1, 127, 1500)
    assert len(column) == 1501
    for n in (1, 126, 127, 128, 700, 1377, 1400, 1499, 1500):
        assert column[n] == te_sum(1, 127, n), n
    assert column[1500] != 0


def test_riordan_series_t0_is_twice_chebyshev():
    # (1 - z^2)/(1 - a z + z^2) = (2 - a z)/(1 - a z + z^2) - 1, so for
    # n >= 1 the coefficient is 2*T_n(a/2): u_n = a*u_(n-1) - u_(n-2)
    for a in (-2, -1, 0, 1, 2):
        rs = riordan_series(a, 0, 40)
        assert rs.coeff(0) == 1
        u = [2, a]
        for n in range(2, 41):
            u.append(a * u[-1] - u[-2])
        for n in range(1, 41):
            assert rs.coeff(n) == u[n] == te_sum(a, 0, n), (a, n)
    with pytest.raises(ValueError):
        riordan_series(1, -1, 5)


def _per_entry_terms(a, t, order):
    """theta-weight terms built one coeff_c call at a time."""
    r = (lambda n: n * (n - 1)) if a == 0 else (lambda n: n * n)
    n = t + 1 if a == 0 else max(1, t)
    terms = []
    while r(n) < order:
        c = coeff_c(a, t, n)
        if c:
            terms.append((r(n), c))
        n += 1
    return terms


def _per_entry_convolution(a, t, args, pref):
    terms = _per_entry_terms(a, t, max(args) + 1)
    return [sum(c * pref[x - e] for e, c in terms if e <= x) for x in args]


def test_theta_routes_match_per_entry():
    for a, t, order in ((-2, 0, 50), (-2, 3, 400), (0, 0, 30), (0, 4, 500),
                        (1, 1, 90), (1, 7, 700), (1, 31, 1200)):
        assert theta_weight_terms(a, t, order) == _per_entry_terms(a, t, order), (a, t)
    args = [0, 1, 5, 17, 64, 99, 255, 256, 399]
    pref_m2 = overpartition_gf(400).coeffs
    pref_1 = prefactor_a(400).coeffs
    for a, t in ((-2, 1), (-2, 5), (1, 2), (1, 9), (1, 15)):
        pref = pref_1 if a == 1 else pref_m2
        want = _per_entry_convolution(a, t, args, pref)
        assert modd_explicit_batch(a, t, args) == want, (a, t)
        assert _theta_batch(a, t, args) == want, (a, t)
    # the a=0 odd case: W_t read on 4n+1
    for t in (0, 1, 3):
        want = _per_entry_convolution(0, t, args, pref_m2)
        assert _theta_batch(0, t, args) == want, t
        assert want == [w_series(t, 400).coeff(x) for x in args], t
        odd = [4 * x + 1 for x in args]
        assert modd_explicit_batch(0, 2 * t + 1, odd) == want, t


def test_te_sum_matches_riordan():
    for a in (-2, -1, 0, 1, 2):
        for t in range(1, 9):
            rs = riordan_series(a, t, 40)
            for n in range(t, 41):
                assert te_sum(a, t, n) == rs.coeff(n), (a, t, n)


def test_riordan_examples():
    assert riordan_coeff(-2, 1, 2) == -4
    assert riordan_coeff(1, 1, 2) == 2
    for a in (-2, 0, 1):
        for t in (1, 2, 3):
            assert riordan_coeff(a, t, t) == 1


def test_chebyshev_and_te():
    assert chebyshev_T(0).coeffs == (1,)
    assert chebyshev_T(1).coeffs == (0, 1)
    assert chebyshev_T(2).coeffs == (-1, 0, 2)
    assert chebyshev_T(4).coeffs == (1, 0, -8, 0, 8)
    assert te(1).coeffs == (-1, 2)
    assert te(2).coeffs == (1, -8, 8)
    for n in range(13):
        assert te(n).eval_at(1) == 1  # T_2n(1) = 1


def test_two_te_quarter_shift_matches_k_sum():
    for a in (-2, 0, 1):
        for n in range(1, 13):
            poly = two_te_quarter_shift(n, a + 2)
            for t in range(n + 1):
                assert poly.coeff(t) == te_sum(a, t, n), (a, n, t)
    # integer specialization 2*te_n(w/4)
    for n in range(1, 10):
        for w in (1, 2, 3, 4):
            assert two_te_at_quarter(n, w) == te_sum(w - 2, 0, n)


# -- generating identities ------------------------------------------------

def trinomial_product_odd(b, order):
    """prod over odd m of (1 + b q^m + q^(2m)), exact to `order`."""
    acc = Series.one(order)
    for m in range(1, order, 2):
        acc = acc * Series.from_terms([(0, 1), (m, b), (2 * m, 1)], order)
    return acc


def test_generating_identity():
    order = 120
    for a in (-2, 0, 1):
        denom = trinomial_product_odd(a, order) * eta(2, order)
        rows = direct_utilde(a, 10, order)
        for x0 in (1, 2, 3):
            theta = Series.from_terms(
                [(0, 1)] + [(n * n, te_sum(x0 + a, 0, n)) for n in range(1, 11)], order)
            lhs = denom.invert() * theta
            rhs = Series.zero(order)
            xp = 1
            for t in range(11):
                rhs = rhs + rows[t].scale(xp)
                xp *= x0
            assert lhs.eq(rhs), (a, x0)


def test_even_chebyshev_product_identity():
    # 1 + 2 sum te_n(x0/4) q^(n^2) = phi(-q) * prod over odd m of
    # (1 + x0 q^m/(1-q^m)^2), checked at integer points
    order = 150
    phi_neg = eta_quotient([(1, 2), (2, -1)], order)
    for x0 in (1, 2, 3, 4):
        prod = phi_neg * trinomial_product_odd(x0 - 2, order)
        for m in range(1, order, 2):
            one_minus = Series.from_terms([(0, 1), (m, -1)], order)
            prod = prod.div(one_minus).div(one_minus)
        theta = Series.from_terms(
            [(0, 1)] + [(n * n, te_sum(x0 - 2, 0, n)) for n in range(1, 13)], order)
        assert prod.eq(theta), x0


# -- closed forms and t=1 identities --------------------------------------

def test_w_series():
    assert w_series(0, 3).coeffs == (1, 2, 1)
    assert w_series(0, 1).coeff(0) == 1
    assert w_series(2, 7).coeff(6) == 1  # leading exponent t(t+1)
    lhs = w_series(0, 40).substitute_power(4).shift(1).truncate(160)
    assert lhs.eq(direct_utilde(0, 1, 160)[1])


def test_explicit_examples():
    assert explicit_utilde(-2, 1, 10).eq(direct_utilde(-2, 1, 10)[1])
    u = explicit_utilde(0, 1, 40)
    assert {e for e, c in u.nonzero_terms()} <= {1, 5, 9, 13, 17, 25, 29, 37}
    assert explicit_utilde(1, 2, 5).coeff(4) == 1 == oracle_modd(1, 2, 4)
    assert explicit_utilde(1, 0, 7).eq(Series.one(7))
    with pytest.raises(UnsupportedA):
        explicit_utilde(-1, 1, 10)


def test_modd_single_and_batch():
    assert modd_direct(-2, 1, 9) == 13
    assert modd_explicit(-2, 1, 9) == 13
    assert modd_explicit(0, 1, 13) == 2
    assert modd_explicit(1, 2, 4) == 1
    args = list(range(0, 50))
    for a in (-2, 0, 1):
        for t in (0, 1, 2, 3):
            batch = modd_explicit_batch(a, t, args)
            direct = direct_utilde(a, t, 50)[t]
            assert batch == list(direct.coeffs), (a, t)
    assert modd_explicit_batch(1, 1, []) == []
    with pytest.raises(ValueError):
        modd_explicit_batch(1, 1, [-1])


def test_modd_explicit_batch_mod_is_congruent():
    # the residue route of the sweeps: prefactor and c_n both reduced
    args = [0, 1, 5, 17, 64, 99, 255, 256, 399, 1000, 1201]
    for mod in (3, 8, 192):
        prefs = {1: prefactor_a(1202, mod).coeffs, 0: overpartition_gf(1202, mod).coeffs}
        for a, t in ((-2, 1), (-2, 9), (0, 6), (0, 9), (1, 2), (1, 31)):
            got = modd_explicit_batch(a, t, args, prefs[a == 1], mod)
            want = modd_explicit_batch(a, t, args)
            assert [g % mod for g in got] == [w % mod for w in want], (mod, a, t)


def test_t1_divisor_sum_formula():
    vals = modd_explicit_batch(-2, 1, list(range(1, 401)))
    for n in range(1, 401):
        want = sigma(n) - (sigma(n // 2) if n % 2 == 0 else 0)
        assert vals[n - 1] == want, n


def test_t1_triangular_formula():
    vals = modd_explicit_batch(0, 1, [4 * n + 1 for n in range(400)])
    for n in range(400):
        assert vals[n] == triangular_pairs(n), n


def test_t1_tau_formula():
    vals = modd_explicit_batch(1, 1, list(range(1, 401)))
    for n in range(1, 401):
        want = tau_mod6(n, 1) - 2 * tau_mod6(n, 2) + 2 * tau_mod6(n, 4) - tau_mod6(n, 5)
        assert vals[n - 1] == want, n
