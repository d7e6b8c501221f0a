"""Odd divisor-sum families: DP vs closed forms vs enumeration, the
Chebyshev/Riordan machinery, and the classical t=1 identities."""

import pytest

from qlab.arith import is_prime
from qlab.series import Poly, Series, series_of_rational
from qlab.special import eta, eta_quotient
from qlab.special import overpartition_gf, prefactor_a
from qlab.macmahon import (
    DP_AS,
    PREFACTORS,
    UnsupportedA,
    _binomial_c,
    _dp_slot_bits,
    chebyshev_T,
    closed_form,
    coeff_c,
    coeff_column,
    direct_utilde,
    explicit_utilde,
    local_factor_coeffs,
    modd_direct,
    modd_explicit,
    modd_explicit_batch,
    modd_powersum,
    oracle_modd,
    powersum_utilde,
    riordan_series,
    te,
    te_sum,
    theta_weight_terms,
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


# (t, order) where the DP's slot width grows by a byte from order to order + 1
WIDTH_STEPS = {-2: (2, 11), 2: (2, 11), -1: (2, 72), 1: (2, 72), 0: (2, 60)}


@pytest.mark.parametrize("a", [-2, -1, 0, 1, 2])
def test_direct_packed_rows_match_oracle_and_powersum(a):
    # the packed DP against the brute-force oracle on the last two
    # coefficients and against the power-sum route on every one: on both
    # sides of a slot-width step, past t = isqrt(order - 1), at orders 1, 2
    t_step, step = WIDTH_STEPS[a]
    assert _dp_slot_bits(a, t_step, step + 1) == _dp_slot_bits(a, t_step, step) + 8
    cases = ((t_step, step), (t_step, step + 1), (6, 17), (0, 1), (3, 1), (1, 2), (4, 2))
    for t_max, order in cases:
        rows = direct_utilde(a, t_max, order)
        assert len(rows) == t_max + 1 and all(r.order == order for r in rows)
        assert [r.coeffs for r in rows] == [r.coeffs for r in powersum_utilde(a, t_max, order)]
        for t in range(t_max + 1):
            for n in range(max(order - 2, 0), order):
                assert rows[t].coeff(n) == oracle_modd(a, t, n), (a, t, n)
    rows = direct_utilde(a, 6, 17)            # isqrt(16) = 4
    assert rows[5].is_zero() and rows[6].is_zero()


@pytest.mark.parametrize("a", [-2, -1, 0, 1, 2])
def test_dp_slot_bits_hold_every_coefficient(a):
    # the majorant's width holds each returned coefficient with its sign
    for t_max, order in ((5, 800), (10, 400), (12, 300), (3, 41), (2, 12), (4, 2), (0, 1)):
        rows = direct_utilde(a, t_max, order)
        need = max(max(map(abs, r.coeffs)).bit_length() for r in rows) + 1
        bits = _dp_slot_bits(a, t_max, order)
        assert bits % 8 == 0 and bits >= need, (t_max, order, bits, need)


def test_powersum_matches_direct():
    # at order 1001 every a folds its small parts through chains of three or
    # more steps and its large ones through a shift alone
    for a in (-2, -1, 0, 1, 2):
        for t_max, order in ((5, 400), (6, 1001)):
            want = direct_utilde(a, t_max, order)
            got = powersum_utilde(a, t_max, order)
            assert len(got) == t_max + 1
            for t in range(t_max + 1):
                assert got[t].coeffs == want[t].coeffs, (a, t, order)


def test_powersum_small_orders_and_zero_rows():
    # every order to 64 meets each (part, room) edge where a part's chain
    # gains a step, and at t <= 8 every row that is nonzero there
    for a in (-2, -1, 0, 1, 2):
        for order in range(1, 65):
            want = [r.coeffs for r in direct_utilde(a, 8, order)]
            assert [r.coeffs for r in powersum_utilde(a, 8, order)] == want, (a, order)
    rows = powersum_utilde(1, 4, 9)           # t^2 >= 9 for t = 3, 4
    assert rows[3].is_zero() and rows[4].is_zero() and rows[3].order == 9


def test_powersum_argument_guards():
    for bad in ((3, 2, 10), (-3, 2, 10), (0, -1, 10), (0, 2, 0), (0, 2, -5)):
        with pytest.raises(ValueError):
            powersum_utilde(*bad)


NEED_A = "need a in (-2, -1, 0, 1, 2), got 3"


@pytest.mark.parametrize("route, args, message", [
    (route, args, message)
    for route, (t_name, n_name, n_bad, n_least) in {
        direct_utilde: ("t_max", "order", 0, 1), powersum_utilde: ("t_max", "order", 0, 1),
        oracle_modd: ("t", "n", -1, 0), modd_direct: ("t", "n", -1, 0),
        modd_powersum: ("t", "n", -1, 0),
    }.items()
    for args, message in (((3, 2, 10), NEED_A),
                          ((0, -1, 10), f"{t_name} must be >= 0"),
                          ((0, 2, n_bad), f"{n_name} must be >= {n_least}"))
], ids=lambda x: getattr(x, "__name__", None))
def test_route_guards_refuse_bad_arguments(route, args, message):
    # the CLI's -a choices keep a = 3 from every route, so only these calls
    # run the checks
    with pytest.raises(ValueError) as err:
        route(*args)
    assert str(err.value) == message


def test_explicit_matches_direct():
    for a in (-2, 0, 1):
        rows = direct_utilde(a, 5, 300)
        for t in range(6):
            assert explicit_utilde(a, t, 300).eq(rows[t]), (a, t)


def test_explicit_matches_powersum_past_the_kronecker_threshold():
    # past order 48**2 the theta series has more than 48 nonzero terms, so
    # the closed form is held to the power sums on a long, dense convolution
    order = 3000
    for a in (-2, 0, 1):
        rows = powersum_utilde(a, 5, order)
        for t in range(6):
            assert explicit_utilde(a, t, order).coeffs == rows[t].coeffs, (a, t)


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


def test_transfer_across_a():
    # if m | a - a', then 1 + a q^n + q^2n = 1 + a' q^n + q^2n mod m, and
    # unit inverses and elementary symmetric functions keep that, so
    # U~_t(a) = U~_t(a') mod m; no pair of a is congruent mod m*p for a
    # prime p | m, and some row says so
    rows = {a: [r.coeffs for r in powersum_utilde(a, 5, 1000)] for a in DP_AS}
    pairs = [(a, b) for a in DP_AS for b in DP_AS if b - a >= 2]
    assert len(pairs) == 6
    for a, b in pairs:
        m = b - a
        diffs = [u - v for ra, rb in zip(rows[a], rows[b]) for u, v in zip(ra, rb)]
        assert all(d % m == 0 for d in diffs), (a, b)
        for p in filter(is_prime, range(2, m + 1)):
            if m % p == 0:
                assert any(d % (m * p) for d in diffs), (a, b, m * p)


@pytest.mark.parametrize("t", [13, 40, 26, 53])
def test_transfer_mod3_on_the_swept_closed_forms(t):
    # the a=1 m_odd congruences mod 3 are the a=-2 ones transferred, at the
    # t of v1-mod3-13 / vm2-10 (27J+13) and v1-mod3-26 / vm2-11 (27J+26)
    args = list(range(20001))
    one = modd_explicit_batch(1, t, args, mod=3)
    minus_two = modd_explicit_batch(-2, t, args, mod=3)
    assert all((u - v) % 3 == 0 for u, v in zip(one, minus_two, strict=True)), t
    assert sum(u % 3 != 0 for u in one) >= 10000, t


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
    with pytest.raises(ValueError, match="nmax"):
        riordan_series(1, 3, -1)


def test_riordan_recurrence_matches_series_division():
    # the Gegenbauer recurrence against the exact division by the
    # (2t+3)-term denominator, below, at and past the leading exponent t
    for a in (-2, -1, 0, 1, 2):
        for t in (0, 1, 2, 3, 31, 127):
            den = Poly([1, -a, 1]) ** (t + 1)
            for nmax in sorted({0, 1, t - 1, t, t + 1, 400} - {-1}):
                want = series_of_rational(Poly([0] * t + [1, 0, -1]), den, nmax + 1)
                got = riordan_series(a, t, nmax)
                assert got.order == nmax + 1 and got.coeffs == want.coeffs, (a, t, nmax)


def test_binomial_columns_match_binomial_c():
    # the Gegenbauer-difference columns against one math.comb per entry,
    # short columns included (n_top below, at and just past the first
    # nonzero n)
    for a in (-2, 0):
        for t in (0, 1, 2, 3, 7, 31, 127):
            for n_top in sorted({0, 1, t, t + 1, 400}):
                want = [0] + [_binomial_c(a, t, n) for n in range(1, n_top + 1)]
                assert coeff_column(a, t, n_top) == want, (a, t, n_top)


def test_coeff_columns_are_their_generating_functions():
    # a = 0: (z^(t+1) - z^(t+2)) / (1 + z)^(2t+2); a = 1, -2: the Riordan
    # array with c_0 set to 0; against the exact series division
    for t in (0, 1, 2, 3, 31, 127):
        den = Poly([1, 1]) ** (2 * t + 2)
        for n_top in sorted({0, 1, t, t + 1, t + 2, 400}):
            want = series_of_rational(Poly([0] * (t + 1) + [1, -1]), den, n_top + 1)
            assert coeff_column(0, t, n_top) == list(want.coeffs), (t, n_top)
            for a in (1, -2):
                want = [0] + list(riordan_series(a, t, n_top).coeffs[1:])
                assert coeff_column(a, t, n_top) == want, (a, t, n_top)


def test_huge_t_columns_allocate_nothing(capped_python):
    # riordan_series used to build t leading zeros before it cut the
    # expansion to nmax+1 entries: a MemoryError at t = 10^9
    code = ("from qlab.macmahon import coeff_column, riordan_series\n"
            "for a in (-2, -1, 0, 1, 2):\n"
            "    assert riordan_series(a, 10**9, 5).coeffs == (0,) * 6, a\n"
            "for a in (-2, 0, 1):\n"
            "    assert coeff_column(a, 10**9, 5) == [0] * 6, a\n")
    proc = capped_python("-c", code)
    assert proc.returncode == 0, proc.stderr


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
    # the a=0 odd case: W_t read on 4n+1
    for t in (0, 1, 3):
        want = _per_entry_convolution(0, t, args, pref_m2)
        assert want == [w_series(t, 400).coeff(x) for x in args], t
        odd = [4 * x + 1 for x in args]
        assert modd_explicit_batch(0, 2 * t + 1, odd) == want, t


def test_closed_form_record_reads_the_dp():
    # each field read by hand: the prefactor the record names times the
    # per-entry c_n(a', t') theta series, on x = stride*y + offset, is the
    # DP's U~_t(a; q), and every other x reads 0
    order = 300
    for a in (-2, 0, 1):
        rows = direct_utilde(a, 8, order)
        for t in range(1, 9):
            name, stride, offset, a_c, t_c = closed_form(a, t)
            ys = list(range((order - 1 - offset) // stride + 1))
            got = _per_entry_convolution(a_c, t_c, ys, PREFACTORS[name](order).coeffs)
            assert got == [rows[t].coeff(stride * y + offset) for y in ys], (a, t)
            assert not any(rows[t].coeff(x) for x in range(order) if x % stride != offset)
    assert closed_form(0, 6) == ("overpartition", 4, 0, -2, 3)
    assert closed_form(0, 7) == ("overpartition", 4, 1, 0, 3)


def test_negative_t_is_rejected_for_every_argument():
    # one gate: a negative t used to pass wherever no argument reached a
    # c_n column, e.g. a=0, t=-2 read 0 at every x not divisible by 4
    for a in (-2, 0, 1):
        for args in ([], [0], [5], [8], range(20)):
            with pytest.raises(ValueError, match=">= 0"):
                modd_explicit_batch(a, -2, args)
        with pytest.raises(ValueError, match=">= 0"):
            closed_form(a, -1)
    for a in (-1, 2, 3):
        with pytest.raises(UnsupportedA):
            closed_form(a, 1)
        with pytest.raises(UnsupportedA):
            modd_explicit_batch(a, -1, [])


def test_te_sum_matches_riordan():
    for a in (-2, -1, 0, 1, 2):
        for t in range(1, 9):
            rs = riordan_series(a, t, 40)
            for n in range(t, 41):
                assert te_sum(a, t, n) == rs.coeff(n), (a, t, n)


def test_riordan_examples():
    assert riordan_series(-2, 1, 2).coeff(2) == -4
    assert riordan_series(1, 1, 2).coeff(2) == 2
    for a in (-2, 0, 1):
        for t in (1, 2, 3):
            assert riordan_series(a, t, t).coeff(t) == 1


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
    # te_sum takes any integer a; its ratio carries a factor a + 2, which
    # is negative below a = -2
    for a in range(-4, 4):
        for n in range(1, 13):
            poly = two_te_quarter_shift(n, a + 2)
            for t in range(n + 1):
                assert poly.coeff(t) == te_sum(a, t, n), (a, n, t)


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
    with pytest.raises(UnsupportedA):       # a is checked before t
        explicit_utilde(-1, -1, 10)
    for bad in ((1, -1, 10), (1, 2, 0)):
        with pytest.raises(ValueError):
            explicit_utilde(*bad)
    with pytest.raises(ValueError):
        w_series(-1, 10)
    # an order below 1 is refused as explicit_utilde refuses it
    for order in (0, -5):
        with pytest.raises(ValueError, match="order must be >= 1"):
            w_series(0, order)


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
            # without a prefactor the batch builds it reduced mod `mod`
            assert modd_explicit_batch(a, t, args, mod=mod) == got, (mod, a, t)


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
