"""Series/Poly kernel: exactness, order propagation, ring laws."""

import pytest
from hypothesis import given, settings, strategies as st

from qlab import series
from qlab.series import (
    BadResidue,
    NonUnitConstant,
    OutOfRange,
    Poly,
    Series,
    _BLOCK,
    _div_terms,
    _mul_dense_terms,
    _mul_kronecker,
    _terms_of,
    coeff_at,
    eq_mod,
    poly_mul,
    poly_pow_mod,
    series_of_rational,
)
from qlab.special import eta, overpartition_gf
from qlab.macmahon import direct_utilde


def S(*coeffs):
    return Series(coeffs)


# -- independent reference: naive dict convolution ---------------------

def naive_mul(a, b, order):
    out = [0] * order
    for i, x in enumerate(a[:order]):
        if x:
            for j, y in enumerate(b[: order - i]):
                out[i + j] += x * y
    return out


def naive_div(u, dterms, order):
    """Exact quotient by the plain recurrence, divisor constant term +-1."""
    d = dict(dterms)
    lead = d.pop(0)
    r = []
    for n in range(order):
        acc = u[n] if n < len(u) else 0
        acc -= sum(c * r[n - e] for e, c in d.items() if e <= n)
        r.append(acc * lead)
    return r


def test_add_sub_neg_scale():
    assert (S(1, 1) + S(1, -1)).coeffs == (2, 0)
    assert (S(1, 1) - S(1, -1)).coeffs == (0, 2)
    assert (-Series.zero(4)).coeffs == (0, 0, 0, 0)
    assert S(1, 1, 1).scale(3).coeffs == (3, 3, 3)
    assert (2 * S(1, 2)).coeffs == (2, 4)


def test_mul_examples():
    assert (S(1, 1) * S(1, -1)).coeffs == (1, 0)
    prod = eta(1, 10) * eta(6, 10)
    assert prod.coeffs == (1, -1, -1, 0, 0, 1, -1, 2, 1, 0)


def test_mul_overpartition_theta_coefficient():
    # (f2/f1^2) * sum (-1)^(n+1) n^2 q^(n^2): coefficient of q^9 is 13
    order = 10
    theta = Series.from_terms([(n * n, (-1) ** (n + 1) * n * n) for n in (1, 2, 3)], order)
    prod = overpartition_gf(order) * theta
    assert prod.coeff(9) == 13


def test_mul_matches_naive_convolution():
    a = S(3, -1, 4, 1, -5, 9, 2, 6)
    b = S(-2, 7, 1, -8, 2, 8, 1, 8)
    assert (a * b).coeffs == tuple(naive_mul(a.coeffs, b.coeffs, 8))


def test_order_propagation():
    assert (S(1, 1, 1) + S(1, 1)).order == 2
    assert (S(1, 1, 1) * S(1, 1)).order == 2
    assert S(1, 2, 3).shift(2).order == 5
    assert S(1, 2, 3).substitute_power(4).order == 12
    assert S(0, 1, 0, 1, 0, 1).dissect(2, 0).order == 3
    assert S(0, 1, 0, 1, 0, 1, 0).dissect(2, 1).order == 3


def test_invert_geometric():
    assert S(1, -1, 0, 0, 0).invert().coeffs == (1, 1, 1, 1, 1)


def test_invert_eta_denominator():
    den = eta(2, 10) * eta(2, 10) * eta(3, 10)
    assert den.invert().coeffs == (1, 0, 2, 1, 5, 2, 12, 5, 24, 13)


def test_invert_involution():
    f1 = eta(1, 50)
    assert f1.invert().invert().eq(f1)


def test_invert_requires_unit_constant():
    with pytest.raises(NonUnitConstant):
        S(2, 1, 1).invert()
    with pytest.raises(NonUnitConstant):
        S(0, 1, 1).invert()
    with pytest.raises(NonUnitConstant):
        Series.zero(5).invert()


def test_div_terms_rejects_negative_modulus():
    with pytest.raises(ValueError, match="modulus"):
        _div_terms([1], [(0, 1), (1, -1)], 5, mod=-1)


def test_div_exact():
    num = eta(1, 40)
    den = eta(2, 40)
    q = num / den
    assert (q * den).eq(num)
    with pytest.raises(NonUnitConstant):
        num / S(3, *([0] * 39))


def test_shift():
    assert Series.one(1).shift(1).coeffs == (0, 1)
    assert Series.zero(3).shift(5).is_zero()
    w0q4 = direct_utilde(0, 1, 10)[1]
    assert w0q4.coeff(5) == 2  # q + 2q^5 + ...


def test_substitute_power():
    assert S(1, 1).substitute_power(4).coeffs == (1, 0, 0, 0, 1, 0, 0, 0)
    s = S(1, 2, 3)
    assert s.substitute_power(1) is s
    u = direct_utilde(-2, 1, 3)[1]
    assert u.substitute_power(4).coeff(8) == 2  # 2q^2 -> 2q^8


def test_substitute_negq():
    assert S(1, 1).substitute_negq().coeffs == (1, -1)
    s = S(5, -3, 2, 7)
    assert s.substitute_negq().substitute_negq().eq(s)


def test_negq_vs_direct_dp_sign_identity():
    # U~_1(-1, q) = -U~_1(1, -q)
    u_pos = direct_utilde(1, 1, 50)[1]
    u_neg = direct_utilde(-1, 1, 50)[1]
    assert u_pos.substitute_negq().eq(-u_neg)


def test_dissect():
    assert S(0, 1, 0, 1, 0, 1).dissect(2, 0).is_zero()
    u2 = direct_utilde(0, 2, 160)[2]
    u1 = direct_utilde(-2, 1, 40)[1]
    assert u2.dissect(4, 0).eq(u1)
    with pytest.raises(BadResidue):
        S(1, 2).dissect(2, 2)
    with pytest.raises(BadResidue):
        S(1, 2).dissect(2, -1)


def test_coeff_at_and_eq_mod():
    q = Series.one(2).shift(1)
    assert coeff_at(q, 0) == 0
    with pytest.raises(OutOfRange):
        q.coeff(5)
    with pytest.raises(OutOfRange):
        q.coeff(-1)
    a = direct_utilde(-2, 2, 300)[2]
    b = direct_utilde(1, 2, 300)[2]
    c = direct_utilde(0, 3, 300)[3]
    d = direct_utilde(-2, 3, 300)[3]
    assert eq_mod(a, b, 3)
    assert eq_mod(d, c, 2)
    assert not a.eq(b)
    assert eq_mod(a, a, 0)


def test_truncate():
    s = S(1, 2, 3, 4)
    assert s.truncate(2).coeffs == (1, 2)
    with pytest.raises(OutOfRange):
        s.truncate(5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Series([1, 2], order=3)
    with pytest.raises(ValueError):
        Series.from_terms([(-1, 1)], 4)
    with pytest.raises(AttributeError):
        S(1).order = 5


# -- polynomials --------------------------------------------------------

def test_poly_basics():
    p = Poly([1, 2, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly().is_zero()
    assert poly_mul(Poly([1, 1]), Poly([1, -1])).coeffs == (1, 0, -1)
    assert (Poly([0, 1]) ** 3).coeffs == (0, 0, 0, 1)
    assert Poly([1, 2, 1]).eval_at(3) == 16


def test_poly_pow_mod():
    # (1+z)^4 mod 4 = 1 + 2z^2 + z^4
    assert poly_pow_mod(Poly([1, 1]), 4, 4).coeffs == (1, 0, 2, 0, 1)
    assert poly_pow_mod(Poly([1, 1]), 5, 1).is_zero()
    with pytest.raises(ValueError):
        poly_pow_mod(Poly([1, 1]), 2, 0)


def test_series_of_rational():
    assert series_of_rational(Poly([1]), Poly([1, -1]), 5).coeffs == (1, 1, 1, 1, 1)
    # z(1-z)/(1+z)^3 = (z - z^3)/(1+z)^4: coefficient of z^2 is -4
    num = Poly([0, 1, 0, -1])
    den = Poly([1, 1]) ** 4
    assert series_of_rational(num, den, 10).coeff(2) == -4
    with pytest.raises(NonUnitConstant):
        series_of_rational(Poly([1]), Poly([2, 1]), 5)
    with pytest.raises(NonUnitConstant):
        series_of_rational(Poly([1]), Poly(), 5)


# -- property tests -----------------------------------------------------

coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_associative_commutative(xs, ys, zs):
    a, b, c = Series(xs), Series(ys), Series(zs)
    assert (a * b).eq(b * a)
    assert ((a * b) * c).eq(a * (b * c))


big_coeffs = st.one_of(st.integers(-9, 9), st.integers(-10**40, 10**40), st.just(0))


@settings(max_examples=150, deadline=None)
@given(st.lists(big_coeffs, max_size=40), st.lists(big_coeffs, max_size=40),
       st.integers(1, 50))
def test_mul_kronecker_matches_dense_loop(xs, ys, order):
    # signed entries up to 10**40, unequal lengths, operands longer or
    # shorter than `order`, empty and all-zero operands
    assert _mul_kronecker(xs, ys, order) == _mul_dense_terms(xs, _terms_of(ys), order)


def test_mul_kronecker_edge_cases():
    assert _mul_kronecker([0, 0, 0], [5, -7], 4) == [0, 0, 0, 0]
    assert _mul_kronecker([], [1], 2) == [0, 0]
    assert _mul_kronecker([-3, 8], [-2**70, 1], 1) == [3 * 2**70]


def test_mul_kronecker_slots_at_their_bound():
    # min(len) products of the largest magnitudes, all of one sign, fill a
    # slot to within a bit of its width; the sizes step the width through
    # every remainder mod 8, so rounding up to whole bytes hides no bit
    for bits in range(1, 21):
        big = 2**bits - 1
        for n in (1, 2, 3, 5, 8, 15, 16, 17, 31):
            for sign in (1, -1):
                a, b = [big] * n, [sign * big] * (n + 1)
                assert _mul_kronecker(a, b, 2 * n) == naive_mul(a, b, 2 * n), (bits, n, sign)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.sampled_from([1, -1]))
def test_unit_times_inverse_is_one(xs, lead):
    a = Series([lead] + xs)
    assert (a * a.invert()).eq(Series.one(a.order))


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, st.sampled_from([1, -1]), st.integers(1, 200))
def test_div_terms_mod_is_the_exact_quotient_reduced(num, den_tail, lead, mod):
    dterms = _terms_of([lead] + den_tail)
    exact = _div_terms(num, dterms, 12)
    assert _div_terms(num, dterms, 12, mod) == [c % mod for c in exact]


# -- the blocked residue route against the exact quotient --------------

B = _BLOCK
# terms at the block edges: a window that starts exactly on a block (B, 2B)
# reads the newest finished block alone; B-1 is the last near term and B+1
# the first window that straddles two blocks
EDGE_DIVISOR = [(0, 1), (1, -1), (3, 2), (B - 1, -1), (B, 1), (B + 1, -3),
                (2 * B, 5), (2 * B + 7, -1), (3 * B - 2, 1)]
EDGE_ORDER = 4 * B + 77          # several blocks, not a multiple of B
NUMERATORS = {
    "unit": [1],
    "short": [-7, 0, -(10 ** 40)],
    "long": [(-1) ** i * (10 ** 30 + i * i) for i in range(EDGE_ORDER + 50)],
}


@pytest.mark.parametrize("mod", [1, 2, 3, 192])
@pytest.mark.parametrize("lead", [1, -1])
@pytest.mark.parametrize("num", sorted(NUMERATORS))
def test_blocked_residue_division_at_block_edges(mod, lead, num):
    dterms = [(0, lead)] + EDGE_DIVISOR[1:]
    u = NUMERATORS[num]
    exact = naive_div(u, dterms, EDGE_ORDER)
    assert _div_terms(u, dterms, EDGE_ORDER) == exact
    assert _div_terms(u, dterms, EDGE_ORDER, mod) == [c % mod for c in exact]


def _slot_bound(dterms, mod):
    return (mod - 1) * (1 + sum(-c % mod for e, c in dterms if e >= B))


@pytest.mark.parametrize("mod, lo, hi", [
    (192, 0, 2 ** 32),              # 32-bit slots
    (3 * 2 ** 20 + 1, 2 ** 32, 2 ** 64),   # the 32-bit bound fails: 64-bit slots
    (2 ** 61 - 1, 2 ** 64, None),   # both fail: the scalar recurrence
])
def test_blocked_residue_division_slot_widths(mod, lo, hi):
    dterms = [(0, 1), (2, -1)] + [(B + 37 * k, (-1) ** k * (k + 2)) for k in range(40)]
    bound = _slot_bound(dterms, mod)
    assert bound >= lo and (hi is None or bound < hi)
    u = [3, -1, 4, 1, -5, 9]
    exact = naive_div(u, dterms, EDGE_ORDER)
    assert _div_terms(u, dterms, EDGE_ORDER, mod) == [c % mod for c in exact]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 30), st.integers(-4, 4)), max_size=8),
       st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1, max_size=50),
       st.sampled_from([1, -1]), st.integers(1, 200), st.integers(0, 45))
def test_blocked_residue_division_small_blocks(tail, num, lead, mod, order):
    # blocks of 4 put most divisor terms far and most orders mid-block
    dterms = _terms_of([lead] + [sum(c for e, c in tail if e == k) for k in range(1, 31)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_BLOCK", 4)
        got = _div_terms(num, dterms, order, mod)
    assert got == [c % mod for c in naive_div(num, dterms, order)]


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.integers(1, 5))
def test_dissect_inverts_substitute_power(xs, m):
    s = Series(xs)
    assert s.substitute_power(m).dissect(m, 0).eq(s)
    assert s.substitute_power(m).dissect(m, 0).order == s.order


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_negq_dissection_parity(xs):
    s = Series(xs)
    t = s.substitute_negq()
    assert t.substitute_negq().eq(s)
    if s.order > 1:
        assert t.dissect(2, 1).eq(-s.dissect(2, 1))
        assert t.dissect(2, 0).eq(s.dissect(2, 0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=6),
       st.lists(st.integers(-5, 5), max_size=5))
def test_series_of_rational_satisfies_equation(num_tail, den_tail):
    num = Poly(num_tail)
    den = Poly([1] + den_tail)
    order = 12
    s = series_of_rational(num, den, order)
    den_series = Series(list(den.coeffs) + [0] * (order - len(den.coeffs)))
    num_series = Series(list(num.coeffs[:order]) + [0] * max(0, order - len(num.coeffs)))
    assert (s * den_series).eq(num_series)
