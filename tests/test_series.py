"""Series/Poly kernel: exactness, order propagation, ring laws."""

import random
import time
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qlab import series
from qlab.series import (
    BadResidue,
    NonUnitConstant,
    OutOfRange,
    Poly,
    Series,
    _BLOCK,
    _bias,
    _conv_terms,
    _div_terms,
    _mul_kronecker,
    _pack,
    _pack_signed,
    _slot_width,
    _terms_of,
    _unpack,
    _unpack_signed,
    poly_pow_mod,
    series_of_rational,
)
from qlab.special import eta, overpartition_gf, prefactor_a
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
    assert q.coeff(0) == 0
    with pytest.raises(OutOfRange):
        q.coeff(5)
    with pytest.raises(OutOfRange):
        q.coeff(-1)
    a = direct_utilde(-2, 2, 300)[2]
    b = direct_utilde(1, 2, 300)[2]
    c = direct_utilde(0, 3, 300)[3]
    d = direct_utilde(-2, 3, 300)[3]
    assert a.eq_mod(b, 3)
    assert d.eq_mod(c, 2)
    assert not a.eq(b)
    assert a.eq_mod(a, 0)


def test_truncate():
    s = S(1, 2, 3, 4)
    assert s.truncate(2).coeffs == (1, 2)
    with pytest.raises(OutOfRange):
        s.truncate(5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Series.from_terms([(-1, 1)], 4)
    with pytest.raises(AttributeError):
        S(1).order = 5
    # the order is the coefficient count, not a second stored field
    assert Series.__slots__ == ("coeffs",)
    assert S(1, 2, 3).order == 3 and Series([]).order == 0


# -- polynomials --------------------------------------------------------

def test_poly_basics():
    p = Poly([1, 2, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly().is_zero()
    assert (Poly([1, 1]) * Poly([1, -1])).coeffs == (1, 0, -1)
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
    assert _mul_kronecker(xs, ys, order) == naive_mul(xs, ys, order)


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


# -- the product kernel against the naive double loop -----------------

K = 48


@st.composite
def operands(draw, max_len=3 * K):
    """Coefficient lists with 0, 1, K-1, K, K+1 or all entries nonzero, each
    nonzero entry signed and of 1 to 4 bits or 70 to 75 bits."""
    length = draw(st.integers(0, max_len))
    nnz = min(length, draw(st.sampled_from([0, 1, K - 1, K, K + 1, length])))
    big = draw(st.booleans())
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    cs = [0] * length
    for i in rnd.sample(range(length), nnz):
        size = rnd.randrange(2 ** 70, 2 ** 75) if big and rnd.random() < 0.5 else rnd.randrange(1, 10)
        cs[i] = rnd.choice((1, -1)) * size
    return cs


_WIDE = random.Random(400)
THREE_TERMS = [0] * 40
THREE_TERMS[0], THREE_TERMS[7], THREE_TERMS[39] = 1, -3, 2
WIDE_COEFFS = [_WIDE.choice((1, -1)) * (1 << 399 | _WIDE.getrandbits(399)) for _ in range(300)]


@settings(max_examples=150, deadline=None)
@given(operands(), operands(), st.integers(0, 7 * K))
@example(THREE_TERMS, WIDE_COEFFS, 340)     # a sparse operand times 400-bit coefficients
def test_product_entry_matches_double_loop(xs, ys, order):
    # sparse*sparse, sparse*dense and dense*dense, zero and empty operands,
    # unequal lengths, orders below and past both lengths
    want = naive_mul(xs, ys, order)
    assert series._mul_kronecker(xs, ys, order) == want
    assert series._mul_kronecker(tuple(xs), tuple(ys), order) == want
    n = min(len(xs), len(ys))
    assert (Series(xs) * Series(ys)).coeffs == tuple(naive_mul(xs, ys, n))
    full = naive_mul(xs, ys, len(xs) + len(ys))
    assert (Poly(xs) * Poly(ys)).coeffs == Poly(full).coeffs


def naive_pow_mod(cs, e, m):
    out = [1 % m]
    for _ in range(e):
        out = [c % m for c in naive_mul(out, cs, len(out) + len(cs))]
    return Poly(out)


@settings(max_examples=40, deadline=None)
@given(operands(max_len=K + 4), st.integers(0, 8), st.sampled_from([2, 8, 2 ** 12]))
def test_poly_pow_mod_matches_repeated_double_loop(cs, e, m):
    assert poly_pow_mod(Poly(cs), e, m) == naive_pow_mod(cs, e, m)


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


def packed_widths(fn, *args):
    """fn(*args), and the slot width in bits of every ``_pack`` and
    ``_unpack`` that `series` runs meanwhile.

    The residue division packs G and the carry chunks; its scalar loop
    packs nothing, so an empty set means no coefficient was packed.
    """
    widths = set()
    pack, unpack = series._pack, series._unpack

    def pack_spy(values, size):
        widths.add(8 * size)
        return pack(values, size)

    def unpack_spy(x, size, n):
        widths.add(8 * size)
        return unpack(x, size, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_pack", pack_spy)
        mp.setattr(series, "_unpack", unpack_spy)
        return fn(*args), widths


# the slot widths the divisor below takes, by modulus: its far weights sum
# to 440 on the heavier sign, so the carry bound is (M-1) * 441, and
# G = 1/(1 - q^2) sums to 256, so its bound is (M-1) * 257; each takes the
# narrowest whole number of bytes above its bound
SLOT_WIDTH_PATHS = {
    192: {16, 24},                  # 16-bit G, 24-bit carry slots
    3 * 2 ** 20 + 1: {32},          # 32-bit G and carry slots
    2 ** 61 - 1: {72},              # 72-bit G and carry slots
}


@pytest.mark.parametrize("mod, lo, hi", [
    (192, 0, 2 ** 32),              # 16-bit G, 24-bit carry slots
    (3 * 2 ** 20 + 1, 2 ** 32, 2 ** 64),   # 32-bit G and carry slots
    (2 ** 61 - 1, 2 ** 64, None),   # past 64 bits: 72-bit G and carry slots
])
def test_blocked_residue_division_slot_widths(mod, lo, hi):
    dterms = [(0, 1), (2, -1)] + [(B + 37 * k, (-1) ** k * (k + 2)) for k in range(40)]
    bound = _slot_bound(dterms, mod)
    assert bound >= lo and (hi is None or bound < hi)
    u = [3, -1, 4, 1, -5, 9]
    exact = naive_div(u, dterms, EDGE_ORDER)
    got, widths = packed_widths(_div_terms, u, dterms, EDGE_ORDER, mod)
    assert got == [c % mod for c in exact]
    assert widths == SLOT_WIDTH_PATHS[mod]


@pytest.mark.parametrize("mod, widths", [
    (2 ** 17 + 1, {24, 48}),        # no 16-bit chunk holds a term; G on 48 bits
    (3 * 2 ** 20 + 1, {32, 56}),    # 32-bit chunks, G on 56 bits
    (2 ** 61 - 1, {72, 136}),       # past 64 bits: 72-bit chunks, G on 136 bits
])
def test_residue_division_wide_moduli(mod, widths):
    u = NUMERATORS["long"]
    exact = naive_div(u, EDGE_DIVISOR, EDGE_ORDER)
    got, seen = packed_widths(_div_terms, u, EDGE_DIVISOR, EDGE_ORDER, mod)
    assert got == [c % mod for c in exact]
    assert seen == widths


def test_residue_division_splits_chunks():
    # mod 192 a 16-bit chunk holds weights summing to 342: the 511 terms of
    # weight +2 run in three chunks, the 128 terms of weight -1 in one
    dterms = sorted([(0, 1)] + [(e, 2) for e in range(1, 3 * B, 3)]
                    + [(e, -1) for e in range(2, 3 * B, 12)])
    u = NUMERATORS["long"]
    got, seen = packed_widths(_div_terms, u, dterms, EDGE_ORDER, 192)
    assert got == [c % 192 for c in naive_div(u, dterms, EDGE_ORDER)]
    assert 16 in seen


def test_prefactor_takes_the_packed_route():
    # psi(q) has weights +-1: 16-bit carry chunks, and 1/psi mod 192 sums
    # to 47899, so G takes 24-bit slots; the division by f2 at order 342
    # runs the scalar loop
    order = 2 * B + 1
    got, seen = packed_widths(prefactor_a, order, 192)
    assert seen == {16, 24}
    assert got.coeffs == tuple(c % 192 for c in prefactor_a(order).coeffs)


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


# -- the one slot rule: whole bytes, no scalar fallback on residues ---------

@pytest.mark.parametrize("mod, width", [
    (1, 8),                         # bound 0: nothing to hold, still one byte
    (2 ** 16, 16),                  # bound 2**16 - 1
    (2 ** 16 + 1, 24),              # bound 2**16
    (2 ** 64 + 1, 72),              # bound 2**64
])
def test_slot_width_is_the_narrowest_whole_byte_count(mod, width):
    # with no weights the bound is mod - 1
    assert _slot_width(mod, []) == width


RESIDUE_MODS = [1, 3, 192, 1728, 2 ** 31 + 11, 2 ** 61 - 1, 2 ** 64 + 13]


@pytest.mark.parametrize("mod", RESIDUE_MODS)
def test_residue_kernels_never_run_the_scalar_loop(mod):
    # past one block the division solves only G, at order B, by the scalar
    # recurrence; every quotient coefficient comes from packed slots, and
    # the convolution packs on every modulus
    u = NUMERATORS["long"]
    orders = []
    divide = series._div_terms

    def div_spy(u, dterms, order, mod=0):
        orders.append(order)
        return divide(u, dterms, order, mod)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_div_terms", div_spy)
        quot, seen = packed_widths(div_spy, u, EDGE_DIVISOR, EDGE_ORDER, mod)
    assert orders == [EDGE_ORDER, B]
    assert seen
    assert quot == [c % mod for c in naive_div(u, EDGE_DIVISOR, EDGE_ORDER)]
    terms = [(0, 1), (2, -3), (5, 2 ** 70 + 1), (B + 3, -1)]
    args = list(range(7, EDGE_ORDER, 5))
    conv, seen = packed_widths(_conv_terms, u, terms, args, mod)
    assert seen
    assert conv == naive_conv(u, terms, args, mod)
    if mod == 1:
        assert set(quot) == set(conv) == {0}


# -- the one slot format ------------------------------------------------

@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 9, 17])
def test_pack_unpack_round_trip(size):
    rnd = random.Random(size)
    top = 256 ** size - 1
    for values in ([], [0], [top], [0, top, 0], [top] * 5,
                   [rnd.randrange(top + 1) for _ in range(40)]):
        x = _pack(values, size)
        assert x == sum(v << 8 * size * i for i, v in enumerate(values))
        assert list(_unpack(x, size, len(values))) == values
        assert list(_unpack(x + (7 << 8 * size * len(values)), size, len(values))) == values


def bytes_pack(values, size):
    """The slot format entry by entry: value i in bytes i*size .. (i+1)*size-1."""
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")


@pytest.mark.parametrize("size", [3, 5, 6, 7])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_odd_slot_sizes_match_the_byte_format(size, n):
    # sizes without an array code of their own go through a wider array
    rnd = random.Random(size * n)
    top = 256 ** size - 1
    for values in ([0] * n, [top] * n,
                   [rnd.choice((0, top, rnd.randrange(top + 1))) for _ in range(n)]):
        x = _pack(values, size)
        assert x == bytes_pack(values, size)
        assert list(_unpack(x, size, n)) == values
        assert list(_unpack(x + (top << 8 * size * n), size, n)) == values


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 9, 17])
def test_signed_pack_round_trip(size):
    top = 2 ** (8 * size - 1) - 1
    for values in ([], [0], [top], [-top], [0, top, -top, 0], [-top] * 5):
        x = _pack_signed(values, size)
        assert x == sum(v << 8 * size * i for i, v in enumerate(values))
        assert _unpack_signed(x, size, len(values)) == values
        # slots above the n read change nothing
        assert _unpack_signed(x + (5 << 8 * size * len(values)), size, len(values)) == values


def test_bias_fills_each_slot_with_half():
    # built by doubling runs of slots: the closed form divided by a number
    # as wide as a slot, 1.5 s for the 67 slots of 12501 bytes that a
    # product with 2**100000 packs
    for size in (1, 2, 3, 8, 9, 17):
        for n in range(0, 70):
            half = 1 << 8 * size - 1
            assert _bias(size, n) == sum(half << 8 * size * i for i in range(n)), (size, n)
    start = time.perf_counter()
    assert _bias(12501, 67).bit_length() == 8 * 12501 * 67
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 9, 17])
def test_mul_kronecker_at_the_signed_extremes(size):
    # each operand is packed once, by _pack_signed
    top = 2 ** (8 * size - 1) - 1
    a, b = [top, -top, 0, -top, top], [-top, top, top]
    calls = []
    pack_signed = series._pack_signed

    def spy(values, size):
        calls.append(len(values))
        return pack_signed(values, size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_pack_signed", spy)
        got = _mul_kronecker(a, b, 7)
    assert got == naive_mul(a, b, 7)
    assert calls == [len(a), len(b)]


# -- the packed convolution against the scalar sums ---------------------

def naive_conv(u, terms, args, mod):
    """sum((c mod M) * (u[x - e] mod M) over e <= x) for each x, unreduced."""
    return [sum(c % mod * (u[x - e] % mod) for e, c in terms if e <= x) for x in args]


CONV_MODS = [1, 2, 3, 8, 192, 2 ** 31 + 11, 2 ** 40]
# (arg_mod, residues) of the a=0 families on the residue route: the closed
# form reads W at (n - 1) // 4 for the n = 1 mod 4 among them
QUARTER_SHAPES = [(36, (21, 33)), (16, (9, 13)), (16, (13,)), (32, (29,)), (108, (49,))]


@st.composite
def conv_args(draw, top):
    """The argument shapes the sweeps pass, each reaching at most `top`."""
    shape = draw(st.sampled_from(["one", "ends", "table", "progression", "two", "quarters"]))
    if shape == "one":
        return [draw(st.integers(0, top))]
    if shape == "ends":             # 0 and top among unsorted arguments
        rest = draw(st.lists(st.integers(0, top), max_size=6))
        return draw(st.permutations(rest + [0, top]))
    if shape == "table":            # VALUATION_TABLE order: residue by residue, x = 0 skipped
        m = draw(st.integers(1, 12))
        rs = draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
        args = [x for r in rs for x in range(r or m, top + 1, m)]
    elif shape == "progression":
        step = draw(st.integers(1, 40))
        args = list(range(draw(st.integers(0, step - 1)), top + 1, step))
    elif shape == "two":            # two residue classes whose differences have gcd 1
        m = draw(st.integers(2, 30))
        r = draw(st.integers(0, m - 1))
        d = draw(st.sampled_from([d for d in range(1, m) if gcd(d, m) == 1]))
        args = sorted({*range(r, top + 1, m), *range((r + d) % m, top + 1, m)})
    else:
        m, rs = draw(st.sampled_from(QUARTER_SHAPES))
        args = sorted((n - 1) // 4 for r in rs for n in range(r, 4 * top + 2, m))
    return args or [top]


@st.composite
def conv_cases(draw):
    mod = draw(st.sampled_from(CONV_MODS))
    top = draw(st.integers(0, 150))
    args = draw(conv_args(top))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    u = [rnd.randrange(mod) for _ in range(top + 1 + draw(st.integers(0, 5)))]
    exps = draw(st.lists(st.integers(0, top + 5), unique=True, max_size=25))
    terms = [(e, draw(big_coeffs)) for e in sorted(exps)]
    if draw(st.booleans()):         # one entry >= M: both routes read it mod M
        u[draw(st.integers(0, len(u) - 1))] = mod + 2 ** 64
    return u, terms, args, mod


@settings(max_examples=200, deadline=None)
@given(conv_cases())
def test_conv_terms_equals_the_scalar_sums(case):
    u, terms, args, mod = case
    assert _conv_terms(u, terms, args, mod) == naive_conv(u, terms, args, mod)


@pytest.mark.parametrize("mod, weight, width", [
    (192, 5, 16),                   # (M-1)(1 + 30*5) < 2**16
    (192, 191, 24),                 # (M-1)(1 + 30*191) < 2**24
    (2 ** 31 + 11, 5, 40),          # (M-1)(1 + 30*5) < 2**40
    (2 ** 40, 2 ** 39, 88),         # past 64 bits: (M-1)(1 + 30*2**39) < 2**88
])
def test_conv_terms_slot_widths(mod, weight, width):
    terms = [(3 * k, weight) for k in range(30)]
    assert _slot_width(mod, [w for _, w in terms]) == width
    u = [(7 ** k) % mod for k in range(120)]
    args = list(range(5, 120, 3))
    got, seen = packed_widths(_conv_terms, u, terms, args, mod)
    assert got == naive_conv(u, terms, args, mod)
    assert seen == {width}
    # every route reads u mod M: entries off [0, M), negative ones too, change nothing
    off = [v + mod * (k % 3 - 1) for k, v in enumerate(u)]
    assert _conv_terms(off, terms, args, mod) == _conv_terms(u, terms, args, mod)
    # one entry short: no route may read the missing row as a zero
    with pytest.raises(IndexError):
        _conv_terms(u[:max(args)], terms, args, mod)


def test_conv_terms_packs_reduced_columns_as_they_are():
    # args 1 mod 4 read four columns u[s::4] in one call: column 0 is
    # already in [0, M), column 1 holds M and a negative entry, column 2 an
    # entry >= 2**64, which no array slot holds unreduced, and column 3 a
    # negative entry alone
    mod = 192
    u = [(5 * k) % mod for k in range(90)]
    u[5], u[9] = mod, -5
    u[14] = 2 ** 64 + 3
    u[19] = -1
    terms = [(0, 1), (1, 7), (2, -3), (3, 2)]
    args = list(range(5, 90, 4))
    assert _conv_terms(u, terms, args, mod) == naive_conv(u, terms, args, mod)


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
