"""Named series constructors against independent counting oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from qlab import special
from qlab.series import _BLOCK, Series, _div_terms
from qlab.special import (
    borwein_a,
    borwein_b,
    eta,
    eta_inv,
    eta_product,
    eta_quotient,
    overpartition_gf,
    pentagonal_terms,
    pgen,
    phi,
    prefactor_a,
    psi,
    psi_terms,
)
from qlab.qexpr import evaluate_text


# -- independent oracles ------------------------------------------------

def partitions_into(parts, n):
    """Number of partitions of each 0..n into parts from `parts` (DP)."""
    ways = [1] + [0] * n
    for p in parts:
        for k in range(p, n + 1):
            ways[k] += ways[k - p]
    return ways


def lattice_form_counts(order):
    """Brute-force counts of m^2+mn+n^2 = k with a provably safe box."""
    bound = 1
    while 3 * bound * bound // 4 <= order:  # form >= 3*max(m,n)^2/4
        bound += 1
    out = [0] * order
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            v = m * m + m * n + n * n
            if v < order:
                out[v] += 1
    return out


def test_eta_pentagonal_support():
    assert eta(1, 9).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0)
    assert eta(6, 7).coeffs == (1, 0, 0, 0, 0, 0, -1)
    assert eta(3, 1).coeffs == (1,)


def test_term_lists_reject_nonpositive_scales():
    # every exponent of a scale-0 (or negative) term list lies below any
    # order, so the lists would grow without end
    for scale in (0, -2):
        with pytest.raises(ValueError, match="scale"):
            pentagonal_terms(scale, 10)
        with pytest.raises(ValueError, match="scale"):
            psi_terms(scale, 10)
    with pytest.raises(ValueError, match="scale"):
        eta(0, 10)
    with pytest.raises(ValueError, match="scale"):
        eta_inv(-1, 10)


def test_eta_is_rescaled_eta1():
    for r in (2, 3, 5, 8):
        big = eta(1, 40).substitute_power(r)
        assert eta(r, big.order).eq(big)


def test_eta_inv_counts_partitions():
    assert eta_inv(1, 6).coeffs == (1, 1, 2, 3, 5, 7)
    assert eta_inv(2, 5).coeff(4) == 2  # 4 = 2+2
    assert eta_inv(7, 1).coeffs == (1,)
    # against the DP oracle with all parts multiples of r
    for r in (1, 2, 3):
        want = partitions_into(range(r, 61, r), 60)
        assert list(eta_inv(r, 61).coeffs) == want


def test_eta_inverse_pairs():
    for r in (1, 2, 5):
        prod = eta(r, 200) * eta_inv(r, 200)
        assert prod.eq(Series.one(200))


def test_eta_quotient_examples():
    assert overpartition_gf(6).coeffs == (1, 2, 4, 8, 14, 24)
    assert prefactor_a(9).coeffs == (1, -1, 1, -1, 2, -3, 4, -5, 7)
    assert eta_quotient([], 5).eq(Series.one(5))


def plain_passes(u, factors, order):
    """u * prod f_r^e by one naive pass per unit of exponent, at full order."""
    out = list(u[:order]) + [0] * max(0, order - len(u))
    for r, e in factors:
        for _ in range(e):
            step = [0] * order
            for k, c in pentagonal_terms(r, order):
                for i in range(order - k):
                    step[i + k] += c * out[i]
            out = step
    for r, e in factors:
        for _ in range(-e):
            out = _div_terms(out, pentagonal_terms(r, order), order)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]),
       st.dictionaries(st.integers(1, 5), st.integers(-3, 3).filter(bool), min_size=1, max_size=3),
       st.lists(st.integers(-9, 9), max_size=12), st.booleans(), st.integers(1, 150))
def test_eta_product_reduces_a_shared_scale(g, exps, head, on_lattice, order):
    # f_(g*r)(q) = f_r(q^g): with every scale and every nonzero exponent of u
    # on the g-lattice the factors apply at order ceil(order/g) or below; an
    # entry of u at exponent 1 leaves nothing to reduce
    factors = [(g * k, e) for k, e in exps.items()]
    u = [0] * (g * len(head) + 2)
    u[:g * len(head):g] = head
    if not on_lattice:
        u[1] = 1
    orders = []

    def spy(scale, n):
        orders.append(n)
        return pentagonal_terms(scale, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "pentagonal_terms", spy)
        got = eta_product(u, factors, order)
    assert got == plain_passes(u, factors, order)
    if on_lattice:      # reduced by g or by a multiple of it
        assert max(orders) <= (order - 1) // g + 1
    else:
        assert set(orders) == {order}


@pytest.mark.parametrize("factors", [[(1, 40), (2, -3), (3, 2), (4, -300)],
                                     [(4, -300), (3, 2), (2, -3), (1, 40)]])
def test_eta_product_takes_factors_in_any_order(factors):
    # products, division passes and squarings interleave in the one factor loop;
    # every step is exact to the order, so the product is that of plain
    # Series arithmetic, repeated multiplications by f_r or 1/f_r
    order, u = 160, [3, 0, -1, 4]
    want = Series(u + [0] * (order - len(u)))
    for r, e in factors:
        unit = eta(r, order) if e > 0 else eta_inv(r, order)
        for _ in range(abs(e)):
            want = want * unit
    assert any(-special._MAX_PASSES <= e < 0 for _, e in factors)
    assert any(e < -special._MAX_PASSES for _, e in factors)
    assert eta_product(u, factors, order) == list(want.coeffs)


def test_eta_quotient_validation():
    with pytest.raises(ValueError):
        eta_quotient([(1, 2), (1, 1)], 10)
    with pytest.raises(ValueError):
        eta_quotient([(2, 0)], 10)
    with pytest.raises(ValueError):
        eta_quotient([(0, 1)], 10)


def test_prefactor_against_naive_convolution():
    # slow dict-based product of the four factors, fully independent
    order = 40

    def naive(a, b):
        out = [0] * order
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b[: order - i]):
                    out[i + j] += x * y
        return out

    def naive_inv(a):
        r = [0] * order
        for n in range(order):
            acc = (1 if n == 0 else 0) - sum(a[k] * r[n - k] for k in range(1, n + 1))
            r[n] = acc
        return r

    f = {r: list(eta(r, order).coeffs) for r in (1, 2, 3, 6)}
    num = naive(f[1], f[6])
    den = naive(naive(f[2], f[2]), f[3])
    want = naive(num, naive_inv(den))
    assert list(prefactor_a(order).coeffs) == want


def test_theta_forms_match_eta_quotients():
    # 1/phi(-q) and psi(q^3)/(psi(q) f6) against the eta forms they replace,
    # exactly, and reduced mod each modulus the sweeps use
    order = 20000
    for build, factors in ((overpartition_gf, [(2, 1), (1, -2)]),
                           (prefactor_a, [(1, 1), (6, 1), (2, -2), (3, -1)])):
        exact = build(order).coeffs
        assert exact == eta_quotient(factors, order).coeffs
        for mod in (192, 8, 3):
            assert build(order, mod).coeffs == tuple(c % mod for c in exact)


@pytest.mark.parametrize("build", [prefactor_a, overpartition_gf])
def test_residue_builders_at_block_edges(build):
    # orders around the residue division's blocks (3B - 1 .. 3B + 2 put
    # prefactor_a's division at a third of the order right on one), and
    # moduli from 1 up to 1728 = 2^6 * 3^3, against the exact series reduced
    B = _BLOCK
    orders = [1, B - 1, B, B + 1, 2 * B, 2 * B + 1,
              3 * B - 1, 3 * B, 3 * B + 1, 3 * B + 2, 3 * B + 77]
    exact = build(max(orders)).coeffs
    for order in orders:
        for mod in (1, 2, 3, 8, 192, 1728):
            assert build(order, mod).coeffs == tuple(c % mod for c in exact[:order]), (order, mod)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7, 1000, 3 * _BLOCK + 2])
def test_prefactor_divides_f2_at_a_third_of_the_order(order):
    # psi(q^3)/f6 = (psi(q)/f2)(q^3): one division by f2 at ceil(order/3),
    # one by psi(q) at the full order, and no division by f6
    calls = []

    def spy(u, dterms, n, mod=0):
        calls.append((list(dterms), n))
        return _div_terms(u, dterms, n, mod)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_div_terms", spy)
        got = prefactor_a(order, 192)
    third = -(-order // 3)
    assert calls == [(pentagonal_terms(2, third), third), (psi_terms(1, order), order)]
    assert got.coeffs == tuple(c % 192 for c in prefactor_a(order).coeffs)


@pytest.mark.parametrize("build", [prefactor_a, overpartition_gf])
def test_residue_builders_at_order_zero_and_below(build):
    for mod in (0, 192):
        empty = build(0, mod)
        assert (empty.order, empty.coeffs) == (0, ())
        with pytest.raises(ValueError, match="order must be >= 0"):
            build(-3, mod)


def test_overpartition_positive_even():
    coeffs = overpartition_gf(500).coeffs
    assert coeffs[0] == 1
    assert all(c > 0 and c % 2 == 0 for c in coeffs[1:])


def test_phi():
    assert phi(10).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)
    assert phi(10, -1).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2)
    assert phi(200, -1).eq(eta_quotient([(1, 2), (2, -1)], 200))
    with pytest.raises(ValueError):
        phi(10, 2)


def test_psi_pgen():
    assert psi(11).coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1)
    assert pgen(16).coeffs == (1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1)
    # psi(q) = P(q^3) + q psi(q^9)
    order = 300
    lhs = psi(order)
    rhs = pgen(100).substitute_power(3).truncate(order) + \
        psi(34).substitute_power(9).shift(1).truncate(order)
    assert lhs.eq(rhs)


def test_psi_squared_is_f2_4_over_f1_2():
    order = 300
    lhs = psi(order) * psi(order)
    rhs = eta_quotient([(2, 4), (1, -2)], order)
    assert lhs.eq(rhs)


def test_borwein_a_counts_lattice_points():
    assert borwein_a(5).coeffs == (1, 6, 0, 6, 6)
    assert list(borwein_a(120).coeffs) == lattice_form_counts(120)


def test_borwein_b():
    assert borwein_b(1).coeffs == (1,)
    order = 300
    lhs = borwein_b(order)
    rhs = borwein_a(100).substitute_power(3).truncate(order) - \
        eta_quotient([(9, 3), (3, -1)], order).shift(1).truncate(order).scale(3)
    assert lhs.eq(rhs)


def test_negq_substitution_identities():
    # f1(-q) = f2^3/(f1 f4) and f3(-q) = f6^3/(f3 f12); these justify the
    # even/odd-part fixtures for the prefactor 2-dissection
    order = 300
    assert eta(1, order).substitute_negq().eq(eta_quotient([(2, 3), (1, -1), (4, -1)], order))
    assert eta(3, order).substitute_negq().eq(eta_quotient([(6, 3), (3, -1), (12, -1)], order))
    a = prefactor_a(order)
    assert a.substitute_negq().eq(evaluate_text("f2*f3*f12/(f1*f4*f6^2)", order))
