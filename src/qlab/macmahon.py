"""MacMahon-type sums of divisors over distinct odd parts.

The central object is the generating function over partitions into t
distinct odd parts,

    U~_t(a; q) = sum_{n_1<...<n_t odd} prod_k q^{n_k} / (1 + a q^{n_k} + q^{2 n_k}),

whose q^n coefficient is written m_odd(a, t; n).  For |a| <= 2 each local
factor expands exactly over the integers, with coefficients d_m following a
Chebyshev-type recurrence.

Four independent evaluation routes are provided and cross-checked by the
test suite:

* ``direct_utilde``  -- dynamic program over the odd parts (any |a| <= 2),
  each part taken through the recurrence of its local factor (``_FOLD``);
* ``powersum_utilde`` -- divisor sums for the power sums of the local
  factors, then Newton's identities (any |a| <= 2);
* ``explicit_utilde`` -- closed form: an eta-quotient prefactor convolved
  with a theta-supported coefficient family c_n(a', t') (a in {-2, 0, 1}),
  read from ``modd_explicit_batch``, the convolution the sweeps use.
  ``closed_form(a, t)`` is the one record of each form: the prefactor's
  name in ``PREFACTORS``, the argument map, and (a', t'), which for a = 0
  is the a = -2 form at t/2 on 4N (even t) or W_u on 4N+1 (t = 2u+1);
* ``oracle_modd``    -- brute-force enumeration of the defining sum, the
  last part's multiplicity forced by what is left.

On top of these sit the coefficient families c_n(a, t), their Riordan-array
representation, and the even Chebyshev polynomials te_n used to derive them.
Batches of c_n(a, t) come from ``coeff_column`` in O(n) exact integer
steps for any t.  Every column is a difference of one Gegenbauer expansion
g of (1 - a' z + z^2)^-(t+1), by the recurrence ``riordan_series`` reads
too (``_gegenbauer``): for a = 1 and a = -2 (a' = a) it is the Riordan
array, c_n = g_(n-t) - g_(n-t-2); for a = 0 (a' = -2) it is
c_n = g_(n-t-1) - g_(n-t-2), the expansion of
(z^(t+1) - z^(t+2)) / (1 + z)^(2t+2).
The slow exact routes stay as oracles: ``te_sum`` (its summand carried
term to term by an exact ratio) and ``series_of_rational`` for the Riordan
array, ``_binomial_c`` for the binomial forms.
"""

from __future__ import annotations

from math import comb, isqrt
from operator import add

from .arith import exact_div
from .series import (Poly, Series, _conv_terms, _mul_kronecker, _unpack_signed,
                     series_of_rational)
from .special import overpartition_gf, prefactor_a


class UnsupportedA(ValueError):
    """The closed forms exist only for a in {-2, 0, 1}."""


DP_AS = (-2, -1, 0, 1, 2)
EXPLICIT_AS = (-2, 0, 1)


def local_factor_coeffs(a: int, mmax: int) -> list[int]:
    """d_0..d_mmax with q^n/(1+a*q^n+q^(2n)) = sum_m d_m q^(m*n).

    Recurrence d_m = -a*d_(m-1) - d_(m-2), d_0 = 0, d_1 = 1.  For |a| <= 2
    the roots of 1+a*x+x^2 lie on the unit circle and the d_m stay bounded
    (a = +-2 gives d_m = +-m up to sign; a = 0 and a = +-1 cycle).
    """
    if a not in DP_AS:
        raise ValueError(f"need a in {DP_AS}, got {a}")
    d = [0] * (mmax + 1)
    if mmax >= 1:
        d[1] = 1
    for m in range(2, mmax + 1):
        d[m] = -a * d[m - 1] - d[m - 2]
    return d


# a -> (c1, s, p, r) with X/(1 + a*X + X^2) = X*(1 + c1*X) / (1 - s*X^p)^r,
# s = +-1: each local factor as a short recurrence at X = q^n
_FOLD = {0: (0, -1, 2, 1), 1: (-1, 1, 3, 1), -1: (1, -1, 3, 1),
         2: (0, -1, 1, 2), -2: (0, 1, 1, 2)}


def _check_route_args(a: int, t: int, n: int, rows: bool = False) -> None:
    """The one argument check of the m_odd routes: a in DP_AS, then t >= 0,
    then n >= 0; a route that builds `rows` names them t_max and an order
    >= 1."""
    t_name, n_name, least = ("t_max", "order", 1) if rows else ("t", "n", 0)
    if a not in DP_AS:
        raise ValueError(f"need a in {DP_AS}, got {a}")
    if t < 0:
        raise ValueError(f"{t_name} must be >= 0")
    if n < least:
        raise ValueError(f"{n_name} must be >= {least}")


def direct_utilde(a: int, t_max: int, order: int) -> list[Series]:
    """U~_t(a; q) for t = 0..t_max by dynamic programming, exact to `order`.

    Processes the odd parts n in increasing order; for each, the local
    factor g_n = sum d_m q^(m*n) is folded into the partial sums S_t
    descending in t, S_t += S_(t-1) * g_n.  Since U~_t starts at q^(t^2),
    any t with t^2 >= order is identically zero at this truncation and is
    skipped.

    Each row S_t is one int for the whole run.  Evaluating at q = 2^W maps
    Z[q]/q^order into Z/2^(W*order) as a ring homomorphism, since q^order
    goes to 0, so a product by g_n is a few shifts and adds of whole rows.
    Each part goes through the recurrence of its local factor,
    g_n = X(1 + c1 X)/(1 - s X^p)^r at X = q^n, with (c1, s, p, r) from
    ``_FOLD``: a shift by X, then, as s^2 = 1, 1/(1 - s Y) =
    (1 + s Y)(1 + Y^2)(1 + Y^4)..., each factor one masked shift-add.  The
    chain stops where a shift passes the truncation, so the part costs
    O(log(order/n)) steps, and the parts together O(order) steps per row,
    each on an int of W*order bits.
    At the end each row is decoded once by ``series._unpack_signed``, which
    is exact when every coefficient c of the row has |c| < 2^(W-1).
    ``_dp_slot_bits`` takes W from the majorant |[q^n] U~_t| <= [q^n] h^t / t!,
    with h the sum of |d_m| q^(m*k) over odd k and m >= 1, computed without
    the DP.
    """
    _check_route_args(a, t_max, order, rows=True)
    c1, s, p, r = _FOLD[a]
    eff = min(t_max, isqrt(order - 1))
    width = _dp_slot_bits(a, eff, order)
    ring = (1 << width * order) - 1
    rows = [1] + [0] * eff
    reachable = 0
    for part in range(1, order, 2):
        # (shift, sign) steps, each a product by 1 + sign * 2^shift, that
        # take S_(t-1) * X to S_(t-1) * g_n; a shift past order - 1 - part
        # lands wholly beyond the truncation
        room = order - 1 - part
        chain = [(width * part, c1)] if c1 and part <= room else []
        for _ in range(r):
            e, sign = p * part, s
            while e <= room:
                chain.append((width * e, sign))
                e, sign = 2 * e, 1
        reachable = min(eff, reachable + 1)
        for t in range(reachable, 0, -1):
            v = rows[t - 1] << width * part
            for shift, sign in chain:
                v = (v + (v << shift) if sign > 0 else v - (v << shift)) & ring
            rows[t] = (rows[t] + v) & ring
    out = [Series(_unpack_signed(row, width // 8, order)) for row in rows]
    return out + [Series([0] * order) for _ in range(t_max - eff)]


def _dp_slot_bits(a: int, t_max: int, order: int) -> int:
    """Bits per slot, a multiple of 8, that hold every coefficient of
    U~_t(a; q) for t <= t_max below `order` with its sign.

    Write |g_k| = sum_m |d_m| q^(m*k) and h = sum over odd k of |g_k|.
    Coefficientwise, |[q^n] U~_t| = |[q^n] e_t(g)| <= [q^n] e_t(|g|) <=
    [q^n] h^t / t!: expanding h^t gives each product of t distinct |g_k|
    t! times, beside other terms that are all nonnegative.  The width is
    the bit length of the largest such bound over t, plus one for the
    sign, rounded up to whole bytes.  It is computed without the DP.
    """
    d = local_factor_coeffs(a, order - 1)
    h = [0] * order
    for k in range(1, order, 2):
        h[k::k] = [x + abs(y) for x, y in zip(h[k::k], d[1:])]
    bits, power, fact = 1, [1], 1         # t = 0: U~_0 = 1
    for t in range(1, t_max + 1):
        power = _mul_kronecker(power, h, order)
        fact *= t
        bits = max(bits, (max(power) // fact).bit_length())
    return (bits + 8) // 8 * 8             # one more bit for the sign, whole bytes


def powersum_utilde(a: int, t_max: int, order: int) -> list[Series]:
    """U~_t(a; q) for t = 0..t_max from power sums, exact to `order`.

    U~_t is the t-th elementary symmetric function e_t of the local factors
    g_n = q^n/(1+a*q^n+q^(2n)) over odd n.  Their power sums p_k = sum g_n^k
    are divisor sums, [q^N] p_k = sum over odd n | N of [x^(N/n)] h_k with
    h_k = x^k/(1+a*x+x^2)^k, and Newton's identities
    t*e_t = sum_{i=1..t} (-1)^(i-1) e_(t-i) p_i give e_t from them, each
    product with i < t one ``series._mul_kronecker`` (e_0 = 1 needs none)
    and the division by t checked exact.
    Rows with t^2 >= order are zero at this truncation, as in
    ``direct_utilde``.
    """
    _check_route_args(a, t_max, order, rows=True)
    eff = min(t_max, isqrt(order - 1))
    p = [None] + [_odd_power_sum(a, k, order) for k in range(1, eff + 1)]
    rows = [[1] + [0] * (order - 1)]
    for t in range(1, eff + 1):
        acc = p[t] if t % 2 else [-y for y in p[t]]     # i = t: e_0 = 1, no product
        for i in range(1, t):
            sign = 1 if i % 2 else -1
            acc = [x + sign * y for x, y in zip(acc, _mul_kronecker(rows[t - i], p[i], order))]
        rows.append(acc if t == 1 else [exact_div(c, t) for c in acc])
    rows += [[0] * order for _ in range(t_max - eff)]
    return [Series(r) for r in rows]


def _odd_power_sum(a: int, k: int, order: int) -> list[int]:
    """[q^0..q^(order-1)] of sum over odd n of g_n^k, by sieving h_k over n.

    g_n^k = h_k(q^n) and h_k starts at x^k, so part n adds [x^m] h_k at
    q^(m*n) for m >= k.
    """
    h = series_of_rational(Poly([0] * k + [1]), Poly([1, a, 1]) ** k, order).coeffs[k:]
    p = [0] * order
    for n in range(1, (order - 1) // k + 1, 2):
        p[n * k::n] = map(add, p[n * k::n], h)
    return p


def oracle_modd(a: int, t: int, n: int) -> int:
    """m_odd(a, t; n) by brute-force enumeration.

    Sums prod_k d_(m_k) over all 1 <= n_1 < ... < n_t odd and multiplicities
    m_k >= 1 with sum m_k n_k = n.  The first t - 1 parts and their
    multiplicities are enumerated; the last part's multiplicity is then
    forced, rem / n_t, so that part contributes only where it divides what
    is left.  Independent of the DP and closed-form code paths; only usable
    for small n.
    """
    _check_route_args(a, t, n)
    if t == 0:
        return 1 if n == 0 else 0
    if n < t * t:
        return 0
    d = local_factor_coeffs(a, n)

    total = 0

    def descend(parts_left: int, part: int, rem: int, weight: int):
        nonlocal total
        if parts_left == 1:
            for last in range(part, rem + 1, 2):
                if rem % last == 0:
                    total += weight * d[rem // last]
            return
        # smallest possible completion: part, part+2, ... (distinct odds)
        while part * parts_left + parts_left * (parts_left - 1) <= rem:
            m = 1
            while m * part <= rem:
                if d[m]:
                    descend(parts_left - 1, part + 2, rem - m * part, weight * d[m])
                m += 1
            part += 2

    descend(t, 1, n, 1)
    return total


# ---------------------------------------------------------------------
# Coefficient families and Chebyshev/Riordan machinery
# ---------------------------------------------------------------------


def coeff_c(a: int, t: int, n: int) -> int:
    """The theta-side coefficient c_n(a, t) of the closed forms.

    a = -2: (-1)^(n+t) * (2n/(n+t)) * C(n+t, 2t)          (weight at q^(n^2))
    a =  0: (-1)^(n-t-1) * ((2n-1)/(n+t)) * C(n+t, 2t+1)  (weight at q^(n(n-1)))
    a =  1: sum_{k=t}^n (-1)^(n-k) (2n/(n+k)) C(n+k,2k) C(k,t) 3^(k-t)
            (weight at q^(n^2))

    All three are exact integers; the divisions are checked.  For many n
    at once use ``coeff_column``.
    """
    _check_coeff_args(a, t)
    if n < 1:
        raise ValueError("n must be >= 1")
    if a == 1:
        return te_sum(1, t, n)
    return _binomial_c(a, t, n)


def coeff_column(a: int, t: int, n_top: int) -> list[int]:
    """[c_0, c_1, ..., c_(n_top)] of c_n(a, t); c_0 is not part of the
    family and reads 0.

    Each column is a difference of g = (1 - a' z + z^2)^-(t+1), expanded by
    ``_gegenbauer`` in O(n_top) exact integer steps for any t:

    * a = 1 and a = -2 (a' = a): c_n = g_(n-t) - g_(n-t-2), the Riordan
      lemma c_n = [z^n] (z^t - z^(t+2)) / (1 - a z + z^2)^(t+1) that
      ``riordan_series`` expands.  For a = -2, ``te_sum`` keeps only its
      k = t term, as (a+2)^(k-t) = 0 for k > t: the binomial closed form.
    * a = 0 (a' = -2): c_n = g_(n-t-1) - g_(n-t-2), so
      sum c_n(0, t) z^n = (z^(t+1) - z^(t+2)) / (1 + z)^(2t+2).  As
      g_j = (-1)^j C(j+2t+1, 2t+1) and
      C(n+t-1, 2t+1) = C(n+t, 2t+1) (n-t-1)/(n+t), the two terms sum to
      (-1)^(n-t-1) C(n+t, 2t+1) (2n-1)/(n+t), the closed form.

    The tests hold the columns against ``te_sum`` and ``_binomial_c``.
    """
    _check_coeff_args(a, t)
    if n_top < 0:
        raise ValueError("n_top must be >= 0")
    a_g, lead, lag = (-2, t + 1, 1) if a == 0 else (a, t, 2)
    column = _gegenbauer(a_g, t, lead, lag, n_top)
    column[0] = 0
    return column


def _check_coeff_args(a: int, t: int) -> None:
    if a not in EXPLICIT_AS:
        raise UnsupportedA(f"no closed form for a={a}")
    if t < 0:
        raise ValueError("t must be >= 0")


def _binomial_c(a: int, t: int, n: int) -> int:
    """c_n(a, t) for a = -2 or 0 from its closed form (n >= 1)."""
    if a == -2:
        q = exact_div(2 * n * comb(n + t, 2 * t), n + t)
        return q if (n + t) % 2 == 0 else -q
    q = exact_div((2 * n - 1) * comb(n + t, 2 * t + 1), n + t)
    return q if (n - t - 1) % 2 == 0 else -q


def te_sum(a: int, t: int, n: int) -> int:
    """sum_{k=t}^n (-1)^(n-k) (2n/(n+k)) C(n+k, 2k) C(k, t) (a+2)^(k-t).

    This is the coefficient of x^t in 2*te_n((x+a+2)/4); each summand is an
    exact integer.  Works for any integer a (0^0 = 1 covers a = -2).  The
    summand T(k) itself is carried by its ratio,
    T(k+1) = -T(k) (n+k)(n-k)(a+2) / (2(2k+1)(k+1-t)),
    one checked exact division per step, so a whole column of values stays
    cheap.
    """
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if n < t:
        return 0
    term = exact_div(2 * n * comb(n + t, 2 * t), n + t)
    if (n - t) % 2:
        term = -term
    total = term
    for k in range(t, n):
        term = exact_div(term * ((n + k) * (k - n) * (a + 2)), 2 * (2 * k + 1) * (k + 1 - t))
        if not term:
            break
        total += term
    return total


def riordan_series(a: int, t: int, nmax: int) -> Series:
    """(z^t - z^(t+2)) / (1 - a z + z^2)^(t+1) expanded to order nmax+1.

    With g = (1 - a z + z^2)^-(t+1) from ``_gegenbauer``, the z^n
    coefficient is g_(n-t) - g_(n-t-2), so the expansion takes O(nmax)
    steps for any t; ``series_of_rational`` on the same quotient is the
    test oracle.

    For n >= 1 the z^n coefficient is te_sum(a, t, n); at t = 0 that is
    2*T_n(a/2), since (1 - z^2)/(1 - a z + z^2) = (2 - a z)/(1 - a z + z^2) - 1.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return Series(_gegenbauer(a, t, t, 2, nmax))


def _gegenbauer(a: int, t: int, lead: int, lag: int, n_top: int) -> list[int]:
    """[z^0 .. z^n_top] of (z^lead - z^(lead+lag)) * g, that is
    g_(n-lead) - g_(n-lead-lag), for g = (1 - a z + z^2)^(-m), m = t+1.

    A Gegenbauer generating function: g_0 = 1, g_1 = a*m and
    n*g_n = a(n+m-1) g_(n-1) - (n+2m-2) g_(n-2), each division checked
    exact, for n up to n_top - lead.
    """
    m, size = t + 1, n_top - lead + 1
    g = [1, a * m][:max(size, 0)]
    for n in range(2, size):
        g.append(exact_div(a * (n + m - 1) * g[n - 1] - (n + 2 * m - 2) * g[n - 2], n))
    return [0] * min(lead, n_top + 1) + [x - y for x, y in zip(g, [0] * lag + g)]


def chebyshev_T(k: int) -> Poly:
    """Chebyshev polynomial of the first kind, T_k = 2y T_(k-1) - T_(k-2)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    prev, cur = Poly([1]), Poly([0, 1])
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, Poly([0, 2]) * cur - prev
    return cur


def te(n: int) -> Poly:
    """te_n(x) = T_(2n)(sqrt(x)): the even Chebyshev half, rewritten in x."""
    t2n = chebyshev_T(2 * n)
    return Poly([t2n.coeff(2 * j) for j in range(n + 1)])


def two_te_quarter_shift(n: int, shift: int) -> Poly:
    """2*te_n((x+shift)/4) as an exact integer polynomial in x.

    Clears denominators by 4^n, expands, and divides back out; every
    coefficient must come out integral.
    """
    base = te(n)
    acc = Poly()
    binom = Poly([shift, 1])
    power = Poly([1])
    for j in range(n + 1):
        cj = base.coeff(j)
        if cj:
            acc = acc + (2 * cj * 4 ** (n - j)) * power
        power = power * binom
    scale = 4 ** n
    return Poly([exact_div(c, scale) for c in acc.coeffs])


# ---------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------


# prefactor name -> its builder, called (order, mod) like every
# ``congruences.SweepCache`` entry
PREFACTORS = {"overpartition": overpartition_gf, "prefactor_a": prefactor_a}


def closed_form(a: int, t: int) -> tuple[str, int, int, int, int]:
    """(prefactor name, stride, offset, a', t') of U~_t(a; q) for t >= 1.

    m_odd(a, t; x) is 0 unless x = stride*y + offset, and there it is
    [q^y] of PREFACTORS[name] * sum_n c_n(a', t') q^(r(n)), with r(n) = n^2
    for a' in {-2, 1} and n(n-1) for a' = 0 (``theta_weight_terms``):

    * a = -2: the overpartition counts f2/f1^2, on every x;
    * a =  1: f1 f6/(f2^2 f3), on every x;
    * a =  0, even t = 2u: the a = -2 form at u, read on x = 4y;
    * a =  0, odd t = 2u+1: W_u(q) on x = 4y+1, the family c_n(0, u).

    U~_0(a; q) = 1, which no theta series gives.  Every closed-form reader
    goes through it, so it is their one check of a (UnsupportedA) and of
    t >= 0, shared with the c_n families.
    """
    _check_coeff_args(a, t)
    if a == 1:
        return "prefactor_a", 1, 0, 1, t
    if a == -2:
        return "overpartition", 1, 0, -2, t
    if t % 2 == 0:
        return "overpartition", 4, 0, -2, t // 2
    return "overpartition", 4, 1, 0, t // 2


def theta_weight_terms(a: int, t: int, order: int) -> list[tuple[int, int]]:
    """Nonzero terms of sum_n c_n(a,t) q^(r(n)) with r(n) = n^2 (a=-2,1)
    or n(n-1) (the a=0 odd-case family), truncated below `order`, in
    increasing exponent order.  One ``coeff_column`` call supplies every c_n.
    """
    _check_coeff_args(a, t)
    if a == 0:
        first, r = t + 1, lambda n: n * (n - 1)
    else:
        first, r = max(1, t), lambda n: n * n
    n_top = first - 1
    while r(n_top + 1) < order:
        n_top += 1
    if n_top < first:
        return []
    column = coeff_column(a, t, n_top)
    return [(r(n), column[n]) for n in range(first, n_top + 1) if column[n]]


def w_series(t: int, order: int) -> Series:
    """W_t(q): overpartition prefactor times sum_n c_n(0,t) q^(n(n-1)),
    read as the odd case m_odd(0, 2t+1; 4y+1) of ``closed_form``."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return Series(modd_explicit_batch(0, 2 * t + 1, [4 * y + 1 for y in range(order)]))


def explicit_utilde(a: int, t: int, order: int) -> Series:
    """U~_t(a; q) by the closed forms (a in {-2, 0, 1} only), as
    ``closed_form`` states them."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return Series(modd_explicit_batch(a, t, range(order)))


def modd_direct(a: int, t: int, n: int) -> int:
    """m_odd(a, t; n) via the dynamic program."""
    return _modd_row(direct_utilde, a, t, n)


def modd_powersum(a: int, t: int, n: int) -> int:
    """m_odd(a, t; n) via the power sums and Newton's identities."""
    return _modd_row(powersum_utilde, a, t, n)


def _modd_row(route, a: int, t: int, n: int) -> int:
    """[q^n] of row t from `route`; 0 when t^2 > n, as t distinct odd parts
    sum to at least t^2, so no row past isqrt(n) is built."""
    _check_route_args(a, t, n)
    if t * t > n:
        return 0
    return route(a, t, n + 1)[t].coeff(n)


def modd_explicit(a: int, t: int, n: int) -> int:
    """m_odd(a, t; n) via the closed forms."""
    return modd_explicit_batch(a, t, [n])[0]


def modd_explicit_batch(a: int, t: int, args, pref=None, mod: int = 0) -> list[int]:
    """m_odd(a, t; n) for every n in `args` via the closed forms.

    ``closed_form`` names the prefactor, the argument map x = stride*y +
    offset and the family c_n(a', t'); every other x reads 0.  The c_n are
    computed once and shared across all requested arguments, so sweeping
    them costs one prefactor expansion plus one ``series._conv_terms``.
    Without `pref` the prefactor is built to the largest y, reduced mod
    `mod`.  With `mod` > 0 the c_n are reduced mod `mod` before they
    multiply the prefactor, so the values are only congruent to m_odd mod
    `mod`, not reduced; a `pref` passed with it need not be reduced, as the
    products read it mod `mod` on packed slots, which every modulus has.
    """
    name, stride, offset, a_c, t_c = closed_form(a, t)
    args = list(args)
    if min(args, default=0) < 0:
        raise ValueError("arguments must be >= 0")
    if t == 0:
        return [int(x == 0) for x in args]
    inner = args if stride == 1 else [x // stride for x in args if x % stride == offset]
    if not inner:
        return [0] * len(args)
    if pref is None:
        pref = PREFACTORS[name](max(inner) + 1, mod).coeffs
    values = _conv_terms(pref, theta_weight_terms(a_c, t_c, max(inner) + 1), inner, mod)
    if stride == 1:
        return values
    values = iter(values)
    return [next(values) if x % stride == offset else 0 for x in args]
