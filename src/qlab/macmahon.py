"""MacMahon-type sums of divisors over distinct odd parts.

The central object is the generating function over partitions into t
distinct odd parts,

    U~_t(a; q) = sum_{n_1<...<n_t odd} prod_k q^{n_k} / (1 + a q^{n_k} + q^{2 n_k}),

whose q^n coefficient is written m_odd(a, t; n).  For |a| <= 2 each local
factor expands exactly over the integers, with coefficients d_m following a
Chebyshev-type recurrence.

Four independent evaluation routes are provided and cross-checked by the
test suite:

* ``direct_utilde``  -- dynamic program over the odd parts (any |a| <= 2);
* ``powersum_utilde`` -- divisor sums for the power sums of the local
  factors, then Newton's identities (any |a| <= 2);
* ``explicit_utilde`` -- closed form: an eta-quotient prefactor convolved
  with a theta-supported coefficient family c_n(a, t) (a in {-2, 0, 1});
* ``oracle_modd``    -- brute-force enumeration of the defining sum.

On top of these sit the coefficient families c_n(a, t), their Riordan-array
representation, and the even Chebyshev polynomials te_n used to derive them.
Batches of c_n(a, t) come from ``coeff_column``: for a = 1 one Riordan-array
division yields the whole column, and ``te_sum`` stays as its oracle.
"""

from __future__ import annotations

from math import comb

from .arith import exact_div
from .series import Poly, Series, _mul_dense_terms, _mul_kronecker, series_of_rational
from .special import overpartition_gf, prefactor_a


class UnsupportedA(ValueError):
    """The closed forms exist only for a in {-2, 0, 1}."""


_DP_AS = (-2, -1, 0, 1, 2)
_EXPLICIT_AS = (-2, 0, 1)


def local_factor_coeffs(a: int, mmax: int) -> list[int]:
    """d_0..d_mmax with q^n/(1+a*q^n+q^(2n)) = sum_m d_m q^(m*n).

    Recurrence d_m = -a*d_(m-1) - d_(m-2), d_0 = 0, d_1 = 1.  For |a| <= 2
    the roots of 1+a*x+x^2 lie on the unit circle and the d_m stay bounded
    (a = +-2 gives d_m = +-m up to sign; a = 0 and a = +-1 cycle).
    """
    if a not in _DP_AS:
        raise ValueError(f"need a in {_DP_AS}, got {a}")
    d = [0] * (mmax + 1)
    if mmax >= 1:
        d[1] = 1
    for m in range(2, mmax + 1):
        d[m] = -a * d[m - 1] - d[m - 2]
    return d


def direct_utilde(a: int, t_max: int, order: int) -> list[Series]:
    """U~_t(a; q) for t = 0..t_max by dynamic programming, exact to `order`.

    Processes the odd parts n in increasing order; for each, the local
    factor g_n = sum d_m q^(m*n) is folded into the partial sums S_t
    descending in t.  Since U~_t starts at q^(t^2), any t with t^2 >= order
    is identically zero at this truncation and is skipped.
    """
    if a not in _DP_AS:
        raise ValueError(f"need a in {_DP_AS}, got {a}")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    d = local_factor_coeffs(a, order - 1)
    rows = [[0] * order for _ in range(t_max + 1)]
    rows[0][0] = 1
    eff = t_max
    while eff > 0 and eff * eff >= order:
        eff -= 1
    reachable = 0
    for part in range(1, order, 2):
        g = []
        for m in range(1, (order - 1) // part + 1):
            if d[m]:
                g.append((m * part, d[m]))
        if not g:
            continue
        reachable = min(eff, reachable + 1)
        for t in range(reachable, 0, -1):
            conv = _mul_dense_terms(rows[t - 1], g, order)
            rows[t] = [x + y for x, y in zip(rows[t], conv)]
    return [Series(r) for r in rows]


def powersum_utilde(a: int, t_max: int, order: int) -> list[Series]:
    """U~_t(a; q) for t = 0..t_max from power sums, exact to `order`.

    U~_t is the t-th elementary symmetric function e_t of the local factors
    g_n = q^n/(1+a*q^n+q^(2n)) over odd n.  Their power sums p_k = sum g_n^k
    are divisor sums, [q^N] p_k = sum over odd n | N of [x^(N/n)] h_k with
    h_k = x^k/(1+a*x+x^2)^k, and Newton's identities
    t*e_t = sum_{i=1..t} (-1)^(i-1) e_(t-i) p_i give e_t from them, each
    product by one Kronecker multiply and the division by t checked exact.
    Rows with t^2 >= order are zero at this truncation, as in
    ``direct_utilde``.
    """
    if a not in _DP_AS:
        raise ValueError(f"need a in {_DP_AS}, got {a}")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    eff = t_max
    while eff > 0 and eff * eff >= order:
        eff -= 1
    p = [None] + [_odd_power_sum(a, k, order) for k in range(1, eff + 1)]
    rows = [[1] + [0] * (order - 1)]
    for t in range(1, eff + 1):
        acc = [0] * order
        for i in range(1, t + 1):
            sign = 1 if i % 2 else -1
            acc = [x + sign * y for x, y in zip(acc, _mul_kronecker(rows[t - i], p[i], order))]
        rows.append([exact_div(c, t) for c in acc])
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
        p[n * k::n] = [x + y for x, y in zip(p[n * k::n], h)]
    return p


def oracle_modd(a: int, t: int, n: int) -> int:
    """m_odd(a, t; n) by brute-force enumeration.

    Sums prod_k d_(m_k) over all 1 <= n_1 < ... < n_t odd and multiplicities
    m_k >= 1 with sum m_k n_k = n.  Independent of the DP and closed-form
    code paths; only usable for small n.
    """
    if a not in _DP_AS:
        raise ValueError(f"need a in {_DP_AS}, got {a}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 1 if n == 0 else 0
    if n < t * t:
        return 0
    d = local_factor_coeffs(a, n)

    total = 0

    def descend(parts_left: int, part: int, rem: int, weight: int):
        nonlocal total
        if parts_left == 0:
            if rem == 0:
                total += weight
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

    a = 1 takes the whole column from one Riordan-array expansion,
    c_n(1, t) = [z^n] (z^t - z^(t+2)) / (1 - z + z^2)^(t+1), which the
    acceptance gate checks against ``te_sum``; a = -2 and a = 0 evaluate
    their one-binomial closed forms per entry.
    """
    _check_coeff_args(a, t)
    if n_top < 0:
        raise ValueError("n_top must be >= 0")
    if a == 1:
        column = list(riordan_series(1, t, n_top).coeffs)
        column[0] = 0
        return column
    return [0] + [_binomial_c(a, t, n) for n in range(1, n_top + 1)]


def _check_coeff_args(a: int, t: int) -> None:
    if a not in _EXPLICIT_AS:
        raise UnsupportedA(f"no closed-form coefficients for a={a}")
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
    binomials are carried along by exact ratio updates so a whole column of
    values stays cheap.
    """
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if n < t:
        return 0
    shift = a + 2
    u = comb(n + t, 2 * t)            # C(n+k, 2k) at k = t
    b = 1                             # C(k, t)
    p = 1                             # shift^(k-t)
    sign = -1 if (n - t) % 2 else 1
    total = 0
    for k in range(t, n + 1):
        g = exact_div(2 * n * u, n + k)
        if sign > 0:
            total += g * b * p
        else:
            total -= g * b * p
        sign = -sign
        if k == n or shift == 0:
            break
        u = u * ((n + k + 1) * (n - k)) // ((2 * k + 2) * (2 * k + 1))
        b = b * (k + 1) // (k + 1 - t)
        p *= shift
    return total


def riordan_series(a: int, t: int, nmax: int) -> Series:
    """(z^t - z^(t+2)) / (1 - a z + z^2)^(t+1) expanded to order nmax+1.

    For n >= 1 the z^n coefficient is te_sum(a, t, n); at t = 0 that is
    2*T_n(a/2), since (1 - z^2)/(1 - a z + z^2) = (2 - a z)/(1 - a z + z^2) - 1.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    num = Poly([0] * t + [1, 0, -1])
    den = Poly([1, -a, 1]) ** (t + 1)
    return series_of_rational(num, den, nmax + 1)


def riordan_coeff(a: int, t: int, n: int) -> int:
    """[z^n] (z^t - z^(t+2)) / (1 - a z + z^2)^(t+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return riordan_series(a, t, n).coeff(n)


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


def two_te_at_quarter(n: int, w: int) -> int:
    """Integer value 2*te_n(w/4) for integer w."""
    return te_sum(w - 2, 0, n)


# ---------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------


def theta_weight_terms(a: int, t: int, order: int) -> list[tuple[int, int]]:
    """Nonzero terms of sum_n c_n(a,t) q^(r(n)) with r(n) = n^2 (a=-2,1)
    or n(n-1) (the a=0 odd-case family), truncated below `order`, in
    increasing exponent order.  One ``coeff_column`` call supplies every c_n.
    """
    if a not in _EXPLICIT_AS:
        raise UnsupportedA(f"no closed form for a={a}")
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
    """W_t(q): overpartition prefactor times sum_n c_n(0,t) q^(n(n-1))."""
    if t < 0:
        raise ValueError("t must be >= 0")
    pref = overpartition_gf(order)
    return pref * Series.from_terms(theta_weight_terms(0, t, order), order)


def explicit_utilde(a: int, t: int, order: int) -> Series:
    """U~_t(a; q) by the closed forms (a in {-2, 0, 1} only).

    a = -2: (f2/f1^2) * sum c_n(-2,t) q^(n^2)
    a =  0: even t=2u reduces to the a=-2 form in q^4; odd t=2u+1 equals
            q * W_u(q^4)
    a =  1: (f1 f6 / f2^2 f3) * sum c_n(1,t) q^(n^2)
    """
    if a not in _EXPLICIT_AS:
        raise UnsupportedA(f"no closed form for a={a}")
    if t < 0:
        raise ValueError("t must be >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    if t == 0:
        return Series.one(order)
    if a == 0:
        sub_order = (order + 3) // 4
        if t % 2 == 0:
            inner = explicit_utilde(-2, t // 2, sub_order)
            return inner.substitute_power(4).truncate(order)
        inner = w_series((t - 1) // 2, sub_order)
        return inner.substitute_power(4).shift(1).truncate(order)
    pref = overpartition_gf(order) if a == -2 else prefactor_a(order)
    return pref * Series.from_terms(theta_weight_terms(a, t, order), order)


def modd_direct(a: int, t: int, n: int) -> int:
    """m_odd(a, t; n) via the dynamic program."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return direct_utilde(a, t, n + 1)[t].coeff(n)


def modd_powersum(a: int, t: int, n: int) -> int:
    """m_odd(a, t; n) via the power sums and Newton's identities."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return powersum_utilde(a, t, n + 1)[t].coeff(n)


def modd_explicit(a: int, t: int, n: int, pref=None) -> int:
    """m_odd(a, t; n) via the closed forms.

    `pref` may carry precomputed prefactor coefficients (overpartition
    counts for a = -2 or 0, the f1f6/(f2^2 f3) expansion for a = 1) with
    length > n; it is computed on the fly when omitted.
    """
    return modd_explicit_batch(a, t, [n], pref)[0]


def modd_explicit_batch(a: int, t: int, args, pref=None, mod: int = 0) -> list[int]:
    """m_odd(a, t; n) for every n in `args` via the closed forms.

    The coefficient family c_n(a, t) is computed once and shared across all
    requested arguments, so sweeping an arithmetic progression costs one
    prefactor expansion plus O(sqrt(max)) multiplications per argument.
    With `mod` > 0 the c_n are reduced mod `mod` before they multiply the
    prefactor, so the values are only congruent to m_odd mod `mod`; pass
    it with a `pref` that is reduced mod the same modulus.
    """
    if a not in _EXPLICIT_AS:
        raise UnsupportedA(f"no closed form for a={a}")
    args = list(args)
    if any(n < 0 for n in args):
        raise ValueError("arguments must be >= 0")
    if not args:
        return []
    if t == 0:
        return [1 if n == 0 else 0 for n in args]
    if a == 0:
        if t % 2 == 0:
            inner = [n // 4 for n in args if n % 4 == 0]
            vals = iter(modd_explicit_batch(-2, t // 2, inner, pref, mod))
            return [next(vals) if n % 4 == 0 else 0 for n in args]
        inner = [(n - 1) // 4 for n in args if n % 4 == 1]
        vals = iter(_theta_batch(0, (t - 1) // 2, inner, pref, mod))
        return [next(vals) if n % 4 == 1 else 0 for n in args]
    return _theta_batch(a, t, args, pref, mod)


def _theta_batch(a: int, t: int, args, pref=None, mod: int = 0) -> list[int]:
    """[q^x] of prefactor * sum_n c_n(a,t) q^(r(n)) for each x in args.

    The prefactor is the f1f6/(f2^2 f3) expansion for a = 1 and the
    overpartition counts otherwise; a = 0 gives W_t.
    """
    if not args:
        return []
    top = max(args)
    if pref is None:
        pref = (prefactor_a(top + 1) if a == 1 else overpartition_gf(top + 1)).coeffs
    terms = theta_weight_terms(a, t, top + 1)
    if mod:
        terms = [(e, c % mod) for e, c in terms if c % mod]
    out = []
    for x in args:
        acc = 0
        for e, c in terms:
            if e > x:
                break
            acc += c * pref[x - e]
        out.append(acc)
    return out
