"""Constructors for the named series: eta factors f_r, eta quotients,
theta functions, and the Borwein cubic pair.

Everything here returns a `Series`, exact unless a `mod` argument asks for
residues.  The eta factors are sparse (pentagonal-number support), and 1/f_r
is computed by long division against that sparse support, so quotients stay
cheap at large truncation orders.  The two prefactors of the closed forms
are built as theta quotients, phi(-q) = f1^2/f2 and psi(q) = f2^2/f1, which
take fewer and sparser divisions than their eta forms; with `mod` > 0 the
division kernel reduces every coefficient as it goes, so the integers stay
small.  The a=1 prefactor psi(q^3)/(psi(q)*f6) takes its q^3 half through
psi(q^3)/f6 = (psi(q)/f2)(q^3): one division by f2 at a third of the order,
then one by psi(q) at the full order.  `eta_quotient` stays as the general
constructor and the test oracle; `eta_product` applies eta factors to a
given series, for it and for the expression evaluator: a positive power is
one product, a negative one sparse division passes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import compress

from .series import Series, _div_terms, _mul_kronecker

EtaFactors = Sequence[tuple[int, int]]


def pentagonal_terms(scale: int, order: int) -> list[tuple[int, int]]:
    """Nonzero terms of f_scale = prod_k (1 - q^(scale*k)) below `order`.

    Euler: the exponents are scale * k(3k-1)/2 over all integers k, with
    sign (-1)^k.
    """
    if scale < 1:
        raise ValueError("eta scale must be >= 1")
    terms = [(0, 1)]
    k = 1
    while True:
        sign = -1 if k & 1 else 1
        e1 = scale * (k * (3 * k - 1) // 2)
        if e1 >= order:
            break
        terms.append((e1, sign))
        e2 = scale * (k * (3 * k + 1) // 2)
        if e2 < order:
            terms.append((e2, sign))
        k += 1
    terms.sort()
    return terms


def eta(scale: int, order: int) -> Series:
    """f_scale as a Series of the given order."""
    return Series.from_terms(pentagonal_terms(scale, order), order)


def eta_inv(scale: int, order: int) -> Series:
    """1/f_scale via the pentagonal recurrence (sparse long division)."""
    return Series(_div_terms([1], pentagonal_terms(scale, order), order))


def eta_quotient(factors: EtaFactors, order: int) -> Series:
    """Product of f_r^e over (r, e) pairs, exact to `order`.

    Scales must be distinct and exponents nonzero.  The product is built by
    ``eta_product``.
    """
    seen = set()
    for r, e in factors:
        if r < 1:
            raise ValueError(f"eta scale {r} must be >= 1")
        if e == 0:
            raise ValueError(f"eta exponent for scale {r} must be nonzero")
        if r in seen:
            raise ValueError(f"duplicate eta scale {r}")
        seen.add(r)
    return Series(eta_product([1], factors, order))


# A negative eta exponent larger than this in size is raised by repeated
# squaring of 1/f_r; a positive one is always one product by f_r^e.
# Division passes cost time linear in |e|; squaring takes about 2*log2|e|
# dense products whose coefficients grow with |e|.  Passes were faster at
# every |e| up to 256 measured (order 1064, f1^-256: 0.8 s against 1.0 s;
# order 4000, f1^-128: 4.0 s against 18 s), so the bound is there only to
# keep a huge |e|, such as f1^-100000, from running |e| passes.
_MAX_PASSES = 256


def eta_product(u: Sequence[int], factors: EtaFactors, order: int) -> list[int]:
    """u * prod f_r^e over the (r, e) pairs, truncated to `order`.

    `u` may be shorter than `order` (missing entries are zeros).  One loop
    takes the factors in the given order.  A factor with e > 0 is one
    product by f_r^e, raised by square-and-multiply, each step one
    ``series._mul_kronecker``.  A factor with -_MAX_PASSES <= e < 0 is
    applied as |e| sparse division passes over ``pentagonal_terms(r)``, each
    costing O(order * sqrt(order/r)); a more negative e raises 1/f_r to |e|
    by repeated squaring and multiplies it in once.  Every step is exact in
    Z[[q]]/(q^order), so the order of the factors changes no coefficient.

    When g > 1 divides every scale r and every exponent where u is nonzero,
    the factors are applied to u[::g] with scales r/g at order
    ceil(order/g), and the result is spread back with stride g:
    f_(g*r)(q) = f_r(q^g).
    """
    u, full = u[:order], order
    g = math.gcd(*(r for r, _ in factors), *compress(range(len(u)), u))
    if g > 1:
        u, factors, order = u[::g], [(r // g, e) for r, e in factors], (order - 1) // g + 1
    out = list(u)
    out += [0] * (order - len(out))
    for r, e in factors:
        if e > 0 or e < -_MAX_PASSES:
            base = eta(r, order) if e > 0 else eta_inv(r, order)
            out = _mul_kronecker(out, (base ** abs(e)).coeffs, order)
            continue
        terms = pentagonal_terms(r, order)
        for _ in range(-e):
            out = _div_terms(out, terms, order)
    if g > 1:
        spread = [0] * full
        spread[::g] = out
        return spread
    return out


def overpartition_gf(order: int, mod: int = 0) -> Series:
    """f2/f1^2 = 1/phi(-q), the overpartition counting function.

    With `mod` > 0 the coefficients are reduced into [0, mod).  Order 0
    gives the empty series; a negative order raises ValueError.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return Series(_div_terms([1], phi_terms(order, -1), order, mod))


def prefactor_a(order: int, mod: int = 0) -> Series:
    """f1*f6/(f2^2*f3) = psi(q^3)/(psi(q)*f6), the multiplier attached to
    the a=1 closed form.

    Its q^3 half is psi(q^3)/f6 = f6/f3 = (psi(q)/f2)(q^3), so psi(q) is
    divided by f2 at order ceil(order/3), the quotient is spread onto every
    third coefficient, and one division by psi(q) at `order` finishes the
    build.  With `mod` > 0 the coefficients are reduced into [0, mod).
    Order 0 gives the empty series; a negative order raises ValueError.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if not order:
        return Series([])
    third = (order - 1) // 3 + 1
    num = Series.from_terms(psi_terms(1, third), third).coeffs
    spread = [0] * order
    spread[::3] = _div_terms(num, pentagonal_terms(2, third), third, mod)
    return Series(_div_terms(spread, psi_terms(1, order), order, mod))


def phi_terms(order: int, sign: int = 1) -> list[tuple[int, int]]:
    """Nonzero terms of phi(q) = 1 + 2*sum q^(k^2) below `order`, or of
    phi(-q) when sign=-1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    terms = [(0, 1)]
    k = 1
    while k * k < order:
        terms.append((k * k, 2 * (sign ** k)))
        k += 1
    return terms


def phi(order: int, sign: int = 1) -> Series:
    """phi(q) = 1 + 2*sum q^(k^2), or phi(-q) when sign=-1."""
    return Series.from_terms(phi_terms(order, sign), order)


def psi_terms(scale: int, order: int) -> list[tuple[int, int]]:
    """Nonzero terms of psi(q^scale) = sum q^(scale*k(k+1)/2) below `order`."""
    if scale < 1:
        raise ValueError("psi scale must be >= 1")
    terms = []
    k = 0
    while scale * (k * (k + 1) // 2) < order:
        terms.append((scale * (k * (k + 1) // 2), 1))
        k += 1
    return terms


def psi(order: int) -> Series:
    """psi(q) = sum q^(k(k+1)/2) over k >= 0."""
    return Series.from_terms(psi_terms(1, order), order)


def pgen(order: int) -> Series:
    """P(q): coefficient 1 on every generalized pentagonal exponent."""
    terms = [(e, 1) for e, _ in pentagonal_terms(1, order)]
    return Series.from_terms(terms, order)


def borwein_b(order: int) -> Series:
    """Borwein b(q) = f1^3/f3."""
    return eta_quotient([(1, 3), (3, -1)], order)


def borwein_a(order: int) -> Series:
    """Borwein a(q) = sum over the integer lattice of q^(m^2+mn+n^2).

    The quadratic form satisfies m^2+mn+n^2 >= (m^2+n^2)/2, so restricting
    to |m|, |n| <= ceil(2*sqrt(order)) loses nothing below the order.
    """
    bound = math.isqrt(4 * order) + 1
    cs = [0] * order
    for m in range(-bound, bound + 1):
        mm = m * m
        for n in range(-bound, bound + 1):
            e = mm + m * n + n * n
            if e < order:
                cs[e] += 1
    return Series(cs)
