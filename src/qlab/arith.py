"""Base-p digit sums, p-adic valuations, Kummer's binomial valuation,
and the (1+z)^(2^s) congruence used for mod-2^s coefficient bounds."""

from __future__ import annotations

from .series import Poly, poly_pow_mod


class NonPrime(ValueError):
    """Valuations are only defined for prime p."""


class ZeroArgument(ValueError):
    """nu_p(0) is infinite."""


class InexactDivision(ArithmeticError):
    """A division that the mathematics says is exact left a remainder."""


def exact_div(num: int, den: int) -> int:
    """num // den, raising InexactDivision unless den divides num."""
    q, r = divmod(num, den)
    if r:
        raise InexactDivision(f"{den} does not divide {num}")
    return q


def is_prime(n: int) -> bool:
    """Trial division; inputs here are tiny."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def digit_sum(p: int, k: int) -> int:
    """Sum of the base-p digits of k."""
    if p < 2:
        raise ValueError("base must be >= 2")
    if k < 0:
        raise ValueError("digit sums need k >= 0")
    s = 0
    while k:
        k, r = divmod(k, p)
        s += r
    return s


def nu_int(p: int, k: int) -> int:
    """Largest e with p^e dividing k."""
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if k == 0:
        raise ZeroArgument("nu_p(0) is infinite")
    k = abs(k)
    if p == 2:
        return (k & -k).bit_length() - 1
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e


def nu_binomial_kummer(p: int, n: int, m: int) -> int:
    """nu_p(binomial(n, m)) = (S_p(m) + S_p(n-m) - S_p(n)) / (p-1).

    Equivalently, the number of carries when adding m and n-m in base p.
    """
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    return exact_div(digit_sum(p, m) + digit_sum(p, n - m) - digit_sum(p, n), p - 1)


def pow2_poly_congruence(s: int, step: int = 1) -> bool:
    """Whether (1+z^step)^(2^s) == (1+z^(2*step))^(2^(s-1)) mod 2^s."""
    if s < 1:
        raise ValueError("need s >= 1")
    if step < 1:
        raise ValueError("need step >= 1")
    mod = 1 << s
    lhs = poly_pow_mod(_one_plus_z(step), 1 << s, mod)
    rhs = poly_pow_mod(_one_plus_z(2 * step), 1 << (s - 1), mod)
    return lhs == rhs


def _one_plus_z(step: int) -> Poly:
    cs = [0] * (step + 1)
    cs[0] = 1
    cs[step] = 1
    return Poly(cs)
