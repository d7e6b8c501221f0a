"""Digit sums, Kummer valuations, and the mod-2^s binomial lemma."""

from math import comb

import pytest

from qlab.arith import (
    NonPrime,
    ZeroArgument,
    digit_sum,
    is_prime,
    nu_binomial_kummer,
    nu_int,
    pow2_poly_congruence,
)


def nu_by_division(p, k):
    """Reference valuation by repeated division."""
    k = abs(k)
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e


def test_digit_sum():
    assert digit_sum(2, 7) == 3
    assert digit_sum(3, 7) == 3  # 7 = 21 base 3
    assert digit_sum(5, 0) == 0
    assert digit_sum(10, 98765) == 35
    with pytest.raises(ValueError):
        digit_sum(1, 5)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_nu_int():
    assert nu_int(2, 6) == 1
    assert nu_int(3, 35) == 0
    assert nu_int(2, -48) == 4
    assert nu_int(7, 343) == 3
    with pytest.raises(NonPrime):
        nu_int(6, 10)
    with pytest.raises(ZeroArgument):
        nu_int(2, 0)


def test_kummer_examples():
    assert nu_binomial_kummer(2, 4, 2) == 1   # C(4,2)=6
    assert nu_binomial_kummer(3, 7, 3) == 0   # C(7,3)=35
    assert nu_binomial_kummer(5, 10, 0) == 0
    with pytest.raises(ValueError):
        nu_binomial_kummer(2, 3, 5)


def test_kummer_matches_factorization():
    for p in (2, 3, 5, 7):
        for n in range(0, 401, 7):
            for m in range(n + 1):
                assert nu_binomial_kummer(p, n, m) == nu_by_division(p, comb(n, m))


def test_pow2_poly_congruence():
    assert pow2_poly_congruence(1)
    assert pow2_poly_congruence(2)
    for s in range(1, 13):
        assert pow2_poly_congruence(s)
    with pytest.raises(ValueError):
        pow2_poly_congruence(0)
    # 1+z^0 is 2, not 1, and a negative step has no polynomial
    for step in (0, -1):
        with pytest.raises(ValueError, match="step"):
            pow2_poly_congruence(2, step=step)


def test_pow2_congruence_substituted_variants():
    # (1+z^m)^4 = (1+z^2m)^2 mod 4 and (1+z^m)^8 = (1+z^2m)^4 mod 8
    for m in range(1, 9):
        assert pow2_poly_congruence(2, step=m)
        assert pow2_poly_congruence(3, step=m)
