"""Exact q-series laboratory.

Truncated integer power series, eta quotients and theta functions, the
MacMahon-type odd divisor sums with their closed forms, and a registry of
congruence families with a sweep engine that verifies every one of them
with zero numerical tolerance.
"""

from .series import (
    BadResidue,
    NonUnitConstant,
    OutOfRange,
    Poly,
    Series,
    SeriesError,
    poly_pow_mod,
    series_of_rational,
)
from .special import (
    borwein_a,
    borwein_b,
    eta,
    eta_inv,
    eta_quotient,
    overpartition_gf,
    pgen,
    phi,
    prefactor_a,
    psi,
)
from .macmahon import (
    UnsupportedA,
    chebyshev_T,
    coeff_c,
    direct_utilde,
    explicit_utilde,
    local_factor_coeffs,
    modd_direct,
    modd_explicit,
    oracle_modd,
    te,
    te_sum,
    w_series,
)
from .arith import digit_sum, nu_binomial_kummer, nu_int, pow2_poly_congruence

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
