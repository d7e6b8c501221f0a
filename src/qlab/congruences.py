"""Registry of congruence / vanishing / characterization families, and the
sweep engine that verifies each one exactly over parameter ranges.

Every family is a declarative record: which coefficient sequence it
constrains (a MacMahon-type m_odd family, the prefactor a(n), the
overpartition counts, or one of the c_n(a,t) coefficient families), the
rule t = alpha*J + beta when t is involved, the arithmetic progression of
arguments, the modulus, and optional side conditions.  The engine sweeps
(J, N) ranges, reports the first counterexample when a claim fails, and
never tolerates approximation: all checks are exact integer congruences.

Every family runs through one loop, ``_sweep``.  For each swept J (once,
with J = None, when no t is involved) ``_args_of`` lists the arguments
and the bound the report gives, ``_values`` evaluates the sequence there,
and ``_verdict`` is the one pass/fail test for every expected outcome.
``_values`` is the only place that knows the evaluation route:

* m_odd families go through the closed forms (prefactor array + c_n
  values), except the a=0 support-pattern families, which would be
  trivially true by construction of the closed form; those run against the
  power-sum route (``powersum_utilde``) instead, which reads no closed form.
* prefactor / overpartition families read one shared expansion.
* coefficient families read one c_n(a, t) column per swept t.

A family whose every checked modulus divides SWEEP_MOD reads its prefactor
expansions reduced mod SWEEP_MOD (see ``_sweep_modulus``); exact-value
claims read exact ones.  The first failing point found on residues is
evaluated again on the exact route, so a reported counterexample carries
the exact value, and an exact value that passes raises ArithmeticError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import isqrt
from typing import Iterable

from .macmahon import coeff_column, modd_explicit_batch, powersum_utilde
from .special import overpartition_gf, prefactor_a

DEFAULT_BUDGET = 20000
FULL_BUDGET = 150000
OVC_MIN_BUDGET = 50000
COEFF_BUDGET = 1500
DP_WINDOW = 2000
SWEEP_MOD = 192               # 2^6 * 3: every congruence modulus in the registry divides it

# sequence kinds; MODD and COEFF families also carry the parameter a
MODD = "MODD"
COEFF = "COEFF"
PREFACTOR_A = "PREFACTOR_A"
OVERPARTITION = "OVERPARTITION"

# expected outcomes
CONG_ZERO = "CONG_ZERO"
EXACT_ZERO = "EXACT_ZERO"
PARITY_A2N = "PARITY_A2N"
PARITY_M2_T1 = "PARITY_M2_T1"
VALUATION_TABLE = "VALUATION_TABLE"
EQUALS_MODD_M2 = "EQUALS_MODD_M2"


class BudgetTooSmall(ValueError):
    """No nontrivial coefficient falls inside the requested range."""


class UnknownFamily(KeyError):
    pass


@dataclass(frozen=True)
class CongruenceFamily:
    """One verifiable claim about a coefficient sequence."""

    id: str
    kind: str                     # MODD | COEFF | PREFACTOR_A | OVERPARTITION
    a: int | None                 # the m_odd / c_n parameter; None for the others
    expected: str                 # one of the expected outcomes above
    modulus: int = 0              # >= 2 for CONG_ZERO; 0 for exact checks
    t_rule: tuple[int, int] | None = None    # t = alpha*J + beta
    j_min: int = 0
    arg_mod: int = 1
    arg_residues: tuple[int, ...] = (0,)
    n_excluded: tuple[int, tuple[int, ...]] | None = None  # COEFF side condition
    val_table: tuple[tuple[int, int], ...] = ()            # (residue, min nu_2)
    dp_backed: bool = False
    easy3_cross: bool = False     # also assert m_odd(1) == m_odd(-2) mod 3
    note: str = ""

    @property
    def sequence(self) -> str:
        """The report label: MODD(a), COEFF(a), PREFACTOR_A or OVERPARTITION."""
        return self.kind if self.a is None else f"{self.kind}({self.a})"

    @cached_property
    def nu2_bounds(self) -> dict[int, int]:
        """The VALUATION_TABLE lookup: residue mod arg_mod -> min nu_2."""
        return dict(self.val_table)

    def t_of(self, j: int) -> int:
        alpha, beta = self.t_rule
        return alpha * j + beta

    def t_rule_str(self) -> str | None:
        if self.t_rule is None:
            return None
        alpha, beta = self.t_rule
        if alpha == 0:
            return f"t={beta}"
        head = "t=J" if alpha == 1 else f"t={alpha}J"
        if beta == 0:
            return head
        return f"{head}{beta:+d}"

    def arg_rule_str(self) -> str:
        """The arguments the sweep reads."""
        if self.expected == PARITY_A2N:
            return "2n, all n"
        if self.kind == COEFF and self.n_excluded:
            mod_, excluded = self.n_excluded
            return f"n ≢ {','.join(map(str, sorted(set(excluded))))} (mod {mod_})"
        if self.arg_mod == 1:
            return "all n"
        residues = (sorted(r for r, _ in self.val_table) if self.expected == VALUATION_TABLE
                    else self.arg_residues)
        rs = ",".join(map(str, residues))
        rs = rs if len(residues) == 1 else "{" + rs + "}"
        return f"{self.arg_mod}N+{rs}"


@dataclass
class VerifyReport:
    """Outcome of sweeping one family; fail implies a counterexample."""

    family_id: str
    sequence: str
    t_rule: str | None
    arg_rule: str
    modulus: int
    ranges: dict
    status: str                   # "pass" | "fail"
    counterexample: dict | None
    millis: float

    def __post_init__(self):
        if self.status == "fail" and self.counterexample is None:
            raise ValueError(f"{self.family_id}: a failed report needs a counterexample")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def checked(self) -> int:
        """Arguments compared, up to and including a counterexample."""
        return self.ranges.get("checked", 0)

    def to_json(self) -> dict:
        return {
            "id": self.family_id,
            "sequence": self.sequence,
            "t_rule": self.t_rule,
            "arg_rule": self.arg_rule,
            "modulus": self.modulus,
            "ranges": self.ranges,
            "status": self.status,
            "counterexample": self.counterexample,
            "millis": round(self.millis, 1),
        }


def _quadratic_nonresidues(p: int) -> tuple[int, ...]:
    squares = {(r * r) % p for r in range(p)}
    return tuple(r for r in range(1, p) if r not in squares)


def _build_registry() -> list[CongruenceFamily]:
    fams: list[CongruenceFamily] = []
    add = fams.append

    # ----- prefactor a(n) = [q^n] f1 f6/(f2^2 f3) ---------------------
    add(CongruenceFamily(
        "a2n-parity", PREFACTOR_A, None, PARITY_A2N, modulus=2, arg_mod=2,
        note="a(2n) odd exactly when n=0 or n is a square not divisible by 3"))
    for label, mod_, m, r in (
        ("a6n4-mod2", 2, 6, 4), ("a6n6-mod2", 2, 6, 6),
        ("a8n4-mod2", 2, 8, 4), ("a8n6-mod2", 2, 8, 6),
        ("a24n13-mod2", 2, 24, 13),
        ("a12n6-mod4", 4, 12, 6), ("a16n6-mod4", 4, 16, 6),
        ("a24n16-mod4", 4, 24, 16), ("a24n22-mod4", 4, 24, 22),
        ("a12n9-mod8", 8, 12, 9), ("a24n19-mod8", 8, 24, 19),
        ("a32n28-mod8", 8, 32, 28), ("a32n20-mod4", 4, 32, 20),
    ):
        add(CongruenceFamily(label, PREFACTOR_A, None, CONG_ZERO, modulus=mod_,
                             arg_mod=m, arg_residues=(r,)))
    for p in (5, 7, 11):
        residues = tuple(2 * r for r in _quadratic_nonresidues(p))
        add(CongruenceFamily(
            f"a2pn-mod2-p{p}", PREFACTOR_A, None, CONG_ZERO, modulus=2,
            arg_mod=2 * p, arg_residues=residues,
            note=f"arguments 2(pn+r), r a quadratic nonresidue mod {p}"))
    add(CongruenceFamily(
        "pre1-24", PREFACTOR_A, None, VALUATION_TABLE, arg_mod=24,
        val_table=((0, 1), (4, 1), (10, 1), (12, 1), (13, 1), (14, 1), (20, 1),
                   (6, 2), (16, 2), (18, 2), (22, 2), (9, 3), (19, 3), (21, 3))))
    add(CongruenceFamily(
        "pre1-32", PREFACTOR_A, None, VALUATION_TABLE, arg_mod=32,
        val_table=((4, 1), (10, 1), (12, 1), (14, 1), (16, 1), (24, 1), (26, 1),
                   (30, 1), (6, 2), (20, 2), (22, 2), (28, 3))))

    # ----- overpartition counts --------------------------------------
    add(CongruenceFamily(
        "ovc8", OVERPARTITION, None, VALUATION_TABLE, arg_mod=8,
        val_table=((0, 1), (1, 1), (4, 1), (2, 2), (3, 3), (5, 3), (6, 3), (7, 6))))
    add(CongruenceFamily(
        "ovc9", OVERPARTITION, None, VALUATION_TABLE, arg_mod=9,
        val_table=((0, 1), (1, 1), (4, 1), (7, 1), (2, 2), (5, 2), (8, 2), (3, 3), (6, 3))))
    add(CongruenceFamily(
        "ovc-16n10-mod8", OVERPARTITION, None, CONG_ZERO, modulus=8,
        arg_mod=16, arg_residues=(10,)))
    add(CongruenceFamily(
        "ovc3-27n18-mod3", OVERPARTITION, None, CONG_ZERO, modulus=3,
        arg_mod=27, arg_residues=(18,)))

    # ----- coefficient families c_n(a, t) -----------------------------
    for s in range(1, 6):
        add(CongruenceFamily(
            f"cm2-1-s{s}", COEFF, -2, CONG_ZERO, modulus=2 ** (s + 1),
            t_rule=(2 ** s, -1), j_min=1, n_excluded=(2, (1,)),
            note="even n only"))
    add(CongruenceFamily("cm2-2", COEFF, -2, CONG_ZERO, modulus=3,
                         t_rule=(27, 13), j_min=0, n_excluded=(27, (13, 14))))
    add(CongruenceFamily("cm2-3", COEFF, -2, CONG_ZERO, modulus=3,
                         t_rule=(27, -1), j_min=1, n_excluded=(27, (1, 26))))
    add(CongruenceFamily("c0-1a", COEFF, 0, CONG_ZERO, modulus=4,
                         t_rule=(4, -1), j_min=1, n_excluded=(4, (0, 1))))
    add(CongruenceFamily("c0-1b", COEFF, 0, CONG_ZERO, modulus=8,
                         t_rule=(8, -1), j_min=1, n_excluded=(4, (0, 1))))
    add(CongruenceFamily("c0-2a", COEFF, 0, CONG_ZERO, modulus=16,
                         t_rule=(32, -1), j_min=1, n_excluded=(8, (0, 1))))
    add(CongruenceFamily("c0-2b", COEFF, 0, CONG_ZERO, modulus=32,
                         t_rule=(64, -1), j_min=1, n_excluded=(8, (0, 1))))
    add(CongruenceFamily("c0-3", COEFF, 0, CONG_ZERO, modulus=3,
                         t_rule=(27, 12), j_min=0, n_excluded=(27, (13, 15))))
    # exceptional set {0,1} mod 27: the n(n-1) support is symmetric under
    # n -> 1-n, and the leading coefficient sits at n = t+1 = 27J
    add(CongruenceFamily("c0-4", COEFF, 0, CONG_ZERO, modulus=3,
                         t_rule=(27, -1), j_min=1, n_excluded=(27, (0, 1))))
    add(CongruenceFamily("c1-1", COEFF, 1, CONG_ZERO, modulus=2,
                         t_rule=(2, -1), j_min=1, n_excluded=(2, (1,))))
    for s in range(2, 6):
        half = 2 ** (s - 1)
        add(CongruenceFamily(
            f"c1-2-s{s}", COEFF, 1, CONG_ZERO, modulus=4,
            t_rule=(2 ** s, -1), j_min=1,
            n_excluded=(half, (1 % half, (half - 1) % half))))
    # halving (1+z)^(64J) mod 8 stops at (1+z^16)^(4J), so the mod-8
    # support of c_n(1,64J-1) is n = +-1 mod 16 (and n^2 = 1 mod 32 still)
    add(CongruenceFamily("c1-3", COEFF, 1, CONG_ZERO, modulus=8,
                         t_rule=(64, -1), j_min=1, n_excluded=(16, (1, 15))))

    # ----- m_odd(-2, t; .) --------------------------------------------
    add(CongruenceFamily(
        "m2-parity-t1", MODD, -2, PARITY_M2_T1, modulus=2, t_rule=(0, 1),
        note="m_odd(-2,1;N) odd exactly when N is an odd square"))
    add(CongruenceFamily("m2-6n5-mod6", MODD, -2, CONG_ZERO, modulus=6,
                         t_rule=(0, 1), arg_mod=6, arg_residues=(5,)))
    add(CongruenceFamily("vm2A-1", MODD, -2, CONG_ZERO, modulus=4,
                         t_rule=(1, 1), arg_mod=8, arg_residues=(3, 6)))
    add(CongruenceFamily("vm2A-2", MODD, -2, CONG_ZERO, modulus=4,
                         t_rule=(1, 1), arg_mod=9, arg_residues=(3, 6)))
    add(CongruenceFamily("vm2A-3", MODD, -2, CONG_ZERO, modulus=8,
                         t_rule=(1, 1), arg_mod=8, arg_residues=(7,)))
    add(CongruenceFamily("vm2-1", MODD, -2, CONG_ZERO, modulus=4,
                         t_rule=(2, 1), arg_mod=8, arg_residues=(0, 4)))
    add(CongruenceFamily("vm2-1b", MODD, -2, CONG_ZERO, modulus=4,
                         t_rule=(2, 0), arg_mod=8, arg_residues=(2,)))
    add(CongruenceFamily("vm2-2", MODD, -2, CONG_ZERO, modulus=8,
                         t_rule=(2, 1), arg_mod=8, arg_residues=(6,)))
    add(CongruenceFamily("vm2-2b", MODD, -2, CONG_ZERO, modulus=8,
                         t_rule=(2, 0), arg_mod=8, arg_residues=(3,)))
    add(CongruenceFamily("vm2-2c", MODD, -2, CONG_ZERO, modulus=8,
                         t_rule=(4, 3), arg_mod=8, arg_residues=(0, 4)))
    add(CongruenceFamily("vm2-2d", MODD, -2, CONG_ZERO, modulus=8,
                         t_rule=(4, 2), arg_mod=16, arg_residues=(14,)))
    add(CongruenceFamily("vm2-3", MODD, -2, CONG_ZERO, modulus=16,
                         t_rule=(4, 0), arg_mod=8, arg_residues=(7,)))
    add(CongruenceFamily("vm2-3a", MODD, -2, CONG_ZERO, modulus=16,
                         t_rule=(8, 7), arg_mod=8, arg_residues=(0,)))
    add(CongruenceFamily("vm2-4", MODD, -2, CONG_ZERO, modulus=32,
                         t_rule=(16, 15), arg_mod=8, arg_residues=(0,)))
    add(CongruenceFamily("vm2-5", MODD, -2, CONG_ZERO, modulus=64,
                         t_rule=(32, 31), arg_mod=8, arg_residues=(0,)))
    add(CongruenceFamily("vm2-10", MODD, -2, CONG_ZERO, modulus=3,
                         t_rule=(27, 13), arg_mod=27, arg_residues=(25,)))
    add(CongruenceFamily("vm2-11", MODD, -2, CONG_ZERO, modulus=3,
                         t_rule=(27, 26), arg_mod=27, arg_residues=(19,)))

    # ----- m_odd(0, t; .) ---------------------------------------------
    add(CongruenceFamily(
        "m0-even-vanish", MODD, 0, EXACT_ZERO, t_rule=(2, 0),
        arg_mod=4, arg_residues=(1, 2, 3), dp_backed=True,
        note="even t: support lies on 4N"))
    add(CongruenceFamily(
        "m0-even-reinterp", MODD, 0, EQUALS_MODD_M2, t_rule=(2, 0),
        arg_mod=4, arg_residues=(0,), dp_backed=True,
        note="m_odd(0,2t;4N) = m_odd(-2,t;N)"))
    add(CongruenceFamily(
        "m0-odd-vanish", MODD, 0, EXACT_ZERO, t_rule=(2, 1),
        arg_mod=4, arg_residues=(0, 2, 3), dp_backed=True,
        note="odd t: support lies on 4N+1"))
    add(CongruenceFamily("m0-36n-mod4", MODD, 0, CONG_ZERO, modulus=4,
                         t_rule=(2, 1), arg_mod=36, arg_residues=(21, 33)))
    add(CongruenceFamily("v0odd-1", MODD, 0, CONG_ZERO, modulus=4,
                         t_rule=(8, 7), arg_mod=16, arg_residues=(9, 13)))
    add(CongruenceFamily("v0odd-2", MODD, 0, CONG_ZERO, modulus=8,
                         t_rule=(16, 15), arg_mod=16, arg_residues=(13,)))
    add(CongruenceFamily("v0odd-3", MODD, 0, CONG_ZERO, modulus=16,
                         t_rule=(64, 63), arg_mod=32, arg_residues=(29,)))
    add(CongruenceFamily("v0odd-3b", MODD, 0, CONG_ZERO, modulus=32,
                         t_rule=(128, 127), arg_mod=32, arg_residues=(29,)))
    add(CongruenceFamily("v0odd-4", MODD, 0, CONG_ZERO, modulus=3,
                         t_rule=(54, 25), arg_mod=108, arg_residues=(49,)))
    add(CongruenceFamily("v0odd-5", MODD, 0, CONG_ZERO, modulus=3,
                         t_rule=(54, 53), arg_mod=108, arg_residues=(73,)))
    add(CongruenceFamily("m0-t1-vanish", MODD, 0, EXACT_ZERO, t_rule=(0, 1),
                         arg_mod=36, arg_residues=(21, 33),
                         note="t=1: arguments 4(9n+5)+1 and 4(9n+8)+1"))

    # ----- m_odd(1, t; .) ---------------------------------------------
    add(CongruenceFamily("v1-0", MODD, 1, CONG_ZERO, modulus=2,
                         t_rule=(1, 0), arg_mod=24, arg_residues=(22,)))
    add(CongruenceFamily("v1-0b", MODD, 1, CONG_ZERO, modulus=2,
                         t_rule=(2, 1), arg_mod=12, arg_residues=(7,)))
    add(CongruenceFamily("v1-0c", MODD, 1, CONG_ZERO, modulus=4,
                         t_rule=(4, 3), arg_mod=24, arg_residues=(7,)))
    add(CongruenceFamily("v1-1", MODD, 1, CONG_ZERO, modulus=2,
                         t_rule=(2, 1), arg_mod=8, arg_residues=(5, 7)))
    add(CongruenceFamily("v1-2", MODD, 1, CONG_ZERO, modulus=4,
                         t_rule=(16, 15), arg_mod=16, arg_residues=(7,)))
    add(CongruenceFamily("v1-2b", MODD, 1, CONG_ZERO, modulus=4,
                         t_rule=(32, 31), arg_mod=32, arg_residues=(21, 29)))
    add(CongruenceFamily("v1-2c", MODD, 1, CONG_ZERO, modulus=8,
                         t_rule=(64, 63), arg_mod=32, arg_residues=(29,)))
    add(CongruenceFamily("v1-mod3-13", MODD, 1, CONG_ZERO, modulus=3,
                         t_rule=(27, 13), arg_mod=27, arg_residues=(25,),
                         easy3_cross=True))
    add(CongruenceFamily("v1-mod3-26", MODD, 1, CONG_ZERO, modulus=3,
                         t_rule=(27, 26), arg_mod=27, arg_residues=(19,),
                         easy3_cross=True))
    add(CongruenceFamily("m1-t1-6n5", MODD, 1, EXACT_ZERO, t_rule=(0, 1),
                         arg_mod=6, arg_residues=(5,)))

    ids = [f.id for f in fams]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate family ids")
    return fams


_REGISTRY = _build_registry()
_BY_ID = {f.id: f for f in _REGISTRY}


def registry() -> list[CongruenceFamily]:
    """The complete, duplicate-free family list."""
    return list(_REGISTRY)


def lookup(family_id: str) -> CongruenceFamily:
    try:
        return _BY_ID[family_id]
    except KeyError:
        raise UnknownFamily(family_id) from None


# ---------------------------------------------------------------------
# Shared computation cache
# ---------------------------------------------------------------------


class SweepCache:
    """Prefactor expansions and U~_t(0; q) rows, computed once and shared read-only."""

    # keyed by the lower-cased kind of the families that read each expansion;
    # each builder takes (order, mod)
    _BUILDERS = {
        "overpartition": overpartition_gf,
        "prefactor_a": prefactor_a,
    }

    def __init__(self):
        self._series: dict[tuple[str, int], tuple] = {}
        self._dp: dict[tuple, list] = {}

    def coeffs(self, kind: str, min_len: int, mod: int = 0) -> tuple:
        """At least `min_len` coefficients of `kind`, exact for mod=0 and
        reduced into [0, mod) otherwise; each (kind, mod) is its own entry."""
        key = (kind, mod)
        have = self._series.get(key)
        if have is None or len(have) < min_len:
            have = self._series[key] = self._BUILDERS[kind](min_len, mod).coeffs
        return have

    def reserve(self, *needs: dict[tuple[str, int], int]) -> None:
        """Build each (kind, mod) expansion once, at the largest length any need asks of it."""
        for kind, mod in dict.fromkeys(key for need in needs for key in need):
            self.coeffs(kind, max(need.get((kind, mod), 0) for need in needs), mod)

    def dp_utilde(self, a: int, t_max: int, order: int) -> list:
        """U~_0..U~_(t_max) from the power-sum route, which reads no closed form."""
        key = (a, t_max, order)
        if key not in self._dp:
            self._dp[key] = powersum_utilde(a, t_max, order)
        return self._dp[key]


def _modd_pref_kind(a: int) -> str:
    return "prefactor_a" if a == 1 else "overpartition"


def _modd_pref_len(a: int, top: int) -> int:
    """Prefactor length the closed form reads for m_odd(a, t; n), n <= top.

    The a=0 form reads the overpartition counts at n//4 or (n-1)//4 only.
    """
    return top // 4 + 1 if a == 0 else top + 1


def _sweep_modulus(fam: CongruenceFamily) -> int:
    """SWEEP_MOD when every modulus the family checks divides it, else 0.

    A value's residue mod SWEEP_MOD settles v % m for every such m, so the
    family can read reduced expansions; 0 means the exact route.  Claims
    about exact values (vanishing, the a=0 reinterpretation) always take
    the exact route.
    """
    if fam.expected in (EXACT_ZERO, EQUALS_MODD_M2):
        return 0
    moduli = [1 << bound for _, bound in fam.val_table]
    if fam.expected == CONG_ZERO:
        moduli.append(fam.modulus)
    if fam.expected in (PARITY_A2N, PARITY_M2_T1):
        moduli.append(2)
    if fam.easy3_cross:
        moduli.append(3)
    return SWEEP_MOD if all(SWEEP_MOD % m == 0 for m in moduli) else 0


def _is_square(n: int) -> bool:
    r = isqrt(n)
    return r * r == n


# ---------------------------------------------------------------------
# The sweep: arguments, values, verdict
# ---------------------------------------------------------------------


def _modd_bound(t: int, n_budget: int) -> int:
    """m_odd sweeps always reach 2000 past the series' leading exponent t^2."""
    return max(n_budget, t * t + 2000)


def _dp_order(t: int) -> int:
    """Order of the a=0 power-sum rows: DP_WINDOW past t^2.

    The power-sum route could reach the profile budget; the window stays so
    the swept ranges, and the benchmark's pinned checked counts, stay put.
    """
    return t * t + DP_WINDOW + 1


def _args_of(fam: CongruenceFamily, t: int | None, n_budget: int) -> tuple[list[int], int]:
    """(the arguments one J checks, in check order; the bound it reports).

    Arguments ascend, except that a VALUATION_TABLE family reads them in
    table order and skips x = 0.
    """
    if fam.kind == COEFF:
        mod_, excluded = fam.n_excluded or (1, ())
        return [n for n in range(1, n_budget + 1) if n % mod_ not in excluded], n_budget
    if fam.dp_backed:
        bound = _dp_order(t)
        top = bound - 1
    else:
        bound = top = _modd_bound(t, n_budget) if fam.kind == MODD else n_budget
    if fam.expected == VALUATION_TABLE:
        return [x for r, _ in fam.val_table
                for x in range(r or fam.arg_mod, top + 1, fam.arg_mod)], bound
    args = [x for r in fam.arg_residues for x in range(r, top + 1, fam.arg_mod)]
    args.sort()
    return args, bound


def _values(fam: CongruenceFamily, t: int | None, args: list[int], cache: SweepCache,
            mod: int) -> tuple[Iterable, Iterable]:
    """The family's sequence at `args`, and the m_odd(-2, t) partners an
    easy3_cross family checks mod 3 (else Nones), each in the order of
    `args` and read from expansions reduced mod `mod` (0: exact).  The
    reinterpretation claim's value is m_odd(0, t; 4n) - m_odd(-2, t/2; n).
    """
    top = max(args)
    partners = repeat(None, len(args))
    if fam.kind == COEFF:
        column = coeff_column(fam.a, t, top)
        return [column[n] for n in args], partners
    if fam.kind != MODD:
        coeffs = cache.coeffs(fam.kind.lower(), top + 1, mod)
        return map(coeffs.__getitem__, args), partners
    if fam.dp_backed:
        series = cache.dp_utilde(0, t, _dp_order(t))[t]
        values = [series.coeff(x) for x in args]
        if fam.expected == EQUALS_MODD_M2:
            quarters = [x // 4 for x in args]
            pref = cache.coeffs("overpartition", _modd_pref_len(0, top), mod)
            rhs = modd_explicit_batch(-2, t // 2, quarters, pref, mod)
            values = [v - w for v, w in zip(values, rhs)]
        return values, partners
    pref = cache.coeffs(_modd_pref_kind(fam.a), _modd_pref_len(fam.a, top), mod)
    values = modd_explicit_batch(fam.a, t, args, pref, mod)
    if fam.easy3_cross:
        pref = cache.coeffs("overpartition", top + 1, mod)
        partners = modd_explicit_batch(-2, t, args, pref, mod)
    return values, partners


def _verdict(fam: CongruenceFamily, j: int | None, x: int, v: int, cross) -> dict | None:
    """The counterexample the value `v` at argument `x` (and its mod-3
    partner `cross`) makes against the family's claim, or None."""
    expected = fam.expected
    if expected == CONG_ZERO:
        if v % fam.modulus:
            return _cex(j, x, v, fam.modulus)
    elif expected in (EXACT_ZERO, EQUALS_MODD_M2):
        if v != 0:
            return _cex(j, x, v, 0)
    elif expected == VALUATION_TABLE:
        bound = fam.nu2_bounds[x % fam.arg_mod]
        if v % (1 << bound):     # v != 0 and nu_2(v) < bound
            return _cex(j, x, v, 1 << bound, required_nu2=bound)
    elif expected in (PARITY_A2N, PARITY_M2_T1):
        if expected == PARITY_A2N:      # a(2n) odd iff n=0 or n a square prime to 3
            want = 1 if (x == 0 or (_is_square(x // 2) and x % 6 != 0)) else 0
        else:                           # m_odd(-2,1;N) odd iff N an odd square
            want = 1 if (x % 2 == 1 and _is_square(x)) else 0
        if v % 2 != want:
            return _cex(j, x, v, 2, expected=want)
    else:
        raise ValueError(f"{fam.id}: bad expected kind {expected}")
    if cross is not None and (v - cross) % 3:
        return _cex(j, x, v, 3, cross_easy3=str(cross))
    return None


def _sweep(fam: CongruenceFamily, j_values: tuple, n_budget: int,
           cache: SweepCache) -> tuple[int, int, dict | None]:
    """(arguments checked, largest bound reported, first counterexample or None)."""
    mod = _sweep_modulus(fam)
    checked = top = 0
    for j in j_values or (None,):
        t = None if j is None else fam.t_of(j)
        args, bound = _args_of(fam, t, n_budget)
        if not args:
            raise BudgetTooSmall(f"{fam.id}: no arguments below {bound}")
        top = max(top, bound)
        values, partners = _values(fam, t, args, cache, mod)
        for x, v, cross in zip(args, values, partners):
            checked += 1
            cex = _verdict(fam, j, x, v, cross)
            if cex is None:
                continue
            if mod:     # the verdict came from residues: check the exact value
                (v,), (cross,) = _values(fam, t, [x], cache, 0)
                cex = _verdict(fam, j, x, v, cross)
                if cex is None:
                    raise ArithmeticError(
                        f"{fam.id}: residue and exact routes disagree at N={x}")
            return checked, top, cex
    return checked, top, None


def _cex(j, n, value, modulus, **extra):
    out = {"J": j, "N": n, "value": str(value), "modulus": modulus}
    out.update(extra)
    return out


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------


def _sweep_plan(fam: CongruenceFamily, j_values=None, n_budget: int | None = None,
                profile: str = "quick") -> tuple[tuple, int, dict[tuple[str, int], int]]:
    """(J values, budget, {(expansion kind, modulus): length it reads}) of one sweep.

    `None` takes the profile's value: J from the family's ``j_min`` on, the
    budget from ``_budget_for``.  Raises ValueError for J values the family
    cannot take and for a negative budget.
    """
    if fam.t_rule is None:
        if j_values:
            raise ValueError(f"{fam.id}: the family has no t rule, so no J values")
        j_values = ()
    else:
        j_values = tuple((fam.j_min, fam.j_min + 1) if j_values is None else j_values)
        if not j_values or min(j_values) < fam.j_min:
            raise ValueError(f"{fam.id}: needs J values >= the theorem's {fam.j_min}")
    if n_budget is None:
        n_budget = _budget_for(fam, profile)
    if n_budget < 0:
        raise ValueError(f"{fam.id}: budget {n_budget} must be >= 0")
    ts = [fam.t_of(j) for j in j_values]
    mod = _sweep_modulus(fam)
    lengths = {}
    if fam.kind in (PREFACTOR_A, OVERPARTITION):
        lengths[(fam.kind.lower(), mod)] = n_budget + 1
    elif fam.expected == EQUALS_MODD_M2:      # m_odd(-2, t/2; n) for 4n in the DP window
        lengths[("overpartition", mod)] = max(_modd_pref_len(0, _dp_order(t) - 1) for t in ts)
    elif fam.kind == MODD and not fam.dp_backed:
        top = max(_modd_bound(t, n_budget) for t in ts)
        lengths[(_modd_pref_kind(fam.a), mod)] = _modd_pref_len(fam.a, top)
        if fam.easy3_cross:
            lengths[("overpartition", mod)] = top + 1
    return j_values, n_budget, lengths


def verify_family(family, j_values=None, n_budget: int | None = None,
                  cache: SweepCache | None = None) -> VerifyReport:
    """Sweep one family (by id or record) and report pass/fail.

    Without `n_budget` the family's quick-profile budget applies (see
    ``_budget_for``); an explicit budget is honoured as given.  For m_odd
    families with t*t above the budget, the bound is extended to
    t^2 + 2000 so the sweep always sees coefficients beyond the series'
    leading exponent.  Each expansion is sized once, before the J loop.
    Raises BudgetTooSmall if some J has no argument to check, and
    ArithmeticError if the residue and exact routes disagree.
    """
    fam = lookup(family) if isinstance(family, str) else family
    j_values, n_budget, lengths = _sweep_plan(fam, j_values, n_budget)
    if cache is None:
        cache = SweepCache()
    start = time.perf_counter()
    cache.reserve(lengths)
    checked, bound, cex = _sweep(fam, j_values, n_budget, cache)
    ranges = {"J": list(j_values)} if fam.t_rule is not None else {}
    ranges["max_n" if fam.kind == COEFF else "max_arg"] = bound
    ranges["checked"] = checked
    millis = 1000 * (time.perf_counter() - start)
    return VerifyReport(
        family_id=fam.id,
        sequence=fam.sequence,
        t_rule=fam.t_rule_str(),
        arg_rule=fam.arg_rule_str(),
        modulus=fam.modulus,
        ranges=ranges,
        status="pass" if cex is None else "fail",
        counterexample=cex,
        millis=millis,
    )


def _budget_for(fam: CongruenceFamily, profile: str) -> int:
    if fam.kind == OVERPARTITION:
        return OVC_MIN_BUDGET
    if fam.kind == COEFF:
        return COEFF_BUDGET
    if profile == "full" and fam.id in ("v1-2b", "v1-2c"):
        return FULL_BUDGET
    return DEFAULT_BUDGET


def verify_all(profile: str = "quick", ids=None, j_values=None,
               n_budget: int | None = None) -> list[VerifyReport]:
    """Sweep every registered family (or the selected ids), in order.

    quick: arguments to 20000 (50000 for the overpartition tables, n to
           1500 for the coefficient families);
    full:  additionally pushes the deep a=1 families to 150000.
    `j_values` and `n_budget` apply to every selected family; `None` takes
    the profile's value.  Families share one cache, sized once up front
    at the largest order any of them reads.
    """
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    fams = registry() if ids is None else [lookup(i) for i in ids]
    if not fams:
        raise ValueError("no families selected")
    plans = [(fam, *_sweep_plan(fam, j_values, n_budget, profile)) for fam in fams]
    cache = SweepCache()
    cache.reserve(*(lengths for *_, lengths in plans))
    return [verify_family(fam, js, budget, cache) for fam, js, budget, _ in plans]
