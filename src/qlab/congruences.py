"""Registry of congruence / vanishing / characterization families, and the
sweep engine that verifies each one exactly over parameter ranges.

Every family is a declarative record: which coefficient sequence it
constrains (a MacMahon-type m_odd family, the prefactor a(n), the
overpartition counts, or one of the c_n(a,t) coefficient families), the
rule t = alpha*J + beta when t is involved, the argument classes, and
optional side conditions.  Every kind of claim derives one table,
``CongruenceFamily.classes``: one (first argument, modulus) pair per class
of arguments, modulus 0 for "the value is 0".  The engine sweeps (J, N)
ranges, reports the smallest failing argument when a claim fails, and
never tolerates approximation: all checks are exact integer congruences.

Every family runs through one loop, ``_sweep``.  For each swept J (once,
with J = None, when no t is involved) ``_args_of`` lists the arguments in
ascending order up to the bound the report gives, ``_values`` evaluates
the sequence there, one value per argument, and ``_holds`` decides the
whole J at once: a class holds iff its modulus divides the gcd of its
values (with SWEEP_MOD on residues).  Only a J that test does not pass is
scanned with ``_verdict``, the per-value test, for its first
counterexample.  The gcd of the class gcds, with the count of nonzero
values, is the per-J row of the report.
``_bound`` is the one range policy.  ``_reads`` names and sizes every
expansion a J reads, the power-sum rows included, for the plan and
``_values`` alike, and ``SweepCache`` is the one store that holds them.
``_values`` is the only place that knows the evaluation route:

* m_odd congruence, parity and valuation claims go through the closed
  forms (prefactor array + c_n values); ``macmahon.closed_form`` names the
  prefactor each reads and its stride.
* exact m_odd claims (the vanishing families and the a=0 reinterpretation)
  read the power-sum route (``powersum_utilde``), which reads no closed
  form, so they are evidence independent of it; the a=0 support-pattern
  families would otherwise hold by construction of the closed form.  The
  reinterpretation compares that row with the closed form's a=0 even-t
  form, m_odd(-2, t/2) on 4N.
* prefactor / overpartition families read one shared expansion.
* coefficient families read one c_n(a, t) column per swept t.

A family whose every checked modulus divides SWEEP_MOD reads its prefactor
expansions reduced mod SWEEP_MOD (see ``_sweep_modulus``); exact-value
claims read exact integers.  The first failing point found on residues is
evaluated again on the exact route, so a reported counterexample carries
the exact value, and an exact value that passes raises ArithmeticError.

Relations between families are not swept.  If m divides a - a', then
U~_t(a) = U~_t(a') mod m term by term, so ``v1-mod3-13`` and ``v1-mod3-26``
follow from ``vm2-10`` and ``vm2-11``; ``tests/test_macmahon.py`` holds
that lemma.
"""

from __future__ import annotations

import time
from functools import cached_property, reduce
from itertools import islice, repeat
from math import gcd, isqrt
from operator import countOf, mod as remainder, sub

from .macmahon import PREFACTORS, closed_form, coeff_column, modd_explicit_batch, powersum_utilde
from .series import _ReadOnly

DEFAULT_BUDGET = 20000
FULL_BUDGET = 150000
OVC_MIN_BUDGET = 50000
COEFF_BUDGET = 1500
DP_WINDOW = 2000
SWEEP_MOD = 192               # 2^6 * 3: every congruence modulus in the registry divides it
# The largest argument a sweep may reach.  Every expansion a sweep reads
# holds one coefficient per argument, so a J or budget far past the
# profiles' FULL_BUDGET would ask for more memory than a machine has.
MAX_ORDER = 10 ** 6

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
# expected outcome -> the modulus of its classes; None: the record's modulus
_EXPECTED = {CONG_ZERO: None, EXACT_ZERO: 0, EQUALS_MODD_M2: 0,
             PARITY_A2N: 2, PARITY_M2_T1: 2, VALUATION_TABLE: None}


class BudgetTooSmall(ValueError):
    """No nontrivial coefficient falls inside the requested range."""


class UnknownFamily(KeyError):
    pass


class CongruenceFamily(_ReadOnly):
    """One verifiable claim about a coefficient sequence; read-only, and
    ``replace`` gives a changed copy.  The record stores the claim alone:
    what its fields determine (``j_min``, ``classes``) is derived."""

    _FIELDS = ("id", "kind", "a", "expected", "modulus", "t_rule", "arg_mod",
               "arg_residues", "val_table")

    def __init__(self, id: str,
                 kind: str,                 # MODD | COEFF | PREFACTOR_A | OVERPARTITION
                 a: int | None,             # the m_odd / c_n parameter; None for the others
                 expected: str,             # one of the expected outcomes above
                 modulus: int = 0,          # >= 2 for CONG_ZERO; 0 for exact checks
                 t_rule: tuple[int, int] | None = None,    # t = alpha*J + beta
                 arg_mod: int = 1,
                 arg_residues: tuple[int, ...] = (0,),
                 val_table: tuple[tuple[int, int], ...] = ()):  # (residue, min nu_2)
        # stored without attribute syntax: only ``classes`` and
        # ``arg_rule_str`` read the raw class fields by name
        vars(self).update(zip(self._FIELDS, (id, kind, a, expected, modulus, t_rule,
                                            arg_mod, arg_residues, val_table)))
        if expected not in _EXPECTED:
            raise ValueError(f"{id}: unknown expected kind {expected!r}")
        starts = [start for start, _ in self.classes]      # the layout ``_args_of`` needs
        if not starts or starts[-1] - starts[0] >= arg_mod \
                or len(self.class_modulus) < len(starts):
            raise ValueError(f"{id}: argument classes must differ mod {arg_mod} "
                             "and start less than arg_mod apart")

    def replace(self, **changes) -> CongruenceFamily:
        """A new family with `changes` applied, validated like any other."""
        fields = vars(self)
        return CongruenceFamily(**{name: fields[name] for name in self._FIELDS} | changes)

    @property
    def sequence(self) -> str:
        """The report label: MODD(a), COEFF(a), PREFACTOR_A or OVERPARTITION."""
        return self.kind if self.a is None else f"{self.kind}({self.a})"

    @property
    def j_min(self) -> int:
        """The least J >= 0 with t = alpha*J + beta >= 0; 0 without a t rule."""
        alpha, beta = self.t_rule or (0, 0)
        return max(0, -(beta // alpha)) if alpha else 0

    @cached_property
    def classes(self) -> tuple[tuple[int, int], ...]:
        """(first argument, modulus) per argument class first + arg_mod*N,
        ascending by first argument: every value in the class is 0 mod the
        modulus, and modulus 0 claims it is 0.  A valuation row (r, nu)
        has modulus 2^nu; a valuation or c_n class r = 0 starts at arg_mod."""
        if self.expected == VALUATION_TABLE:
            rows = [(r, 1 << nu) for r, nu in self.val_table]
        else:
            m = _EXPECTED[self.expected]
            rows = [(r, self.modulus if m is None else m) for r in self.arg_residues]
        skip_zero = self.expected == VALUATION_TABLE or self.kind == COEFF
        return tuple(sorted(((r or self.arg_mod) if skip_zero else r, m) for r, m in rows))

    @cached_property
    def class_modulus(self) -> dict[int, int]:
        """The ``classes`` lookup: x % arg_mod -> the modulus of x's class."""
        return {start % self.arg_mod: m for start, m in self.classes}

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
        """The arguments the sweep reads; a c_n family names the n it skips."""
        if self.expected == PARITY_A2N:
            return "2n, all n"
        if self.arg_mod == 1:
            return "all n"
        residues = (sorted(r for r, _ in self.val_table) if self.expected == VALUATION_TABLE
                    else self.arg_residues)
        if self.kind == COEFF:
            off = sorted(set(range(self.arg_mod)).difference(residues))
            return f"n ≢ {','.join(map(str, off))} (mod {self.arg_mod})"
        rs = ",".join(map(str, residues))
        rs = rs if len(residues) == 1 else "{" + rs + "}"
        return f"{self.arg_mod}N+{rs}"


class VerifyReport:
    """Outcome of sweeping one family: its labels are read from the family
    record, and it fails exactly when it holds a counterexample."""

    def __init__(self, family: CongruenceFamily, ranges: dict,
                 counterexample: dict | None, millis: float):
        self.family = family
        self.ranges = ranges
        self.counterexample = counterexample
        self.millis = millis

    @property
    def family_id(self) -> str:
        return self.family.id

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def checked(self) -> int:
        """Arguments compared, up to and including a counterexample."""
        return self.ranges.get("checked", 0)

    def to_json(self) -> dict:
        fam = self.family
        return {
            "id": fam.id,
            "sequence": fam.sequence,
            "t_rule": fam.t_rule_str(),
            "arg_rule": fam.arg_rule_str(),
            "modulus": fam.modulus,
            "ranges": self.ranges,
            "status": self.status,
            "counterexample": self.counterexample,
            "millis": round(self.millis, 1),
        }


def _quadratic_nonresidues(p: int) -> tuple[int, ...]:
    squares = {(r * r) % p for r in range(p)}
    return tuple(r for r in range(1, p) if r not in squares)


def _off(arg_mod: int, *excluded: int) -> dict:
    """The classes of a c_n claim that holds for n off `excluded` mod `arg_mod`."""
    return {"arg_mod": arg_mod, "arg_residues": tuple(sorted({*range(arg_mod)} - {*excluded}))}


def _build_registry() -> list[CongruenceFamily]:
    fams: list[CongruenceFamily] = []
    add = fams.append

    # ----- prefactor a(n) = [q^n] f1 f6/(f2^2 f3) ---------------------
    # a(2n) odd exactly when n=0 or n is a square not divisible by 3
    add(CongruenceFamily("a2n-parity", PREFACTOR_A, None, PARITY_A2N, modulus=2, arg_mod=2))
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
    # arguments 2(pn+r), r a quadratic nonresidue mod p
    for p in (5, 7, 11):
        residues = tuple(2 * r for r in _quadratic_nonresidues(p))
        add(CongruenceFamily(
            f"a2pn-mod2-p{p}", PREFACTOR_A, None, CONG_ZERO, modulus=2,
            arg_mod=2 * p, arg_residues=residues))
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
    for s in range(1, 6):       # even n only
        add(CongruenceFamily(
            f"cm2-1-s{s}", COEFF, -2, CONG_ZERO, modulus=2 ** (s + 1),
            t_rule=(2 ** s, -1), **_off(2, 1)))
    add(CongruenceFamily("cm2-2", COEFF, -2, CONG_ZERO, modulus=3,
                         t_rule=(27, 13), **_off(27, 13, 14)))
    add(CongruenceFamily("cm2-3", COEFF, -2, CONG_ZERO, modulus=3,
                         t_rule=(27, -1), **_off(27, 1, 26)))
    add(CongruenceFamily("c0-1a", COEFF, 0, CONG_ZERO, modulus=4,
                         t_rule=(4, -1), **_off(4, 0, 1)))
    add(CongruenceFamily("c0-1b", COEFF, 0, CONG_ZERO, modulus=8,
                         t_rule=(8, -1), **_off(4, 0, 1)))
    add(CongruenceFamily("c0-2a", COEFF, 0, CONG_ZERO, modulus=16,
                         t_rule=(32, -1), **_off(8, 0, 1)))
    add(CongruenceFamily("c0-2b", COEFF, 0, CONG_ZERO, modulus=32,
                         t_rule=(64, -1), **_off(8, 0, 1)))
    add(CongruenceFamily("c0-3", COEFF, 0, CONG_ZERO, modulus=3,
                         t_rule=(27, 12), **_off(27, 13, 15)))
    # exceptional set {0,1} mod 27: the n(n-1) support is symmetric under
    # n -> 1-n, and the leading coefficient sits at n = t+1 = 27J
    add(CongruenceFamily("c0-4", COEFF, 0, CONG_ZERO, modulus=3,
                         t_rule=(27, -1), **_off(27, 0, 1)))
    add(CongruenceFamily("c1-1", COEFF, 1, CONG_ZERO, modulus=2,
                         t_rule=(2, -1), **_off(2, 1)))
    for s in range(2, 6):
        half = 2 ** (s - 1)
        add(CongruenceFamily(
            f"c1-2-s{s}", COEFF, 1, CONG_ZERO, modulus=4,
            t_rule=(2 ** s, -1), **_off(half, 1 % half, (half - 1) % half)))
    # halving (1+z)^(64J) mod 8 stops at (1+z^16)^(4J), so the mod-8
    # support of c_n(1,64J-1) is n = +-1 mod 16 (and n^2 = 1 mod 32 still)
    add(CongruenceFamily("c1-3", COEFF, 1, CONG_ZERO, modulus=8,
                         t_rule=(64, -1), **_off(16, 1, 15)))

    # ----- m_odd(-2, t; .) --------------------------------------------
    # m_odd(-2,1;N) odd exactly when N is an odd square
    add(CongruenceFamily("m2-parity-t1", MODD, -2, PARITY_M2_T1, modulus=2, t_rule=(0, 1)))
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
    # even t: support lies on 4N
    add(CongruenceFamily("m0-even-vanish", MODD, 0, EXACT_ZERO, t_rule=(2, 0),
                         arg_mod=4, arg_residues=(1, 2, 3)))
    # m_odd(0,2t;4N) = m_odd(-2,t;N)
    add(CongruenceFamily("m0-even-reinterp", MODD, 0, EQUALS_MODD_M2, t_rule=(2, 0),
                         arg_mod=4, arg_residues=(0,)))
    # odd t: support lies on 4N+1
    add(CongruenceFamily("m0-odd-vanish", MODD, 0, EXACT_ZERO, t_rule=(2, 1),
                         arg_mod=4, arg_residues=(0, 2, 3)))
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
    # t=1: arguments 4(9n+5)+1 and 4(9n+8)+1
    add(CongruenceFamily("m0-t1-vanish", MODD, 0, EXACT_ZERO, t_rule=(0, 1),
                         arg_mod=36, arg_residues=(21, 33)))

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
                         t_rule=(27, 13), arg_mod=27, arg_residues=(25,)))
    add(CongruenceFamily("v1-mod3-26", MODD, 1, CONG_ZERO, modulus=3,
                         t_rule=(27, 26), arg_mod=27, arg_residues=(19,)))
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
    """Every expansion a sweep reads, prefactors and power-sum rows alike,
    computed once and shared read-only: one entry per (kind, param)."""

    # keyed by the lower-cased kind of the families that read each expansion,
    # "powersum" for the exact m_odd claims' rows; each builder takes
    # (order, param), the modulus of a prefactor or (a, t) of a row
    _BUILDERS = {
        **PREFACTORS,
        "powersum": lambda order, at: powersum_utilde(*at, order)[at[1]],
    }

    def __init__(self):
        self._series: dict[tuple[str, object], tuple] = {}

    def coeffs(self, kind: str, min_len: int, param=0) -> tuple:
        """At least `min_len` coefficients of (kind, param), rebuilt at
        `min_len` when shorter: a prefactor exact for param 0 and reduced
        into [0, param) otherwise, or the exact U~_t(a; q) for (a, t)."""
        key = (kind, param)
        have = self._series.get(key)
        if have is None or len(have) < min_len:
            have = self._series[key] = self._BUILDERS[kind](min_len, param).coeffs
        return have

    def reserve(self, *needs: dict[tuple[str, object], int]) -> None:
        """Build each (kind, param) entry once, at the largest length any need asks of it."""
        for kind, param in dict.fromkeys(key for need in needs for key in need):
            self.coeffs(kind, max(need.get((kind, param), 0) for need in needs), param)


def _sweep_modulus(fam: CongruenceFamily) -> int:
    """SWEEP_MOD when every modulus the family checks divides it, else 0.

    A value's residue mod SWEEP_MOD settles v % m for every such m, so the
    family can read reduced expansions; 0 means the exact route, which a
    class modulus 0 (vanishing, the a=0 reinterpretation) always takes.
    """
    return SWEEP_MOD if all(m and SWEEP_MOD % m == 0 for _, m in fam.classes) else 0


# ---------------------------------------------------------------------
# The sweep: arguments, values, verdict
# ---------------------------------------------------------------------


def _bound(fam: CongruenceFamily, t: int | None, n_budget: int) -> int:
    """The largest argument one J sweeps: the whole range policy.

    Families that are not m_odd stop at the budget.  An m_odd sweep reaches
    DP_WINDOW past the series' leading exponent t^2.  An exact claim whose
    t grows with J (alpha > 0) stops there, since each J reads a power-sum
    row whose cost grows with t; the others stop at the budget when it lies
    further.
    """
    if fam.kind != MODD:
        return n_budget
    if fam.expected in (EXACT_ZERO, EQUALS_MODD_M2) and fam.t_rule[0] > 0:
        return t * t + DP_WINDOW
    return max(n_budget, t * t + DP_WINDOW)


def _reads(fam: CongruenceFamily, t: int | None, top: int,
           mod: int) -> dict[tuple[str, object], int]:
    """{(kind, param): length} of every ``SweepCache`` entry the values at
    arguments up to `top` read, for t = `t`.

    Exact m_odd claims read the power-sum row (a, t).  A closed form reads
    the prefactor ``closed_form`` names, up to top // stride (the a=0 forms
    read x//4); the reinterpretation claim reads both.
    """
    if fam.kind in (PREFACTOR_A, OVERPARTITION):
        return {(fam.kind.lower(), mod): top + 1}
    if fam.kind != MODD:
        return {}
    reads = {}
    if fam.expected in (EXACT_ZERO, EQUALS_MODD_M2):
        reads[("powersum", (fam.a, t))] = top + 1
    if fam.expected != EXACT_ZERO:
        name, stride, *_ = closed_form(fam.a, t)
        reads[(name, mod)] = top // stride + 1
    return reads


def _args_of(fam: CongruenceFamily, t: int | None, n_budget: int) -> tuple[list[int], int]:
    """(the arguments one J checks, ascending; ``_bound``, which it reports).

    Every class of ``fam.classes`` runs from its first argument to the
    bound.  The first arguments lie within arg_mod of each other, so the
    list repeats the classes in their order: args[i] is in class i % k.
    """
    bound = _bound(fam, t, n_budget)
    args = [x for start, _ in fam.classes for x in range(start, bound + 1, fam.arg_mod)]
    args.sort()
    return args, bound


def _values(fam: CongruenceFamily, t: int | None, args: list[int],
            cache: SweepCache, mod: int) -> list[int]:
    """The family's sequence at `args`, in their order, read from
    expansions reduced mod `mod` (0: exact).

    Every expansion is fetched by kind, at the lengths ``_reads`` names.
    Exact m_odd claims read the power-sum row (a, t), the others the closed
    form.  The reinterpretation claim's value is the power-sum row less the
    closed form, whose a=0 even-t form is m_odd(-2, t/2; x/4).
    """
    if fam.kind == COEFF:
        column = coeff_column(fam.a, t, max(args))
        return list(map(column.__getitem__, args))
    exps = {k: cache.coeffs(k, n, p) for (k, p), n in _reads(fam, t, max(args), mod).items()}
    if fam.kind != MODD:
        return list(map(exps[fam.kind.lower()].__getitem__, args))
    if fam.expected == EXACT_ZERO:
        return list(map(exps["powersum"].__getitem__, args))
    values = modd_explicit_batch(fam.a, t, args, exps[closed_form(fam.a, t)[0]], mod)
    if fam.expected == EQUALS_MODD_M2:
        return list(map(sub, map(exps["powersum"].__getitem__, args), values))
    return values


def _odd_support(fam: CongruenceFamily, top: int) -> set[int]:
    """The arguments x <= top at which a parity claim wants an odd value:
    a(2n) is odd iff n = 0 or n = k^2 with 3 not dividing k (PARITY_A2N),
    and m_odd(-2,1;N) iff N is an odd square (PARITY_M2_T1)."""
    if fam.expected == PARITY_A2N:
        return {0} | {2 * k * k for k in range(1, isqrt(top // 2) + 1) if k % 3}
    return {k * k for k in range(1, isqrt(top) + 1, 2)}


def _verdict(fam: CongruenceFamily, j: int | None, x: int, v: int) -> dict | None:
    """The counterexample the value `v` at argument `x` makes against the
    family's claim, or None.

    The per-value test: ``_sweep`` calls it only on a J that ``_holds``
    did not pass, to find the first counterexample.
    """
    if fam.expected in (PARITY_A2N, PARITY_M2_T1):
        want = int(x in _odd_support(fam, x))
        return _cex(j, x, v, 2, expected=want) if v % 2 != want else None
    m = fam.class_modulus[x % fam.arg_mod]
    if not (v % m if m else v):
        return None
    if fam.expected == VALUATION_TABLE:
        return _cex(j, x, v, m, required_nu2=m.bit_length() - 1)
    return _cex(j, x, v, m)


def _holds(fam: CongruenceFamily, args: list[int], values: list[int],
           gcds: list[int]) -> bool:
    """Whether ``_verdict`` passes every value of one J, decided on the whole list.

    Sound, not exact: True implies that no value is a counterexample;
    False only sends the J to the per-value scan.  `gcds` holds, per
    class of ``fam.classes``, the gcd of `mod` and the class's values: a
    class modulus m divides every value iff it divides that gcd (m divides
    `mod` on residues), and modulus 0 holds iff the gcd is 0.  A parity
    claim holds when the arguments with odd values are its odd support.
    """
    if fam.expected in (PARITY_A2N, PARITY_M2_T1):
        return {x for x, v in zip(args, values) if v & 1} == _odd_support(fam, max(args))
    return all(g % m == 0 if m else g == 0 for (_, m), g in zip(fam.classes, gcds))


def _sweep(fam: CongruenceFamily, j_values: tuple, n_budget: int,
           cache: SweepCache) -> tuple[int, int, dict | None, list[dict]]:
    """(arguments checked, largest bound reported, first counterexample or
    None, one report row per J swept).

    ``_holds`` decides each J on one gcd per class, over every k-th value
    (see ``_args_of``); only a J it does not pass is scanned in ascending
    order with ``_verdict``, so the counterexample is its smallest failing
    argument, and the count of checked arguments stops there.  A row
    holds `nonzero` (values not 0 mod SWEEP_MOD on residues, not 0 on the
    exact route) and `observed_modulus`, gcd(mod, *values): capped at
    SWEEP_MOD on residues, 0 when every exact value is 0.
    """
    mod = _sweep_modulus(fam)
    k = len(fam.classes)
    checked = top = 0
    rows = []
    for j in j_values or (None,):
        t = None if j is None else fam.t_of(j)
        args, bound = _args_of(fam, t, n_budget)
        if not args:
            raise BudgetTooSmall(f"{fam.id}: no arguments up to {bound}")
        top = max(top, bound)
        values = _values(fam, t, args, cache, mod)
        gcds = [reduce(gcd, islice(values, i, None, k), mod) for i in range(k)]
        zeros = countOf(map(remainder, values, repeat(mod)) if mod else values, 0)
        observed = reduce(gcd, gcds)
        rows.append({"J": j, "nonzero": len(values) - zeros, "observed_modulus": observed})
        if _holds(fam, args, values, gcds):
            checked += len(args)
            continue
        for x, v in zip(args, values):
            checked += 1
            cex = _verdict(fam, j, x, v)
            if cex is None:
                continue
            if mod:     # the verdict came from residues: check the exact value
                (v,) = _values(fam, t, [x], cache, 0)
                cex = _verdict(fam, j, x, v)
                if cex is None:
                    raise ArithmeticError(
                        f"{fam.id}: residue and exact routes disagree at N={x}")
            return checked, top, cex, rows
    return checked, top, None, rows


def _cex(j, n, value, modulus, **extra):
    out = {"J": j, "N": n, "value": str(value), "modulus": modulus}
    out.update(extra)
    return out


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------


def _sweep_plan(fam: CongruenceFamily, j_values=None, n_budget: int | None = None,
                profile: str = "quick") -> tuple[tuple, int, dict[tuple[str, object], int]]:
    """(J values, budget, {(kind, param): length}) of one sweep.

    The lengths name every ``SweepCache`` entry the sweep reads: the
    ``_reads`` of each J at its ``_bound``, the largest length per entry.
    `None` takes the profile's value: J from the family's ``j_min`` on, the
    budget from ``_budget_for``.  Raises ValueError for J values the family
    cannot take, for a repeated J, for a negative budget and for a plan
    that would sweep past ``MAX_ORDER``.
    """
    if fam.t_rule is None:
        if j_values:
            raise ValueError(f"{fam.id}: the family has no t rule, so no J values")
        j_values = ()
    else:
        j_values = tuple((fam.j_min, fam.j_min + 1) if j_values is None else j_values)
        if not j_values or min(j_values) < fam.j_min:
            raise ValueError(f"{fam.id}: needs J values >= the theorem's {fam.j_min}")
        if len(set(j_values)) != len(j_values):
            raise ValueError(f"{fam.id}: repeated J values {list(j_values)}")
    if n_budget is None:
        n_budget = _budget_for(fam, profile)
    if n_budget < 0:
        raise ValueError(f"{fam.id}: budget {n_budget} must be >= 0")
    mod = _sweep_modulus(fam)
    ts = [fam.t_of(j) for j in j_values] or [None]
    top = max(_bound(fam, t, n_budget) for t in ts)
    if top > MAX_ORDER:
        raise ValueError(f"{fam.id}: the sweep would reach argument {top}, "
                         f"past MAX_ORDER = {MAX_ORDER}")
    reads = [_reads(fam, t, _bound(fam, t, n_budget), mod) for t in ts]
    return j_values, n_budget, {key: max(r.get(key, 0) for r in reads) for r in reads for key in r}


def _verify(fams: list[CongruenceFamily], profile: str, j_values, n_budget: int | None,
            cache: SweepCache) -> list[VerifyReport]:
    """Sweep `fams` in order, each planned once by ``_sweep_plan``: one
    ``reserve`` builds what the plans read before the first sweep, so a
    report's millis times its sweep alone."""
    plans = [(fam, *_sweep_plan(fam, j_values, n_budget, profile)) for fam in fams]
    cache.reserve(*(lengths for *_, lengths in plans))
    reports = []
    for fam, js, budget, _ in plans:
        start = time.perf_counter()
        checked, top, cex, per_j = _sweep(fam, js, budget, cache)
        ranges = {"J": list(js)} if fam.t_rule is not None else {}
        ranges["max_n" if fam.kind == COEFF else "max_arg"] = top
        ranges["checked"] = checked
        ranges["per_j"] = per_j
        reports.append(VerifyReport(fam, ranges, cex, 1000 * (time.perf_counter() - start)))
    return reports


def verify_family(family, j_values=None, n_budget: int | None = None,
                  cache: SweepCache | None = None) -> VerifyReport:
    """``verify_all`` over one family (by id or record) at the quick
    profile, reading and filling `cache` when one is given.  Raises
    BudgetTooSmall if some J has no argument to check, and ArithmeticError
    if the residue and exact routes disagree."""
    fam = lookup(family) if isinstance(family, str) else family
    return _verify([fam], "quick", j_values, n_budget, cache or SweepCache())[0]


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
    the profile's value.  A repeated id raises ValueError, as a repeated J
    does.  The families share one fresh cache (see ``_verify``).
    """
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    fams = registry() if ids is None else [lookup(i) for i in ids]
    if not fams:
        raise ValueError("no families selected")
    if len({fam.id for fam in fams}) != len(fams):
        raise ValueError(f"repeated families {[fam.id for fam in fams]}")
    return _verify(fams, profile, j_values, n_budget, SweepCache())
