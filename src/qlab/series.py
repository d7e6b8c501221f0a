"""Exact truncated power series and polynomials over the integers.

A Series holds the coefficients of q^0 .. q^(order-1); coefficients at or
beyond the truncation order are *unknown*, not zero.  Binary operations
propagate the minimum valid order and never pad with fictitious zeros, so
two series can only ever be compared over the range both actually know.
All arithmetic is exact (arbitrary-precision integers); there is no
floating point anywhere in this package.

Multiplication and division are sparse-aware: the kernel iterates over the
nonzero terms of the sparser operand, which makes products and quotients by
theta/pentagonal series cost O(order * nnz) instead of O(order^2).  For two
dense operands ``_mul_kronecker`` packs each into one int and does a single
big-int multiply; ``Series.__mul__`` does not use it.

Division can also reduce every quotient coefficient mod M.  That residue
route works in blocks of coefficients: the divisor terms that reach back a
whole block or more add their share to a block at once, as shifts and sums
of ints that pack the finished residues in 32-bit slots (64-bit when the
slot bound (M-1) * (1 + sum of the far weights) < 2**32 fails, the scalar
loop when that fails too).  The nearer terms run in the scalar recurrence,
as every term does on the exact route.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Sequence


class SeriesError(Exception):
    """Base class for series-kernel errors."""


class NonUnitConstant(SeriesError):
    """Inversion/division requires a constant coefficient of +1 or -1."""


class BadResidue(SeriesError):
    """Dissection residue out of range."""


class OutOfRange(SeriesError):
    """Coefficient index at or beyond the truncation order."""


def _terms_of(coeffs) -> list[tuple[int, int]]:
    """Nonzero (exponent, coefficient) pairs, ascending exponent."""
    return [(e, c) for e, c in enumerate(coeffs) if c]


def _mul_dense_terms(u: Sequence[int], terms, order: int) -> list[int]:
    """out = u * sum(c*q^e for e, c in terms), truncated to `order`.

    `u` may be shorter than `order`; missing entries are treated as zero
    (the caller guarantees they really are zero, e.g. sparse numerators).
    """
    out = [0] * order
    nu = min(len(u), order)
    for e, c in terms:
        if e >= order:
            break
        m = min(nu, order - e)
        seg = out[e:e + m]
        if c == 1:
            out[e:e + m] = [x + y for x, y in zip(seg, u)]
        elif c == -1:
            out[e:e + m] = [x - y for x, y in zip(seg, u)]
        else:
            out[e:e + m] = [x + c * y for x, y in zip(seg, u)]
    return out


def _pack(values: Sequence[int], size: int) -> int:
    """sum(v * 256**(size*i)) for nonnegative v < 256**size."""
    return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in values]), "little")


def _max_bits(values: Sequence[int]) -> int:
    """Bit length of the largest |v|; 0 when every v is 0 (or none is given)."""
    return max(max(values, default=0), -min(values, default=0)).bit_length()


def _mul_kronecker(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    """Dense a * b truncated to `order`, by one big-int multiply.

    Each operand becomes one int with coefficient i in slot i: its positive
    and its negative parts are packed apart and subtracted.  A product
    coefficient is a sum of at most min(len) terms, each below
    2**(bits(a) + bits(b)) in size, so a slot of `width` bits, one more for
    the sign, rounded up to whole bytes, holds it.  Adding half a slot to
    every slot of the product makes each one nonnegative, so the bytes
    split into slots without borrows and each slot gives its coefficient
    back less that bias.  Missing entries of a short operand are zeros.
    """
    a, b = a[:order], b[:order]
    bits_a, bits_b = _max_bits(a), _max_bits(b)
    if not bits_a or not bits_b:
        return [0] * order
    width = bits_a + bits_b + min(len(a), len(b)).bit_length() + 1
    size = (width + 7) // 8
    half = 1 << (8 * size - 1)
    x = _pack([c if c > 0 else 0 for c in a], size) - _pack([-c if c < 0 else 0 for c in a], size)
    y = _pack([c if c > 0 else 0 for c in b], size) - _pack([-c if c < 0 else 0 for c in b], size)
    nbytes = size * order
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * order, "little")
    buf = ((x * y + bias) & ((1 << 8 * nbytes) - 1)).to_bytes(nbytes, "little")
    return [int.from_bytes(buf[i:i + size], "little") - half for i in range(0, nbytes, size)]


def _mul_pairs(ta, tb, order: int) -> list[int]:
    """Sparse * sparse product of term lists, truncated to `order`."""
    out = [0] * order
    for ea, ca in ta:
        if ea >= order:
            break
        for eb, cb in tb:
            e = ea + eb
            if e >= order:
                break
            out[e] += ca * cb
    return out


# Quotient coefficients per block on the residue route.  128-512 measured
# within 3% of each other on prefactor_a(150001, 192); 512 was fastest.
_BLOCK = 512

# slot width in bits -> array typecode of that item size.  The packed
# blocks are little-endian ints, so a big-endian host runs the plain loop.
_SLOT_CODES = ({array(tc).itemsize * 8: tc for tc in "QLI"}
               if sys.byteorder == "little" else {})


def _div_terms(u: Sequence[int], dterms, order: int, mod: int = 0) -> list[int]:
    """Long division of u by the series with nonzero terms `dterms`.

    The divisor's lowest term must be (0, +1) or (0, -1).  Exact over the
    integers because the leading coefficient is a unit.  With `mod` > 0 each
    quotient coefficient is reduced into [0, mod) as the recurrence produces
    it, so the integers stay small and the result is congruent to the exact
    quotient mod `mod`.

    The residue route works through the quotient in blocks of `_BLOCK`
    coefficients.  A divisor term q^e with e >= _BLOCK only reads finished
    blocks, so its whole contribution to a block is one shift of a packed
    int: every finished block is kept as B slots of `width` bits, and two
    neighbouring blocks side by side hold any window of B residues.  The far
    terms enter with the weights w = (-c) mod `mod`, so no slot borrows, and
    a slot of the block sum is at most (mod-1) * sum(w), so it cannot carry
    while (mod-1) * (1 + sum(w)) < 2**width.  The width is 32 bits, or 64
    when that bound fails; when it fails for 64 too, every term runs in the
    scalar recurrence.  The terms with e < _BLOCK always do, and that
    recurrence makes the final reduction.  The exact route (`mod` == 0) is
    the same loop with one block and every term near.
    """
    if mod < 0:
        raise ValueError(f"modulus {mod} must be >= 0")
    e0, lead = dterms[0]
    if e0 != 0 or lead not in (1, -1):
        raise NonUnitConstant("divisor constant term must be +1 or -1")
    if lead == -1:                    # u/d = (-u)/(-d)
        u = [-c for c in u[:order]]
        dterms = [(e, -c) for e, c in dterms]
    tail = [(e, c) for e, c in dterms[1:] if e < order]
    far = [(e, -c % mod) for e, c in tail if e >= _BLOCK and c % mod] if mod else []
    width = 0
    if far:
        bound = (mod - 1) * (1 + sum(w for _, w in far))
        width = next((b for b in (32, 64) if bound < 1 << b and b in _SLOT_CODES), 0)
    groups: dict[int, list[tuple[int, int]]] = {}
    if width:
        step = _BLOCK
        tail = [(e, c) for e, c in tail if e < _BLOCK]
        # block k reads the window of term e as pairs[k + dj] >> shift,
        # where pairs[j] holds blocks j-1 and j (block j in the high slots)
        for e, w in far:
            dj, o = divmod(_BLOCK - 1 - e, _BLOCK)
            groups.setdefault(w, []).append((dj, (o + 1) * width))
    else:
        step = max(order, 1)
    # split the near terms into +1 / -1 / general coefficient groups so the
    # hot loop does no multiplications for eta-style divisors
    plus = [e for e, c in tail if c == 1]
    minus = [e for e, c in tail if c == -1]
    rest = [(e, c) for e, c in tail if c not in (1, -1)]
    warm = max([e for e, _ in tail], default=0)
    r = [0] * order
    pairs: list[int] = []
    prev = 0
    bits = step * width
    mask = (1 << bits) - 1
    for k, s in enumerate(range(0, order, step)):
        hi = min(order, s + step)
        base = list(u[s:hi])
        base += [0] * (hi - s - len(base))
        if groups:
            far_sum = 0
            for w, terms in groups.items():
                part = 0
                for dj, shift in terms:
                    if k + dj < 0:
                        break
                    part += pairs[k + dj] >> shift
                far_sum += w * part
            slots = array(_SLOT_CODES[width], (far_sum & mask).to_bytes(bits // 8, "little"))
            base = [x + y for x, y in zip(base, slots)]
        mid = min(hi, max(s, warm))
        for n, acc in zip(range(s, mid), base):
            for e in plus:
                if e > n:
                    break
                acc -= r[n - e]
            for e in minus:
                if e > n:
                    break
                acc += r[n - e]
            for e, c in rest:
                if e > n:
                    break
                acc -= c * r[n - e]
            r[n] = acc % mod if mod else acc
        for n, acc in zip(range(mid, hi), base[mid - s:]):
            for e in plus:
                acc -= r[n - e]
            for e in minus:
                acc += r[n - e]
            for e, c in rest:
                acc -= c * r[n - e]
            r[n] = acc % mod if mod else acc
        if groups and hi < order:
            block = int.from_bytes(array(_SLOT_CODES[width], r[s:hi]).tobytes(), "little")
            pairs.append(prev | block << bits)
            prev = block
    return r


class Series:
    """Truncated power series with exact integer coefficients.

    Immutable after construction, so safe to share.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[int], order: int | None = None):
        cs = tuple(coeffs)
        if order is not None and order != len(cs):
            raise ValueError(f"order {order} != number of coefficients {len(cs)}")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", len(cs))

    def __setattr__(self, *a):
        raise AttributeError("Series is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls([0] * order)

    @classmethod
    def one(cls, order: int) -> Series:
        return cls.from_terms([(0, 1)], order)

    @classmethod
    def from_terms(cls, terms, order: int) -> Series:
        """Series from sparse (exponent, coefficient) pairs.

        The caller asserts every omitted exponent below `order` is zero.
        """
        cs = [0] * order
        for e, c in terms:
            if 0 <= e < order:
                cs[e] += c
            elif e < 0:
                raise ValueError("negative exponent")
        return cls(cs)

    # -- inspection ---------------------------------------------------

    def coeff(self, n: int) -> int:
        """Coefficient of q^n; OutOfRange beyond the truncation order."""
        if not 0 <= n < self.order:
            raise OutOfRange(f"coefficient {n} unknown at order {self.order}")
        return self.coeffs[n]

    def nonzero_terms(self) -> list[tuple[int, int]]:
        return _terms_of(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def valuation(self) -> int | None:
        """Exponent of the lowest nonzero coefficient, None if zero."""
        for e, c in enumerate(self.coeffs):
            if c:
                return e
        return None

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        more = ", ..." if self.order > 8 else ""
        return f"Series([{shown}{more}], order={self.order})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return Series([a[i] + b[i] for i in range(n)])

    def __sub__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return Series([a[i] - b[i] for i in range(n)])

    def __neg__(self) -> Series:
        return Series([-c for c in self.coeffs])

    def scale(self, k: int) -> Series:
        return Series([k * c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        order = min(self.order, other.order)
        ta = _terms_of(self.coeffs[:order])
        tb = _terms_of(other.coeffs[:order])
        if not ta or not tb:
            return Series.zero(order)
        # pairwise when both operands are sparse, otherwise run the
        # sparser term list against the denser coefficient array
        if len(ta) * len(tb) <= 4 * order:
            return Series(_mul_pairs(ta, tb, order))
        if len(ta) <= len(tb):
            return Series(_mul_dense_terms(other.coeffs, ta, order))
        return Series(_mul_dense_terms(self.coeffs, tb, order))

    __rmul__ = __mul__

    def invert(self) -> Series:
        """Multiplicative inverse; requires constant coefficient +-1."""
        dterms = _terms_of(self.coeffs)
        if not dterms:
            raise NonUnitConstant("cannot invert the zero series")
        return Series(_div_terms([1], dterms, self.order))

    def div(self, other: Series) -> Series:
        """self / other, exact; other must have constant coefficient +-1."""
        order = min(self.order, other.order)
        dterms = _terms_of(other.coeffs[:order])
        if not dterms:
            raise NonUnitConstant("division by the zero series")
        return Series(_div_terms(self.coeffs[:order], dterms, order))

    def __truediv__(self, other: Series) -> Series:
        return self.div(other)

    # -- reindexing ---------------------------------------------------

    def shift(self, k: int) -> Series:
        """Multiply by q^k; the k new low coefficients are known zeros."""
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        return Series((0,) * k + self.coeffs)

    def substitute_power(self, m: int) -> Series:
        """q -> q^m; order grows to order*m (gaps are known zeros)."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        if m == 1:
            return self
        cs = [0] * (self.order * m)
        for e, c in enumerate(self.coeffs):
            cs[e * m] = c
        return Series(cs)

    def substitute_negq(self) -> Series:
        """q -> -q: negate every odd-exponent coefficient."""
        return Series([-c if e & 1 else c for e, c in enumerate(self.coeffs)])

    def dissect(self, m: int, r: int) -> Series:
        """Coefficients on the progression m*n + r, reindexed by n."""
        if not 0 <= r < m:
            raise BadResidue(f"residue {r} not in [0, {m})")
        return Series(self.coeffs[r::m])

    def truncate(self, order: int) -> Series:
        if order > self.order:
            raise OutOfRange(f"cannot extend order {self.order} to {order}")
        return Series(self.coeffs[:order])

    # -- comparison ---------------------------------------------------

    def eq(self, other: Series) -> bool:
        """Exact equality over the common order."""
        return self.first_mismatch(other) is None

    def eq_mod(self, other: Series, m: int) -> bool:
        """Congruence of all shared coefficients mod m (m=0 means exact)."""
        return self.first_mismatch(other, m) is None

    def first_mismatch(self, other: Series, m: int = 0) -> int | None:
        """Lowest exponent where the series differ (mod m), else None."""
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        if m == 0:
            for i in range(n):
                if a[i] != b[i]:
                    return i
        else:
            for i in range(n):
                if (a[i] - b[i]) % m:
                    return i
        return None


def eq_mod(a: Series, b: Series, m: int) -> bool:
    return a.eq_mod(b, m)


def coeff_at(a: Series, n: int) -> int:
    return a.coeff(n)


# ---------------------------------------------------------------------
# Exact polynomials (no truncation)
# ---------------------------------------------------------------------


class Poly:
    """Exact integer polynomial; () is the zero polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> int:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __add__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly([other * c for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def eval_at(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def poly_mul(a: Poly, b: Poly) -> Poly:
    return a * b


def poly_pow_mod(p: Poly, e: int, m: int) -> Poly:
    """p**e with coefficients reduced into [0, m) at every step."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if e < 0:
        raise ValueError("negative polynomial power")

    def red(x: Poly) -> Poly:
        return Poly([c % m for c in x.coeffs])

    result = red(Poly([1]))
    base = red(p)
    while e:
        if e & 1:
            result = red(result * base)
        e >>= 1
        if e:
            base = red(base * base)
    return result


def series_of_rational(num: Poly, den: Poly, order: int) -> Series:
    """Power-series expansion of num/den to `order`; den(0) must be +-1."""
    dterms = _terms_of(den.coeffs)
    if not dterms:
        raise NonUnitConstant("division by the zero polynomial")
    return Series(_div_terms(list(num.coeffs), dterms, order))
