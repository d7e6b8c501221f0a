"""Exact truncated power series and polynomials over the integers.

A Series holds the coefficients of q^0 .. q^(order-1); coefficients at or
beyond the truncation order are *unknown*, not zero.  Binary operations
propagate the minimum valid order and never pad with fictitious zeros, so
two series can only ever be compared over the range both actually know.
All arithmetic is exact (arbitrary-precision integers); there is no
floating point anywhere in this package.

There is one product kernel.  Every product of two coefficient lists,
``Series.__mul__`` and ``Poly.__mul__`` (and so ``_power`` and
``poly_pow_mod``) included, is one ``_mul_kronecker``: each operand is
packed into one int and a single big-int multiply gives every
coefficient.  There is no sparse product; a theta or pentagonal operand
is packed like any other.  Division is sparse-aware: a quotient by a
divisor with nnz nonzero terms costs O(order * nnz).

Every packed int is made by ``_pack(values, size)`` and read by
``_unpack(x, size, n)``, value i in slot i of `size` bytes: one ``array``
of 1, 2, 4 or 8 bytes (byte-swapped on a big-endian host), for 3, 5, 6 and
7 bytes the next wider one with its slots narrowed or widened by strided
byte copies, and entry by entry above 8 bytes.  Signed values go through
one pair on top of those, ``_pack_signed`` and ``_unpack_signed``, by a
half-slot bias: the Kronecker product packs and reads through it, and the
packed rows of ``macmahon.direct_utilde`` decode through it.

Every slot is a whole number of bytes.  A product takes the narrowest that
holds its largest coefficient with the sign; a residue kernel takes
``_slot_width``, the narrowest, at least one byte, that holds its bound
without a carry, so every modulus has a width and the residue routes run
on packed slots alone.

Division can also reduce every quotient coefficient mod M.  Past one block
that residue route runs a block of coefficients at a time: every divisor
term adds its share from the finished blocks as shifts and sums of ints
that pack the finished residues (16-bit slots for M = 192 and weights of
size 1), the terms grouped by the sign of their signed residue; then one
packed multiply by G, the inverse of the divisor mod (q^block, M), solves
the block.  The exact route runs the scalar recurrence, one loop over the
quotient index, and so does a residue division of at most one block.
``Series.__pow__``, ``Poly.__pow__`` and ``poly_pow_mod`` share one
square-and-multiply, ``_power``.

``_conv_terms`` reads a product u * sum(c*q^e) at chosen exponents only, as
the closed forms need it.  On residues it reads u mod M: it packs one
column u[s::A] per residue class s mod A that it reads, A the gcd of the
differences of the exponents asked for, in slots of ``_slot_width`` under
the bound over the weights c mod M.  A column that one min and one max
show to lie in [0, M) is packed as it is; any other is reduced entry by
entry first.  Exact products run a scalar loop.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Sequence
from math import gcd
from operator import add, mul, sub


class SeriesError(Exception):
    """Base class for series-kernel errors."""


class NonUnitConstant(SeriesError):
    """Inversion/division requires a constant coefficient of +1 or -1."""


class BadResidue(SeriesError):
    """Dissection residue out of range."""


class OutOfRange(SeriesError):
    """Coefficient index at or beyond the truncation order."""


class _ReadOnly:
    """Refuses every attribute store and delete after construction; the one
    immutability rule of qlab's records.  A subclass sets its fields once,
    through ``object.__setattr__`` or its ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


def _terms_of(coeffs) -> list[tuple[int, int]]:
    """Nonzero (exponent, coefficient) pairs, ascending exponent."""
    return [(e, c) for e, c in enumerate(coeffs) if c]


def _power(base, e: int, one, mul):
    """base**e for e >= 0 by square-and-multiply; `one` is the identity and
    `mul(x, y)` the product, so a caller can reduce after every step."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


_ARRAY_CODES = {array(tc).itemsize: tc for tc in "QLIHB"}


def _pack(values: Iterable[int], size: int) -> int:
    """sum(v * 256**(size*i)) for nonnegative v < 256**size.

    A size with no array code of its own up to 8 bytes (3, 5, 6, 7) goes
    through the next wider array: byte j of every slot is copied by one
    strided slice, out[j::size] = raw[j::wide].  A size above 8 packs
    entry by entry.
    """
    wide = min((w for w in _ARRAY_CODES if w >= size), default=0)
    if not wide:
        return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in values]), "little")
    slots = array(_ARRAY_CODES[wide], values)
    if sys.byteorder == "big":
        slots.byteswap()
    raw = slots.tobytes()
    if wide > size:
        out = bytearray(size * len(slots))
        for j in range(size):
            out[j::size] = raw[j::wide]
        raw = out
    return int.from_bytes(raw, "little")


def _unpack(x: int, size: int, n: int) -> Sequence[int]:
    """The low n slots of x (taken mod 256**(size*n)), slot 0 first.

    The inverse of ``_pack``: an array of the next wider size for sizes up
    to 8, filled by strided byte copies when it is wider; a list above 8.
    """
    data = (x & ((1 << 8 * size * n) - 1)).to_bytes(size * n, "little")
    wide = min((w for w in _ARRAY_CODES if w >= size), default=0)
    if not wide:
        return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
    if wide > size:
        buf = bytearray(wide * n)
        for j in range(size):
            buf[j::wide] = data[j::size]
        data = buf
    slots = array(_ARRAY_CODES[wide], data)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _bias(size: int, n: int) -> int:
    """Half a slot, 2**(8*size - 1), in each of n slots of `size` bytes.

    The run of filled slots doubles by one shift and or per step, linear
    in the size.  The closed form half * (B**n - 1) / (B - 1), B =
    256**size, divides by a number as wide as a slot, which took 1.5 s for
    the 67 slots of 12501 bytes that a product with 2**100000 packs.
    """
    width = 8 * size
    bias, filled = 1 << width - 1, 1
    while filled < n:
        bias |= bias << width * filled
        filled *= 2
    return bias & ((1 << width * n) - 1)


def _pack_signed(values: Sequence[int], size: int) -> int:
    """sum(c_i * 256**(size*i)) for signed c_i, every |c_i| < 2**(8*size - 1).

    The mirror of ``_unpack_signed``: each value goes into its slot plus
    half a slot, so ``_pack`` sees only nonnegative values, and the bias
    comes off the whole int at once.
    """
    half = 1 << (8 * size - 1)
    return _pack([c + half for c in values], size) - _bias(size, len(values))


def _unpack_signed(x: int, size: int, n: int) -> list[int]:
    """The low n slots of x read as signed values c_i, slot 0 first.

    x must equal sum(c_i * 256**(size*i)) mod 256**(size*n) with every
    |c_i| < 2**(8*size - 1).  Adding half a slot to each of the n slots
    makes every one nonnegative, so ``_unpack`` reads them without borrows,
    each its value plus that bias.
    """
    half = 1 << (8 * size - 1)
    return [v - half for v in _unpack(x + _bias(size, n), size, n)]


def _max_bits(values: Sequence[int]) -> int:
    """Bit length of the largest |v|; 0 when every v is 0 (or none is given)."""
    return max(max(values, default=0), -min(values, default=0)).bit_length()


def _mul_kronecker(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    """a * b truncated to `order`, by one big-int multiply; the product of
    any two coefficient lists, however sparse.

    Each operand becomes one int with coefficient i in slot i, packed once
    by ``_pack_signed``.  A product coefficient is a sum of at most min(len)
    terms, each below 2**(bits(a) + bits(b)) in size, so a slot of `width`
    bits, one more for the sign, rounded up to whole bytes, holds it, and
    ``_unpack_signed`` reads the product's slots.  Missing entries of a
    short operand are zeros.
    """
    a, b = a[:order], b[:order]
    bits_a, bits_b = _max_bits(a), _max_bits(b)
    if not bits_a or not bits_b:
        return [0] * order
    width = bits_a + bits_b + min(len(a), len(b)).bit_length() + 1
    size = (width + 7) // 8
    return _unpack_signed(_pack_signed(a, size) * _pack_signed(b, size), size, order)


# Quotient coefficients per block on the residue route.  On
# prefactor_a(150001, 192) (one division at order 50001, one at 150001,
# 16-bit carry slots and 24-bit G slots), 256, 512 and 1024 took 0.211,
# 0.195 and 0.216 s of CPU (medians of 7 alternated runs, 2-vCPU VM,
# Python 3.11); overpartition_gf(50001, 192) 0.035, 0.035, 0.036 s.
_BLOCK = 512

# The residue division's carry slots are the narrowest that hold a chunk of
# this many terms of the heaviest weight (or all terms of one sign).  One
# chunk's unpack per block costs about as much as 50 shifts of a 16-bit
# window: on prefactor_a(150001, M), with G on 32-bit slots, 16-bit chunks
# of 36 psi terms ran within noise of 32-bit slots at M = 1728, and chunks
# of 15 ran 30% slower at M = 4096.
_CHUNK_TERMS = 64

def _slot_width(mod: int, weights) -> int:
    """Bits per packed slot, the narrowest whole number of bytes, at least
    one, that holds (mod-1) * (1 + sum(weights)) without a carry."""
    bound = (mod - 1) * (1 + sum(weights))
    return 8 * ((bound.bit_length() + 7) // 8 or 1)


def _div_terms(u: Sequence[int], dterms, order: int, mod: int = 0) -> list[int]:
    """Long division of u by the series with nonzero terms `dterms`.

    The divisor's lowest term must be (0, +1) or (0, -1).  Exact over the
    integers because the leading coefficient is a unit.  With `mod` > 0 each
    quotient coefficient is reduced into [0, mod), so the integers stay small
    and the result is congruent to the exact quotient mod `mod`.

    Past one block, the residue route runs in blocks of B = `_BLOCK`
    coefficients and no coefficient runs the scalar recurrence.  With D the
    divisor and G = 1/D mod (q^B, mod), found once by the scalar loop at
    order B, block k of the quotient is ((u_k - carry_k) mod `mod`) * G mod
    q^B, each coefficient reduced: one multiply of two ints that pack B
    residues in slots of the `_slot_width` fitted to the weights G, since a
    product slot is at most (mod-1) * sum(G).  carry_k is the share of every
    divisor term q^e that falls on finished blocks.  Each finished block is
    kept as B packed slots, and pairs[j] holds blocks j-1 and j side by side
    (block j in the high slots), so the window of term e is one shift of a
    pair; while block k runs, pairs[k] holds block k-1 alone, which is the
    window of a term with e < B.  Each term enters with the signed residue
    c' of its coefficient, |c'| <= mod/2: the terms with c' > 0 are
    subtracted, those with c' < 0 added.  Each sign is cut into chunks whose
    slot bound (mod-1) * (1 + sum|c'|) fits the carry width, the narrowest
    that holds `_CHUNK_TERMS` terms of the heaviest weight or every term of
    one sign: 16 bits for mod 192 and weights +-1 or +-2, two thirds of the
    bytes of every shift that 24-bit slots would take.  A chunk is summed
    on its packed slots, by weight, and unpacked once per block by
    ``_unpack``.  Every modulus has a width, however wide, so only an order
    of at most B runs every coefficient through the scalar recurrence, as
    every one does on the exact route (`mod` == 0).  That recurrence is one
    loop over the quotient index n: each divisor term q^e with e <= n takes
    its coefficient times r[n-e] off, the terms grouped as +1, -1 and the
    rest, so a divisor with coefficients +-1, such as an eta factor,
    multiplies nothing.

    An empty `dterms`, the zero divisor, raises NonUnitConstant; the Series
    and Poly divisions leave that check to this one place.
    """
    if mod < 0:
        raise ValueError(f"modulus {mod} must be >= 0")
    if not dterms:
        raise NonUnitConstant("division by the zero series")
    e0, lead = dterms[0]
    if e0 != 0 or lead not in (1, -1):
        raise NonUnitConstant("divisor constant term must be +1 or -1")
    if lead == -1:                    # u/d = (-u)/(-d)
        u = [-c for c in u[:order]]
        dterms = [(e, -c) for e, c in dterms]
    tail = [(e, c) for e, c in dterms[1:] if e < order]
    if mod and order > _BLOCK:
        step = _BLOCK
        g = _div_terms([1], [(0, 1)] + [(e, c) for e, c in tail if e < step], step, mod)
        half = (mod - 1) // 2
        signed = [(e, (c + half) % mod - half) for e, c in tail]
        signed = [(e, w) for e, w in signed if w]
        gwidth = _slot_width(mod, g)
        most = max(sum(w for _, w in signed if w > 0), -sum(w for _, w in signed if w < 0))
        top = max((abs(w) for _, w in signed), default=0)
        width = _slot_width(mod, [min(most, _CHUNK_TERMS * top)])
        # (sign, {|c'|: [(dj, shift), ...]}) per chunk: block k reads the
        # window of term e as pairs[k + dj] >> shift
        chunks: list[tuple[int, dict[int, list[tuple[int, int]]]]] = []
        for sign in (1, -1):
            chunk: dict[int, list[tuple[int, int]]] = {}
            total = 0
            for e, w in signed:
                w *= sign
                if w < 0:
                    continue
                if not chunk or _slot_width(mod, [total + w]) > width:
                    chunk, total = {}, 0
                    chunks.append((sign, chunk))
                total += w
                dj, o = divmod(step - 1 - e, step)
                chunk.setdefault(w, []).append((dj, (o + 1) * width))
        size, gsize = width // 8, gwidth // 8
        ginv = _pack(g, gsize)
        rmod = mod.__rmod__
        r = [0] * order
        pairs: list[int] = []
        prev = 0
        for k, s in enumerate(range(0, order, step)):
            pairs.append(prev)
            hi = min(order, s + step)
            acc = list(u[s:hi])
            acc += [0] * (hi - s - len(acc))
            for sign, chunk in chunks:
                carry = 0
                for w, terms in chunk.items():
                    part = 0
                    for dj, shift in terms:
                        if k + dj < 0:
                            break
                        part += pairs[k + dj] >> shift
                    carry += w * part
                if carry:
                    acc = list(map(sub if sign > 0 else add, acc, _unpack(carry, size, hi - s)))
            quot = _unpack(_pack(map(rmod, acc), gsize) * ginv, gsize, hi - s)
            block = list(map(rmod, quot))
            r[s:hi] = block
            if hi < order:
                prev = _pack(block, size)
                pairs[k] |= prev << step * width
        return r
    # split the terms into +1 / -1 / general coefficient groups so the
    # hot loop does no multiplications for eta-style divisors
    plus = [e for e, c in tail if c == 1]
    minus = [e for e, c in tail if c == -1]
    rest = [(e, c) for e, c in tail if c not in (1, -1)]
    r = [0] * order
    base = list(u[:order])
    base += [0] * (order - len(base))
    for n, acc in enumerate(base):
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
    return r


def _conv_terms(u: Sequence[int], terms, args: Sequence[int], mod: int = 0) -> list[int]:
    """[q^x] of u * sum(c*q^e for e, c in terms) for each x in `args`.

    `terms` ascend in e, and u holds at least max(args) + 1 coefficients
    (else IndexError).  With `mod` > 0 every c and every entry of u is
    read mod `mod`, so the values are congruent to the exact ones, though
    not reduced.  On that residue route the sums run on packed slots.

    The arguments lie in one class B mod A, A the gcd of their differences
    (max(args) + 1 for one argument), so x = B + A*i reads u only on the
    columns u[s::A]: term q^e reads row i - j of column s = (B - e) mod A,
    with j = (e - B + s) / A.  Each column a term reads is packed once by
    ``_pack``, rows reversed, one row per slot of `width` bits, so
    pack_s >> (j * width) holds row i - j in slot i (slots counted from the
    top) and drops the rows no argument reads.  One ``min`` and one ``max``
    over the column decide whether it is reduced first: a column already in
    [0, `mod`), such as a residue expansion, is packed as it is, and only a
    column with an entry outside that range is reduced entry by entry.
    The terms are summed by weight w = c mod `mod`, each group's shifted
    packs once times w, and ``_unpack`` reads the one sum.  A slot then
    holds exactly the scalar sum, at most (mod-1) * sum(w), so it cannot
    carry while (mod-1) * (1 + sum(w)) < 2**width; ``_slot_width`` picks
    the width, which every modulus has.  Only the exact products
    (`mod` == 0) run in the scalar loop.
    """
    if not args:
        return []
    low, top = min(args), max(args)
    if len(u) <= top:
        raise IndexError(f"u holds {len(u)} coefficients, argument {top} needs {top + 1}")
    if not mod:
        out = []
        for x in args:
            acc = 0
            for e, c in terms:
                if e > x:
                    break
                acc += c * u[x - e]
            out.append(acc)
        return out
    terms = [(e, c % mod) for e, c in terms if c % mod]
    width = _slot_width(mod, [w for _, w in terms])
    step = gcd(*map(low.__rsub__, args)) or top + 1
    base = low % step
    rows = (top - base) // step + 1
    packs: dict[int, int] = {}
    groups: dict[int, list[tuple[int, int]]] = {}
    for e, w in terms:
        if e > top:
            break
        s = (base - e) % step
        if s not in packs:
            col = u[s:top + 1:step][::-1]
            if min(col) < 0 or max(col) >= mod:
                col = list(map(mod.__rmod__, col))
            packs[s] = _pack(col, width // 8) << (rows - len(col)) * width
        groups.setdefault(w, []).append((s, (e - base + s) // step * width))
    total = sum(w * sum(packs[s] >> shift for s, shift in group)
                for w, group in groups.items())
    slots = _unpack(total, width // 8, rows)[::-1]     # row i at index i
    if step == 1:       # then base is 0: row x holds argument x
        return list(map(slots.__getitem__, args))
    return [slots[(x - base) // step] for x in args]


class Series(_ReadOnly):
    """Truncated power series with exact integer coefficients.

    Read-only after construction, so safe to share.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def order(self) -> int:
        """The truncation order: coefficients of q^0 .. q^(order-1) are known."""
        return len(self.coeffs)

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
        return Series(_mul_kronecker(self.coeffs, other.coeffs, min(self.order, other.order)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Series:
        """self**e for e >= 0 by repeated squaring, at the same order."""
        if e < 0:
            raise ValueError("negative series power; invert first")
        return _power(self, e, Series.one(self.order), mul)

    def invert(self) -> Series:
        """Multiplicative inverse; requires constant coefficient +-1."""
        return Series(_div_terms([1], _terms_of(self.coeffs), self.order))

    def div(self, other: Series) -> Series:
        """self / other, exact; other must have constant coefficient +-1."""
        order = min(self.order, other.order)
        return Series(_div_terms(self.coeffs[:order], _terms_of(other.coeffs[:order]), order))

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
        a, b = self.coeffs, other.coeffs
        for i in range(min(self.order, other.order)):
            if a[i] != b[i] and (not m or (a[i] - b[i]) % m):
                return i
        return None


# ---------------------------------------------------------------------
# Exact polynomials (no truncation)
# ---------------------------------------------------------------------


class Poly(_ReadOnly):
    """Exact integer polynomial; () is the zero polynomial.  Read-only."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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
        return Poly(_mul_kronecker(self.coeffs, other.coeffs,
                                   len(self.coeffs) + len(other.coeffs) - 1))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative polynomial power")
        return _power(self, e, Poly([1]), mul)

    def eval_at(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def poly_pow_mod(p: Poly, e: int, m: int) -> Poly:
    """p**e with coefficients reduced into [0, m) at every step."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if e < 0:
        raise ValueError("negative polynomial power")

    def red(x: Poly) -> Poly:
        return Poly([c % m for c in x.coeffs])

    return _power(red(p), e, red(Poly([1])), lambda x, y: red(x * y))


def series_of_rational(num: Poly, den: Poly, order: int) -> Series:
    """Power-series expansion of num/den to `order`; den(0) must be +-1."""
    return Series(_div_terms(list(num.coeffs), _terms_of(den.coeffs), order))
