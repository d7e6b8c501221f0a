"""Text DSL for eta/theta expressions, plus the lemma-fixture checker.

Grammar (whitespace insignificant, '#' starts a comment running to the end
of the line):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' ['-'] INT)?
    atom   := INT | 'q' | 'f' INT | NAME '(' arg ')' | '(' expr ')'
    arg    := ['-'] 'q' ('^' INT)?
    NAME   := 'phi' | 'psi' | 'P' | 'b' | 'aB'
    INT    := ASCII digits '0'..'9', one or more

The parse tree is made of read-only nodes on one base, ``_Node``: each
node class names its fields in ``__slots__``, and a node equals only a node
of the same type with equal fields, so ``IntAtom(2) != EtaAtom(2)`` and
``parse(pretty(t)) == t`` checks the type of every atom.

Evaluation is exact: every expression becomes a `Series` at a requested
order.  Quotients are handled by factoring the q-valuation out of the
denominator and requiring the remaining constant term to be +1 or -1, so
all arithmetic stays over the integers.

Each term reads its eta-quotient part in the one walk over its factors:
``_eta_form`` gives every eta or q factor, and every group holding one
positive term made only of such factors (nested, raised to any power), as
a q-valuation and an exponent map {scale: e}, and the term adds these up
into one map, equal scales cancelling.  The other factors (integers, theta atoms, groups
holding a sum) are multiplied and divided left to right as before, and,
once ``_check_eta`` has bounded the bits the quotient may take,
``special.eta_product`` applies each f_r^e: one product by f_r^e
for e > 0, |e| sparse division passes (``series._div_terms``) for e < 0.
A denominator such as /(f2^5*f6^5) thus costs ten sparse passes, not an
O(order^2) division by one dense series.

Dissection lemmas ship as data: a fixture file holds named lhs/rhs
expression pairs with a check order, and `check_fixture` confirms exact
coefficientwise equality.
"""

from __future__ import annotations

import math
import os
import re
import time
from collections import Counter

from .series import Series, _ReadOnly
from .special import borwein_a, borwein_b, eta, eta_product, pgen, phi, psi


class ExprError(ValueError):
    """Base class for DSL errors: refused input, so a ValueError."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownSymbol(ExprError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown symbol {name!r} (at offset {position})")
        self.position = position


class DivisionByNonUnit(ExprError):
    """Denominator is not a unit after factoring out its q-valuation."""


class NegativeValuation(ExprError):
    """The expression is a Laurent series, not a power series."""


# ---------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------

# the theta atom names, each with its series builder
_THETA_BASE = {"phi": phi, "psi": psi, "P": pgen, "b": borwein_b, "aB": borwein_a}


class _Node(_ReadOnly):
    """Immutable parse-tree node.  A subclass names its fields in
    ``__slots__`` and is built from them in that order; a node equals only a
    node of the same type with equal fields, and equal nodes hash alike.
    Both read the tree by ``_walk``, and ``repr`` by a stack of its own, so
    trees as deep as the parser accepts compare, hash and print."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes fields {self.__slots__}, "
                            f"got {len(values)} values")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and tuple(_walk(other)) == tuple(_walk(self))

    def __hash__(self):
        return hash(tuple(_walk(self)))

    def __repr__(self):
        """The constructor form, TypeName(field, ...), each tuple as Python
        prints it; built from a stack of (is text, item) pairs."""
        out, todo = [], [(False, self)]
        while todo:
            text, x = todo.pop()
            if text or not isinstance(x, (_Node, tuple)):
                out.append(x if text else repr(x))
                continue
            node = isinstance(x, _Node)
            items = x._fields() if node else x
            seq = [(True, f"{type(x).__name__}(" if node else "(")]
            for i, item in enumerate(items):
                if i:
                    seq.append((True, ", "))
                seq.append((False, item))
            seq.append((True, ",)" if not node and len(items) == 1 else ")"))
            todo += reversed(seq)
        return "".join(out)


def _walk(node):
    """The tree under `node` as a flat run of tokens, read with a stack: a
    node as its type, a tuple as (tuple, its length), anything else as
    itself.  Each token fixes how many follow from it, so two runs are equal
    exactly when the trees are."""
    todo = [node]
    while todo:
        x = todo.pop()
        if isinstance(x, _Node):
            yield type(x)
            todo += x._fields()
        elif isinstance(x, tuple):
            yield tuple, len(x)
            todo += x
        else:
            yield x


class IntAtom(_Node):
    __slots__ = ("value",)


class QAtom(_Node):
    __slots__ = ()


class EtaAtom(_Node):
    __slots__ = ("scale",)


class ThetaAtom(_Node):
    __slots__ = ("name", "negated", "arg_power")


class GroupAtom(_Node):
    __slots__ = ("expr",)               # a SumExpr


class FactorExpr(_Node):
    __slots__ = ("atom", "power")


class TermExpr(_Node):
    # (op, FactorExpr) pairs; the first entry's op is always '*'
    __slots__ = ("factors",)


class SumExpr(_Node):
    # (sign, TermExpr) pairs; signs are +1 / -1
    __slots__ = ("terms",)


# ---------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------

_DIGITS = frozenset("0123456789")
_BLANKS = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*")


# The deepest nesting of '(' expr ')' groups a text may have.  Parsing a
# group takes about four frames and evaluating it a few more, so 260 nested
# groups ran past the interpreter's default recursion limit of 1000.
MAX_NESTING = 100

# The most bits a power c^e of a constant may take, counted as
# e * ceil(log2 |c|).  The power is one int, c ** e, but every product it
# meets packs it into each slot of the order: `qlab expand "2^131072"` took
# 0.07 s at --order 1 and 0.7 s with a 152 MB peak at --order 1000 (one
# process, 2-vCPU VM, Python 3.11).
MAX_POWER_BITS = 1 << 17

# The most bits a product, quotient or power in a term may pack (see
# ``_Evaluator._check_packing``).  One multiply of two 2^21-bit ints took
# 0.18 s and of 2^22 bits 1.6 s; at this bound `expand "phi(q)^25" --order
# 10000` took 0.66 s, the lemma corpus at order 4000 packs at most 56896
# bits, and `"2^131072*f1" --order 3000` (6.6 s and 289 MB without the
# bound) is refused at once (one process, 2-vCPU VM, Python 3.11).
MAX_PACKED_BITS = 1 << 21

# The most bits a term's eta quotient may pack, estimated before it is built
# (see ``_Evaluator._check_eta``).  The lemma corpus at order 4000 estimates
# at most 2955647 bits and `expand "f1^-64" --order 2000` (0.6-0.8 s) 2.8
# Mbit, while `"f1^-256" --order 3000` (10.0 Mbit; 5.4-6.8 s without the
# bound) and `"f1^20000" --order 1000` (12.8 Mbit; 11-14 s) are refused at
# once.  Just inside the bound, f1^-256 at order 1647 took 1.6 s, f1^20000 at
# 440 1.9 s, and f1^-1000 at 1022, past the division passes, 4.3 s (one
# process, 2-vCPU VM, Python 3.11).  f1^e is refused at every order for e
# past about 9*10^6 or below about -4.7*10^6.
MAX_ETA_BITS = 1 << 22


class _Parser:
    """Recursive descent that reads one token at a time, only when asked
    for it: blanks and '#' comments are skipped, an INT is ASCII digits only
    (so int() reads every INT), a word is a letter followed by letters or
    ASCII digits, and a punctuation token is one of '+-*/^()'.  A group
    nested deeper than MAX_NESTING is a syntax error at its '('."""

    def __init__(self, text: str):
        self.text = text
        self.pos = self.end = self.depth = 0

    def peek(self):
        """(kind, value, position) without consuming; the token ends at
        ``self.end``."""
        text, n = self.text, len(self.text)
        self.pos = start = j = _BLANKS.match(text, self.pos).end()
        ch = text[start:start + 1]
        if not ch:
            kind, value = "eof", None
        elif ch in "+-*/^()":
            kind, value, j = "punct", ch, start + 1
        elif ch in _DIGITS:
            while j < n and text[j] in _DIGITS:
                j += 1
            kind, value = "int", int(text[start:j])
        elif ch.isalpha():
            j += 1
            while j < n and (text[j].isalpha() or text[j] in _DIGITS):
                j += 1
            kind, value = "word", text[start:j]
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", start)
        self.end = j
        return kind, value, start

    def next(self):
        token = self.peek()
        self.pos = self.end
        return token

    def accept(self, chars: str):
        """Consume the next token and return its character if it is
        punctuation in `chars`, else None."""
        kind, value, _ = self.peek()
        if kind == "punct" and value in chars:
            return self.next()[1]
        return None

    def expect(self, char: str, message: str):
        """Consume the punctuation token `char`, else raise
        ExprSyntaxError(message) at the next token's offset."""
        kind, value, pos = self.next()
        if not (kind == "punct" and value == char):
            raise ExprSyntaxError(message, pos)

    def integer(self, message: str, least: int = 0) -> int:
        """Consume an INT of at least `least`, else raise
        ExprSyntaxError(message) at the next token's offset."""
        kind, value, pos = self.next()
        if kind != "int" or value < least:
            raise ExprSyntaxError(message, pos)
        return value

    def parse(self) -> SumExpr:
        expr = self._expr()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {value!r}", pos)
        return expr

    def _expr(self) -> SumExpr:
        terms, sign = [], self.accept("+-")
        while True:
            terms.append((-1 if sign == "-" else 1, self._term()))
            sign = self.accept("+-")
            if not sign:
                return SumExpr(tuple(terms))

    def _term(self) -> TermExpr:
        factors = [("*", self._factor())]
        while op := self.accept("*/"):
            factors.append((op, self._factor()))
        return TermExpr(tuple(factors))

    def _factor(self) -> FactorExpr:
        atom = self._atom()
        if not self.accept("^"):
            return FactorExpr(atom, 1)
        sign = -1 if self.accept("-") else 1
        return FactorExpr(atom, sign * self.integer("expected integer exponent"))

    def _atom(self):
        if self.accept("("):
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"groups nest more than {MAX_NESTING} deep", self.pos - 1)
            self.depth += 1
            inner = self._expr()
            self.expect(")", "expected ')'")
            self.depth -= 1
            return GroupAtom(inner)
        kind, value, pos = self.next()
        if kind == "int":
            return IntAtom(value)
        if kind != "word":
            raise ExprSyntaxError("expected an atom", pos)
        if value == "q":
            return QAtom()
        if value[0] == "f" and value[1:].isdigit():
            scale = int(value[1:])
            if scale < 1:
                raise ExprSyntaxError("eta scale must be >= 1", pos)
            return EtaAtom(scale)
        if value in _THETA_BASE:
            return self._theta(value)
        raise UnknownSymbol(value, pos)

    def _theta(self, name: str) -> ThetaAtom:
        self.expect("(", f"expected '(' after {name}")
        negated = bool(self.accept("-"))
        kind, value, pos = self.next()
        if (kind, value) != ("word", "q"):
            raise ExprSyntaxError("theta argument must be q or -q", pos)
        power = 1
        if self.accept("^"):
            power = self.integer("theta argument power must be a positive integer", 1)
        self.expect(")", "expected ')'")
        return ThetaAtom(name, negated, power)


def parse(text: str) -> SumExpr:
    """Parse an expression; raises ExprSyntaxError/UnknownSymbol with offsets."""
    return _Parser(text).parse()


def pretty(node) -> str:
    """Canonical text form; parse(pretty(parse(s))) == parse(s)."""
    if isinstance(node, SumExpr):
        parts = []
        for i, (sign, term) in enumerate(node.terms):
            if i == 0:
                parts.append(("-" if sign < 0 else "") + pretty(term))
            else:
                parts.append(("- " if sign < 0 else "+ ") + pretty(term))
        return " ".join(parts)
    if isinstance(node, TermExpr):
        out = []
        for i, (op, factor) in enumerate(node.factors):
            if i:
                out.append(op)
            out.append(pretty(factor))
        return "".join(out)
    if isinstance(node, FactorExpr):
        body = pretty(node.atom)
        return body if node.power == 1 else f"{body}^{node.power}"
    if isinstance(node, IntAtom):
        return str(node.value)
    if isinstance(node, QAtom):
        return "q"
    if isinstance(node, EtaAtom):
        return f"f{node.scale}"
    if isinstance(node, ThetaAtom):
        arg = "-q" if node.negated else "q"
        if node.arg_power != 1:
            arg += f"^{node.arg_power}"
        return f"{node.name}({arg})"
    if isinstance(node, GroupAtom):
        return f"({pretty(node.expr)})"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------


class _Val:
    """q^val * unit, where unit has a nonzero constant term; unit=None is 0."""

    __slots__ = ("val", "unit")

    def __init__(self, val: int, unit: Series | None):
        self.val = val
        self.unit = unit


class _Evaluator:
    def __init__(self, order: int):
        self.order = order

    def expr(self, node: SumExpr) -> _Val:
        vals = []
        for sign, term in node.terms:
            v = self.term(term)
            if v.unit is None:
                continue
            vals.append(_Val(v.val, v.unit if sign > 0 else -v.unit))
        if not vals:
            return _Val(0, None)
        if len(vals) == 1:
            return vals[0]
        lo = min(v.val for v in vals)
        hi = min(v.val + v.unit.order for v in vals)
        cs = [0] * (hi - lo)
        for v in vals:
            off = v.val - lo
            for e, c in enumerate(v.unit.coeffs[: hi - v.val]):
                if c:
                    cs[off + e] += c
        return self._normalize(cs, lo)

    @staticmethod
    def _normalize(cs: list[int], lo: int) -> _Val:
        for i, c in enumerate(cs):
            if c:
                return _Val(lo + i, Series(cs[i:]))
        return _Val(0, None)

    def _check_packing(self, *units: Series, times: int = 1) -> None:
        """Refuse a product, quotient or power of `units` past MAX_PACKED_BITS:
        the order times the bits of each unit's sum of |coefficients|, added
        (`times` over for a power), a width every coefficient fits in."""
        bits = times * sum(sum(map(abs, u.coeffs)).bit_length() for u in units) * self.order
        if bits > MAX_PACKED_BITS:
            raise ExprError(f"a product, quotient or power at working order {self.order} "
                            f"would pack about {bits} bits, past MAX_PACKED_BITS = {MAX_PACKED_BITS}")

    def _check_eta(self, factors) -> None:
        """Refuse an eta quotient prod f_r^e past MAX_ETA_BITS.  Below the
        order n, with g the gcd of the scales and W the sum of the positive e
        plus twice the sum of the negative |e|, every coefficient is at most
        exp(pi*sqrt(W*n/(3g))), the saddle-point bound on the coefficients of
        prod (1 + q^k)^e / (1 - q^k)^|e|.  The estimate is n times its log2,
        at most sqrt(6.85 * n^3 * W / g), computed in integers."""
        n = self.order
        weight = sum(e if e > 0 else -2 * e for _, e in factors)
        bits = math.isqrt(n ** 3 * weight * 685 // (100 * math.gcd(*(r for r, _ in factors))))
        if bits > MAX_ETA_BITS:
            raise ExprError(f"an eta quotient at working order {n} would pack about {bits} "
                            f"bits, past MAX_ETA_BITS = {MAX_ETA_BITS}")

    def term(self, node: TermExpr) -> _Val:
        """The term's other factors left to right, the first one starting
        the product (a lone factor packs nothing), then its eta quotient."""
        val, etas, others = _gather(node.factors)
        one = _Val(0, Series.one(self.order))
        acc = None                  # no factor yet: the product is `one`
        for op, factor in others:
            v = self.factor(factor)
            if op == "*":
                if acc is None:
                    acc = v
                elif acc.unit is None or v.unit is None:
                    acc = _Val(0, None)
                else:
                    self._check_packing(acc.unit, v.unit)
                    acc = _Val(acc.val + v.val, acc.unit * v.unit)
            else:
                if v.unit is None:
                    raise DivisionByNonUnit("division by a zero expression")
                if abs(v.unit.coeffs[0]) != 1:
                    raise DivisionByNonUnit(
                        f"denominator unit constant is {v.unit.coeffs[0]}, need +-1"
                    )
                acc = acc or one
                if acc.unit is not None:
                    self._check_packing(acc.unit, v.unit)
                    acc = _Val(acc.val - v.val, acc.unit.div(v.unit))
        acc = acc or one
        if acc.unit is None:
            return acc
        factors = [(r, e) for r, e in etas.items() if e]
        if not factors:
            return _Val(acc.val + val, acc.unit)
        self._check_packing(acc.unit)
        self._check_eta(factors)
        return _Val(acc.val + val, Series(eta_product(acc.unit.coeffs, factors, acc.unit.order)))

    def factor(self, node: FactorExpr) -> _Val:
        base = self.atom(node.atom)
        e = node.power
        if e == 1:
            return base
        if base.unit is None:
            if e <= 0:
                raise DivisionByNonUnit("zero expression raised to a nonpositive power")
            return base
        if e == 0:
            return _Val(0, Series.one(self.order))
        if e < 0:
            if abs(base.unit.coeffs[0]) != 1:
                raise DivisionByNonUnit(
                    f"cannot invert unit with constant {base.unit.coeffs[0]}"
                )
            self._check_packing(base.unit)
            base = _Val(-base.val, base.unit.invert())
            e = -e
        unit = base.unit
        if any(unit.coeffs[1:]):
            self._check_packing(unit, times=e)
            return _Val(base.val * e, unit ** e)
        c = unit.coeffs[0]          # a constant: its power is one int
        bits = e * (abs(c) - 1).bit_length()
        if bits > MAX_POWER_BITS:
            raise ExprError(f"a constant raised to {e} takes about {bits} bits, "
                            f"past MAX_POWER_BITS = {MAX_POWER_BITS}")
        return _Val(base.val * e, Series((c ** e,) + unit.coeffs[1:]))

    def atom(self, node) -> _Val:
        order = self.order
        if isinstance(node, IntAtom):
            if node.value == 0:
                return _Val(0, None)
            return _Val(0, Series.from_terms([(0, node.value)], order))
        if isinstance(node, QAtom):
            return _Val(1, Series.one(order))
        if isinstance(node, EtaAtom):
            return _Val(0, eta(node.scale, order))
        if isinstance(node, ThetaAtom):
            m = node.arg_power
            base = _THETA_BASE[node.name]((order + m - 1) // m)
            if node.negated:
                base = base.substitute_negq()
            # every theta base has constant term 1, so the atom is a unit
            return _Val(0, Series.from_terms([(e * m, c) for e, c in base.nonzero_terms()], order))
        if isinstance(node, GroupAtom):
            return self.expr(node.expr)
        raise TypeError(f"not an atom: {node!r}")


def _gather(factors, power: int = 1):
    """(q-valuation, {scale: exponent}, other pairs) of the (op, factor)
    pairs of a term raised to `power`: every factor with an eta form adds
    into the valuation and the map, and the other pairs keep their order."""
    val, etas, others = 0, Counter(), []
    for op, factor in factors:
        form = _eta_form(factor)
        if form is None:
            others.append((op, factor))
            continue
        e = power if op == "*" else -power
        val += e * form[0]
        etas.update({r: e * x for r, x in form[1].items()})
    return val, etas, others


def _eta_form(factor: FactorExpr):
    """(q-valuation, {scale: exponent}) of an eta or q factor, or of a group
    holding one positive term made only of such factors (nested, raised to
    any power); None for any other factor."""
    atom, power = factor.atom, factor.power
    if isinstance(atom, EtaAtom):
        return 0, {atom.scale: power}
    if isinstance(atom, QAtom):
        return power, {}
    terms = atom.expr.terms if isinstance(atom, GroupAtom) else ()
    if len(terms) != 1 or terms[0][0] < 0:
        return None
    val, etas, others = _gather(terms[0][1].factors, power)
    return None if others else (val, etas)


def evaluate(ast: SumExpr, order: int) -> Series:
    """Exact Series of the expression to `order`.

    Each term's eta and q factors are first gathered into one exponent map
    {scale: e} and applied by ``special.eta_product`` after the term's
    other factors (see the module docstring).

    Raises NegativeValuation if the expression has a pole at q = 0, and
    DivisionByNonUnit if some denominator is not +-1 times a power of q
    times a unit power series.
    """
    pad = 64
    for _ in range(4):
        v = _Evaluator(order + pad).expr(ast)
        if v.unit is None:
            return Series.zero(order)
        if v.val < 0:
            raise NegativeValuation(f"expression has q-valuation {v.val}")
        if v.val >= order:      # no shift: a huge valuation would allocate its zeros
            return Series.zero(order)
        if v.val + v.unit.order >= order:
            return v.unit.shift(v.val).truncate(order)
        # leading-term cancellations ate into the padding; widen and retry
        pad *= 4
    raise ExprError("could not reach the requested order (pathological cancellation)")


def evaluate_text(text: str, order: int) -> Series:
    return evaluate(parse(text), order)


# ---------------------------------------------------------------------
# Lemma fixtures
# ---------------------------------------------------------------------


class LemmaFixture(_ReadOnly):
    """A named identity lhs = rhs, to be checked exactly below check_to;
    read-only."""

    def __init__(self, name: str, lhs: str, rhs: str, check_to: int):
        if check_to < 50:
            raise ValueError(f"{name}: check_to must be >= 50")
        fields = {"name": name, "lhs": lhs, "rhs": rhs, "check_to": check_to}
        # both sides parsed once, here, and evaluated by ``check_fixture``
        for side in ("lhs", "rhs"):
            try:
                fields[side + "_ast"] = parse(fields[side])
            except ExprError as exc:
                raise ExprError(f"{name}: {side}: {exc}") from exc
        vars(self).update(fields)


class FixtureReport:
    def __init__(self, name: str, passed: bool, check_to: int, first_mismatch: int | None = None,
                 error: str | None = None, millis: float = 0.0):
        self.name = name
        self.passed = passed
        self.check_to = check_to
        self.first_mismatch = first_mismatch
        self.error = error
        self.millis = millis

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} (order {self.check_to}, {self.millis:.0f} ms)"
        if self.error is not None:
            return f"FAIL {self.name}: {self.error}"
        return f"FAIL {self.name}: first mismatch at q^{self.first_mismatch}"


def parse_fixture_file(text: str) -> list[LemmaFixture]:
    """Parse the fixture format: blocks separated by blank lines, each
    giving a non-empty `name:` and `lhs =`, `rhs =`, `check_to =` once;
    '#' starts a comment."""
    fixtures: dict[str, LemmaFixture] = {}
    block: dict[str, str] = {}

    def flush():
        if not block:
            return
        name = block.get("name", "unnamed fixture")
        missing = {"name", "lhs", "rhs", "check_to"} - set(block)
        if missing:
            raise ValueError(f"{name}: fixture block missing fields: {sorted(missing)}")
        if name in fixtures:
            raise ValueError(f"duplicate fixture names: {name!r}")
        if not (block["check_to"].isascii() and block["check_to"].isdigit()):
            raise ValueError(f"{name}: check_to must be ASCII digits, got {block['check_to']!r}")
        fixtures[name] = LemmaFixture(name, block["lhs"], block["rhs"], int(block["check_to"]))
        block.clear()

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        if line.startswith("name:"):
            key, value = "name", line[len("name:"):].strip()
            if not value:
                raise ValueError(f"empty fixture name: {raw!r}")
        else:
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in ("lhs", "rhs", "check_to"):
                raise ValueError(f"unrecognized fixture line: {raw!r}")
        if key in block:
            raise ValueError(f"{block.get('name', 'unnamed fixture')}: {key} given twice "
                             "(a blank line must separate two fixtures)")
        block[key] = value
    flush()
    return list(fixtures.values())


def load_fixtures(path=None) -> list[LemmaFixture]:
    """Fixtures from `path`, or the packaged dissection corpus by default;
    a file with none is a ValueError, since checking it would check nothing."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "fixtures", "dissections.qx")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    fixtures = parse_fixture_file(text)
    if not fixtures:
        raise ValueError(f"{path}: holds no fixtures")
    return fixtures


def check_fixture(fx: LemmaFixture, order: int | None = None) -> FixtureReport:
    """Evaluate both sides exactly and compare coefficientwise."""
    check_to = order if order is not None else fx.check_to
    start = time.perf_counter()
    try:
        lhs = evaluate(fx.lhs_ast, check_to)
        rhs = evaluate(fx.rhs_ast, check_to)
    except ExprError as exc:
        ms = 1000 * (time.perf_counter() - start)
        return FixtureReport(fx.name, False, check_to, error=str(exc), millis=ms)
    mismatch = lhs.first_mismatch(rhs)
    ms = 1000 * (time.perf_counter() - start)
    return FixtureReport(fx.name, mismatch is None, check_to, first_mismatch=mismatch, millis=ms)


def check_fixtures(fixtures, order: int | None = None) -> list[FixtureReport]:
    return [check_fixture(fx, order) for fx in fixtures]
