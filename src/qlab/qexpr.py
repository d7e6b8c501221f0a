"""Text DSL for eta/theta expressions, plus the lemma-fixture checker.

Grammar (whitespace insignificant, '#' starts a comment running to the end
of the line):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' ['-'] INT)?
    atom   := INT | 'q' | 'f' INT | NAME '(' arg ')' | '(' expr ')'
    arg    := ['-'] 'q' ('^' INT)?
    NAME   := 'phi' | 'psi' | 'P' | 'b' | 'aB'

Evaluation is exact: every expression becomes a `Series` at a requested
order.  Quotients are handled by factoring the q-valuation out of the
denominator and requiring the remaining constant term to be +1 or -1, so
all arithmetic stays over the integers.

Dissection lemmas ship as data: a fixture file holds named lhs/rhs
expression pairs with a check order, and `check_fixture` confirms exact
coefficientwise equality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import resources

from .series import Series
from .special import borwein_a, borwein_b, eta, pgen, phi, psi


class ExprError(Exception):
    """Base class for DSL errors."""


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

_THETA_NAMES = ("phi", "psi", "P", "b", "aB")


@dataclass(frozen=True)
class IntAtom:
    value: int


@dataclass(frozen=True)
class QAtom:
    pass


@dataclass(frozen=True)
class EtaAtom:
    scale: int


@dataclass(frozen=True)
class ThetaAtom:
    name: str
    negated: bool
    arg_power: int


@dataclass(frozen=True)
class GroupAtom:
    expr: "SumExpr"


@dataclass(frozen=True)
class FactorExpr:
    atom: object
    power: int = 1


@dataclass(frozen=True)
class TermExpr:
    # first entry's op is always '*'
    factors: tuple[tuple[str, FactorExpr], ...]


@dataclass(frozen=True)
class SumExpr:
    # signs are +1 / -1
    terms: tuple[tuple[int, TermExpr], ...]


# ---------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------

_PUNCT = set("+-*/^()")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "#":
                while self.pos < n and text[self.pos] != "\n":
                    self.pos += 1
            else:
                return

    def peek(self):
        """(kind, value, position) without consuming."""
        self._skip()
        text, n = self.text, len(self.text)
        if self.pos >= n:
            return ("eof", None, self.pos)
        start = self.pos
        ch = text[start]
        if ch in _PUNCT:
            return ("punct", ch, start)
        if ch.isdigit():
            j = start
            while j < n and text[j].isdigit():
                j += 1
            return ("int", int(text[start:j]), start)
        if ch.isalpha():
            j = start
            while j < n and (text[j].isalpha() or text[j].isdigit()):
                j += 1
            return ("word", text[start:j], start)
        raise ExprSyntaxError(f"unexpected character {ch!r}", start)

    def next(self):
        kind, value, start = self.peek()
        if kind == "punct":
            self.pos = start + 1
        elif kind == "int":
            self.pos = start + len(str(value))
        elif kind == "word":
            self.pos = start + len(value)
        return (kind, value, start)


class _Parser:
    def __init__(self, text: str):
        self.lx = _Lexer(text)

    def parse(self) -> SumExpr:
        expr = self._expr()
        kind, value, pos = self.lx.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {value!r}", pos)
        return expr

    def _expr(self) -> SumExpr:
        terms = []
        sign = 1
        kind, value, _ = self.lx.peek()
        if kind == "punct" and value in "+-":
            self.lx.next()
            sign = 1 if value == "+" else -1
        terms.append((sign, self._term()))
        while True:
            kind, value, _ = self.lx.peek()
            if kind == "punct" and value in "+-":
                self.lx.next()
                terms.append((1 if value == "+" else -1, self._term()))
            else:
                return SumExpr(tuple(terms))

    def _term(self) -> TermExpr:
        factors = [("*", self._factor())]
        while True:
            kind, value, _ = self.lx.peek()
            if kind == "punct" and value in "*/":
                self.lx.next()
                factors.append((value, self._factor()))
            else:
                return TermExpr(tuple(factors))

    def _factor(self) -> FactorExpr:
        atom = self._atom()
        kind, value, _ = self.lx.peek()
        if kind == "punct" and value == "^":
            self.lx.next()
            neg = False
            kind, value, pos = self.lx.peek()
            if kind == "punct" and value == "-":
                self.lx.next()
                neg = True
                kind, value, pos = self.lx.peek()
            if kind != "int":
                raise ExprSyntaxError("expected integer exponent", pos)
            self.lx.next()
            return FactorExpr(atom, -value if neg else value)
        return FactorExpr(atom, 1)

    def _atom(self):
        kind, value, pos = self.lx.next()
        if kind == "int":
            return IntAtom(value)
        if kind == "punct" and value == "(":
            inner = self._expr()
            kind, value, pos = self.lx.next()
            if not (kind == "punct" and value == ")"):
                raise ExprSyntaxError("expected ')'", pos)
            return GroupAtom(inner)
        if kind == "word":
            if value == "q":
                return QAtom()
            if value[0] == "f" and value[1:].isdigit():
                scale = int(value[1:])
                if scale < 1:
                    raise ExprSyntaxError("eta scale must be >= 1", pos)
                return EtaAtom(scale)
            if value in _THETA_NAMES:
                return self._theta(value)
            raise UnknownSymbol(value, pos)
        raise ExprSyntaxError("expected an atom", pos)

    def _theta(self, name: str) -> ThetaAtom:
        kind, value, pos = self.lx.next()
        if not (kind == "punct" and value == "("):
            raise ExprSyntaxError(f"expected '(' after {name}", pos)
        negated = False
        kind, value, pos = self.lx.peek()
        if kind == "punct" and value == "-":
            self.lx.next()
            negated = True
        kind, value, pos = self.lx.next()
        if not (kind == "word" and value == "q"):
            raise ExprSyntaxError("theta argument must be q or -q", pos)
        arg_power = 1
        kind, value, pos = self.lx.peek()
        if kind == "punct" and value == "^":
            self.lx.next()
            kind, value, pos = self.lx.next()
            if kind != "int" or value < 1:
                raise ExprSyntaxError("theta argument power must be a positive integer", pos)
            arg_power = value
        kind, value, pos = self.lx.next()
        if not (kind == "punct" and value == ")"):
            raise ExprSyntaxError("expected ')'", pos)
        return ThetaAtom(name, negated, arg_power)


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

    @classmethod
    def of_series(cls, s: Series) -> "_Val":
        v = s.valuation()
        if v is None:
            return cls(0, None)
        if v == 0:
            return cls(0, s)
        return cls(v, Series(s.coeffs[v:]))


_THETA_BASE = {
    "phi": lambda order: phi(order),
    "psi": psi,
    "P": pgen,
    "b": borwein_b,
    "aB": borwein_a,
}


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

    def term(self, node: TermExpr) -> _Val:
        acc = _Val(0, Series.one(self.order))
        for op, factor in node.factors:
            v = self.factor(factor)
            if op == "*":
                if acc.unit is None or v.unit is None:
                    acc = _Val(0, None)
                else:
                    acc = _Val(acc.val + v.val, acc.unit * v.unit)
            else:
                if v.unit is None:
                    raise DivisionByNonUnit("division by a zero expression")
                if abs(v.unit.coeffs[0]) != 1:
                    raise DivisionByNonUnit(
                        f"denominator unit constant is {v.unit.coeffs[0]}, need +-1"
                    )
                if acc.unit is not None:
                    acc = _Val(acc.val - v.val, acc.unit.div(v.unit))
        return acc

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
            base = _Val(-base.val, base.unit.invert())
            e = -e
        unit = base.unit
        result = Series.one(unit.order)
        b = unit
        k = e
        while k:
            if k & 1:
                result = result * b
            k >>= 1
            if k:
                b = b * b
        return _Val(base.val * e, result)

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
            return _Val.of_series(base.substitute_power(m).truncate(order))
        if isinstance(node, GroupAtom):
            return self.expr(node.expr)
        raise TypeError(f"not an atom: {node!r}")


def evaluate(ast: SumExpr, order: int) -> Series:
    """Exact Series of the expression to `order`.

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


@dataclass(frozen=True)
class LemmaFixture:
    """A named identity lhs = rhs, to be checked exactly below check_to."""

    name: str
    lhs: str
    rhs: str
    check_to: int

    def __post_init__(self):
        if self.check_to < 50:
            raise ValueError(f"{self.name}: check_to must be >= 50")
        for side in ("lhs", "rhs"):
            try:
                parse(getattr(self, side))
            except ExprError as exc:
                raise ExprError(f"{self.name}: {side}: {exc}") from exc


@dataclass(frozen=True)
class FixtureReport:
    name: str
    passed: bool
    check_to: int
    first_mismatch: int | None = None
    error: str | None = None
    millis: float = 0.0

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} (order {self.check_to}, {self.millis:.0f} ms)"
        if self.error is not None:
            return f"FAIL {self.name}: {self.error}"
        return f"FAIL {self.name}: first mismatch at q^{self.first_mismatch}"


def parse_fixture_file(text: str) -> list[LemmaFixture]:
    """Parse the fixture format: blank-line separated blocks of
    `name:` / `lhs =` / `rhs =` / `check_to =` lines; '#' comments."""
    fixtures = []
    block: dict[str, str] = {}

    def flush():
        if not block:
            return
        missing = {"name", "lhs", "rhs", "check_to"} - set(block)
        if missing:
            raise ValueError(f"fixture block missing fields: {sorted(missing)}")
        fixtures.append(
            LemmaFixture(block["name"], block["lhs"], block["rhs"], int(block["check_to"]))
        )
        block.clear()

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            flush()
            continue
        if line.startswith("name:"):
            block["name"] = line[len("name:"):].strip()
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in ("lhs", "rhs", "check_to"):
            raise ValueError(f"unrecognized fixture line: {raw!r}")
        block[key] = value.strip()
    flush()
    names = [fx.name for fx in fixtures]
    if len(set(names)) != len(names):
        raise ValueError("duplicate fixture names")
    return fixtures


def load_fixtures(path=None) -> list[LemmaFixture]:
    """Fixtures from `path`, or the packaged dissection corpus by default."""
    if path is None:
        text = resources.files("qlab").joinpath("fixtures/dissections.qx").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_fixture_file(text)


def check_fixture(fx: LemmaFixture, order: int | None = None) -> FixtureReport:
    """Evaluate both sides exactly and compare coefficientwise."""
    check_to = order if order is not None else fx.check_to
    start = time.perf_counter()
    try:
        lhs = evaluate_text(fx.lhs, check_to)
        rhs = evaluate_text(fx.rhs, check_to)
    except ExprError as exc:
        ms = 1000 * (time.perf_counter() - start)
        return FixtureReport(fx.name, False, check_to, error=str(exc), millis=ms)
    mismatch = lhs.first_mismatch(rhs)
    ms = 1000 * (time.perf_counter() - start)
    return FixtureReport(fx.name, mismatch is None, check_to, first_mismatch=mismatch, millis=ms)


def check_fixtures(fixtures, order: int | None = None) -> list[FixtureReport]:
    return [check_fixture(fx, order) for fx in fixtures]
