"""Expression DSL: parser, pretty-printer, evaluator, fixture corpus."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from qlab import qexpr
from qlab.series import Series
from qlab.special import borwein_b, eta, eta_inv, prefactor_a, psi
from qlab.qexpr import (
    DivisionByNonUnit,
    EtaAtom,
    ExprError,
    ExprSyntaxError,
    FactorExpr,
    IntAtom,
    LemmaFixture,
    NegativeValuation,
    QAtom,
    ThetaAtom,
    UnknownSymbol,
    check_fixture,
    check_fixtures,
    evaluate_text,
    load_fixtures,
    parse,
    parse_fixture_file,
    pretty,
)

# -- parsing -------------------------------------------------------------

def test_parse_valid_expressions():
    for text in (
        "f8*f12^2/(f1*f3*f4*f24)",
        "phi(-q^3) - 2*q*f3*f18^2/(f6*f9)",
        "1",
        "q^2",
        "-f4^2*f6*f24/(f1*f2*f3*f8*f12)",
        "b(q^4) - 3*q*psi(q^6)*(psi(q^2) - 3*q^2*psi(q^18))",
        "aB(q^3)",
        "P(q)",
        "f1^-2",
    ):
        parse(text)


def test_parse_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("q^")
    assert err.value.position == 2
    with pytest.raises(ExprSyntaxError):
        parse("f1*")
    with pytest.raises(ExprSyntaxError):
        parse("(f1")
    with pytest.raises(ExprSyntaxError):
        parse("f1 f2")
    with pytest.raises(ExprSyntaxError):
        parse("phi(q^0)")
    with pytest.raises(ExprSyntaxError):
        parse("")


def nested(depth: int, core: str = "q") -> str:
    return "(" * depth + core + ")" * depth


def test_groups_nest_at_most_max_nesting_deep():
    # 260 nested groups used to end in a RecursionError
    assert qexpr.MAX_NESTING == 100
    assert evaluate_text(nested(100), 4).coeffs == (0, 1, 0, 0)
    assert evaluate_text(nested(100, "f1^2") + "*f1", 4).coeffs == (1, -3, 0, 5)
    for depth in (101, 260):
        with pytest.raises(ExprSyntaxError, match="nest more than 100 deep") as err:
            parse(nested(depth))
        assert err.value.position == 100            # the 101st '('
    with pytest.raises(ExprSyntaxError) as err:
        parse("f1 * " + nested(101))
    assert err.value.position == 105
    # sibling groups are not nested: each closes before the next opens
    assert len(parse("*".join([nested(100)] * 3)).terms[0][1].factors) == 3


def test_lexer_reads_ascii_digits_only():
    # str.isdigit() also holds for superscripts and other scripts' digits,
    # which int() rejects or reads as a different numeral
    for text, offset in (("f1\u00b2", 2), ("q^\u00b2", 2), ("f2/f1^\u00b2", 6)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.position == offset, text
    with pytest.raises(UnknownSymbol) as err:
        parse("f\u0661")           # ARABIC-INDIC DIGIT ONE
    assert err.value.position == 0
    # an INT ends where its digits end, leading zeros included
    assert evaluate_text("q^02", 4).coeffs == (0, 0, 1, 0)
    assert evaluate_text("f01^002", 6).eq(evaluate_text("f1^2", 6))


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        parse("g3 + 1")
    with pytest.raises(UnknownSymbol):
        parse("theta(q)")


def test_pretty_roundtrip():
    texts = [
        "f8*f12^2/(f1*f3*f4*f24)",
        "phi(-q^3) - 2*q*f3*f18^2/(f6*f9)",
        "-2*q*f8^2*f12*f48/(f2*f4*f6*f16*f24)",
        "1 + 2*(q - 3)^4/f2",
        "b(q) - aB(q^3) + 3*q*f9^3/f3",
    ]
    for text in texts:
        ast = parse(text)
        assert parse(pretty(ast)) == ast
    for fx in load_fixtures():
        for side in (fx.lhs, fx.rhs):
            ast = parse(side)
            assert parse(pretty(ast)) == ast


def test_nodes_are_read_only_and_equal_only_within_one_type():
    # the round trip above is only as strict as node equality: an integer
    # must not equal an eta factor with the same number
    assert IntAtom(2) != EtaAtom(2)
    assert FactorExpr(IntAtom(2), 1) != FactorExpr(EtaAtom(2), 1)
    assert FactorExpr(IntAtom(2), 1) != FactorExpr(IntAtom(2), 2)
    assert QAtom() == QAtom()
    a, b = parse("f8*f12^2/(f1 - 2*q)"), parse("f8 * f12^2 / (f1-2*q)")
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, parse("f8*f12^2/(f1 - 3*q)")}) == 2
    with pytest.raises(AttributeError):
        a.terms = ()
    with pytest.raises(AttributeError):
        IntAtom(2).value = 3
    with pytest.raises(AttributeError):
        del EtaAtom(2).scale
    with pytest.raises(AttributeError):
        load_fixtures()[0].lhs = "1"


def test_nodes_compare_and_hash_at_the_nesting_limit():
    # equality and hashing read the tree without recursion: from 64 nested
    # groups they raised RecursionError, below the parser's limit
    depth = qexpr.MAX_NESTING
    a, b = parse(nested(depth, "f1^2")), parse(nested(depth, "f1^2"))
    assert a == b and a is not b and hash(a) == hash(b)
    for inner in ("f2^2", "f1^3", "2^2"):
        c = parse(nested(depth, inner))
        assert a != c and c != a, inner
    assert len({a, b, parse(nested(depth, "f2^2"))}) == 2


def test_nodes_print_at_the_nesting_limit():
    # repr read the tree by recursion and raised RecursionError from 50
    # nested groups on, below the parser's limit
    depth = qexpr.MAX_NESTING
    text = repr(parse(nested(depth, "f1^2")))
    assert text.count("GroupAtom(") == depth and "EtaAtom(1)" in text
    assert text.startswith("SumExpr(((1, TermExpr((('*', FactorExpr(GroupAtom(")
    assert repr(parse("2*f3 - q")) == (
        "SumExpr(((1, TermExpr((('*', FactorExpr(IntAtom(2), 1)), "
        "('*', FactorExpr(EtaAtom(3), 1))))), (-1, TermExpr((('*', FactorExpr(QAtom(), 1)),)))))")
    assert repr(ThetaAtom("phi", True, 3)) == "ThetaAtom('phi', True, 3)"


def test_constant_powers_are_one_int():
    # a constant's power is c ** e, not e squarings of a padded series;
    # 2^100000 took 11.8 s
    start = time.perf_counter()
    for text in ("2^100000", "(1+1)^100000", "(-2)^99999*q", "(2*q)^100000"):
        s = evaluate_text(text, 3)
        assert s.order == 3, text
    assert time.perf_counter() - start < 1
    assert evaluate_text("2^100000", 3).coeffs == (2 ** 100000, 0, 0)
    assert evaluate_text("(1+1)^100000", 2).coeffs == (2 ** 100000, 0)
    assert evaluate_text("(-2)^99999*q", 3).coeffs == (0, -2 ** 99999, 0)
    assert evaluate_text("(-1)^-7 * 3^4 * (q*5)^2", 4).coeffs == (0, 0, -81 * 25, 0)
    assert evaluate_text("(-1)^1000000001", 2).coeffs == (-1, 0)
    bits = qexpr.MAX_POWER_BITS
    assert evaluate_text(f"2^{bits}", 1).coeffs == (2 ** bits,)
    for text in (f"2^{bits + 1}", f"(3^2)^{bits // 4 + 1}", f"(1+1)^{10 ** 12}"):
        start = time.perf_counter()
        with pytest.raises(ExprError, match=f"past MAX_POWER_BITS = {bits}"):
            evaluate_text(text, 1)
        assert time.perf_counter() - start < 1, text


def test_products_past_the_packing_bound_are_refused():
    # a 2^131072 constant packed into every slot of a product took 6.6 s at
    # order 3000 and 868 MB at order 10000; a lone constant packs nothing
    bound = qexpr.MAX_PACKED_BITS
    start = time.perf_counter()
    assert evaluate_text("2^131072", 10000).coeffs == (2 ** 131072,) + (0,) * 9999
    assert evaluate_text("2^100000", 1000).coeffs[0] == 2 ** 100000
    for text in ("2^131072*f1*f2", "2^131072/(1-q)", "2^131072*f1", "(2^131072+q)^2",
                 "(1+q)^100000", "(1-q)^-500"):
        with pytest.raises(ExprError, match=f"past MAX_PACKED_BITS = {bound}"):
            evaluate_text(text, 10000)
    assert time.perf_counter() - start < 1
    # under the bound a wide constant still meets a series
    c = 2 ** 40 + 2 ** 21
    assert evaluate_text("(2^20+q)^2 / (1-q)", 4).coeffs == (2 ** 40, c, c + 1, c + 1)


def test_comments_are_whitespace():
    a = evaluate_text("f2/f1^2  # overpartitions", 6)
    assert a.coeffs == (1, 2, 4, 8, 14, 24)


# -- evaluation ----------------------------------------------------------

def test_eval_examples():
    assert evaluate_text("f2/f1^2", 6).coeffs == (1, 2, 4, 8, 14, 24)
    assert evaluate_text("1", 4).eq(Series.one(4))
    assert evaluate_text("f1^3/f3", 300).eq(borwein_b(300))
    assert evaluate_text("f1*f6/(f2^2*f3)", 9).coeffs == (1, -1, 1, -1, 2, -3, 4, -5, 7)
    assert evaluate_text("q", 3).coeffs == (0, 1, 0)


def test_eval_respects_valuations():
    # q-valuations cancel exactly inside a term
    assert evaluate_text("q^3*f1/q^2", 5).coeffs == (0, 1, -1, -1, 0)
    assert evaluate_text("(f1 - 1)/q", 4).coeffs == (-1, -1, 0, 0)
    assert evaluate_text("psi(q^2)*q", 6).coeffs == (0, 1, 0, 1, 0, 0)
    assert evaluate_text("0*f1 + 0", 3).is_zero()
    assert evaluate_text("f1^0", 3).eq(Series.one(3))
    # the denominator cancels to -q^100 f1, past the first padding of 64:
    # the evaluator widens and retries (at order 306, after 114)
    assert evaluate_text("q^100/(f1 - f1*(1 + q^100))", 50).eq(-eta_inv(1, 50))


def test_eval_errors():
    with pytest.raises(NegativeValuation):
        evaluate_text("1/q", 5)
    with pytest.raises(NegativeValuation):
        evaluate_text("f1/q^2", 5)
    with pytest.raises(DivisionByNonUnit):
        evaluate_text("1/2", 5)
    with pytest.raises(DivisionByNonUnit):
        evaluate_text("f1/(2 + q)", 5)
    with pytest.raises(DivisionByNonUnit):
        evaluate_text("1/(f1 - f1)", 5)
    with pytest.raises(DivisionByNonUnit):
        evaluate_text("(f1 - f1)^-1", 5)


def test_eval_theta_atoms():
    assert evaluate_text("phi(-q)", 10).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2)
    assert evaluate_text("phi(-q^3)", 13).coeff(3) == -2
    assert evaluate_text("psi(q)", 11).eq(psi(11))
    assert evaluate_text("b(q^4)", 20).eq(borwein_b(5).substitute_power(4))
    assert evaluate_text("aB(q)", 5).coeffs == (1, 6, 0, 6, 6)


def test_huge_eta_exponents_are_raised_by_squaring():
    # |e| sparse passes would take 100000 passes; these answer at once
    assert evaluate_text("f1^100000", 8).coeffs == (
        1, -100000, 4999850000, -166651666800000, 4165916691249825000,
        -83308335124962500120000, 1388263967357673658249800000,
        -19828772271639985772557714400000)
    assert evaluate_text("f1^-100000", 8).coeffs == (
        1, 100000, 5000150000, 166681666800000, 4167416691250175000,
        83358335125037500120000, 1389513967364548658250200000,
        19853772272010819106013714400000)
    # equal scales net out in the exponent map
    assert evaluate_text("f1^100000/f1^99999", 40).eq(eta(1, 40))
    assert evaluate_text("(f1*f2)^40/f2^39", 60).eq(eta(1, 60) ** 40 * eta(2, 60))


class LeftToRight(qexpr._Evaluator):
    """The evaluation before eta-quotient terms were flattened: every
    factor becomes a Series (``special.eta`` for f_r) and the term
    multiplies and divides them in turn with ``Series`` mul/div."""

    def term(self, node):
        acc = qexpr._Val(0, Series.one(self.order))
        for op, factor in node.factors:
            v = self.factor(factor)
            if op == "*":
                if acc.unit is None or v.unit is None:
                    acc = qexpr._Val(0, None)
                else:
                    acc = qexpr._Val(acc.val + v.val, acc.unit * v.unit)
            else:
                if v.unit is None or abs(v.unit.coeffs[0]) != 1:
                    raise DivisionByNonUnit("denominator is not a unit")
                if acc.unit is not None:
                    acc = qexpr._Val(acc.val - v.val, acc.unit.div(v.unit))
        return acc


def _both_routes(text, order):
    """(valuation, unit coefficients) or the error class, per route."""
    out = []
    for route in (qexpr._Evaluator, LeftToRight):
        try:
            v = route(order).expr(parse(text))
        except ExprError as exc:
            out.append(type(exc))
        else:
            out.append(None if v.unit is None else (v.val, v.unit.coeffs))
    return out


FLATTENING_CASES = [
    "(f1*f3)^-1", "1/(f1*f3)", "f2/(f2*f1)", "f4^3/f4^3", "f1*(f2/(f3*(f4*q)))^-1",
    "q^2*f1/(q*f2)^2*q^3", "(f1 - q*f2)^-1*f3", "f2/(f1 + q^2)^2", "2*q*f4^4/(f2^6*f6^6)",
    "psi(q^3)*f2/(f1*phi(-q))", "((f1))^0*f2", "(-f1*f3)^-1", "f1^40/f2^33",
]


@pytest.mark.parametrize("text", FLATTENING_CASES)
def test_flattened_terms_equal_left_to_right(text):
    new, old = _both_routes(text, 300)
    assert new == old and new is not None


@pytest.mark.parametrize("fx", load_fixtures(), ids=lambda fx: fx.name)
def test_flattened_corpus_equals_left_to_right(fx):
    for side in (fx.lhs, fx.rhs):
        new, old = _both_routes(side, 300)
        assert new == old and isinstance(new, tuple)


@st.composite
def eta_terms(draw, depth=2):
    parts = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["eta", "eta", "q", "int", "theta", "group", "sum"]))
        if kind == "eta":
            part = f"f{draw(st.integers(1, 4))}"
        elif kind == "q":
            part = "q"
        elif kind == "int":
            part = str(draw(st.sampled_from([1, 2, 3])))
        elif kind == "theta":
            part = draw(st.sampled_from(["psi(q^2)", "phi(-q)", "P(q)"]))
        elif depth and kind == "group":
            part = f"({draw(eta_terms(depth - 1))})"
        elif depth:
            sign = draw(st.sampled_from(["+", "-"]))
            part = f"({draw(eta_terms(depth - 1))} {sign} q*{draw(eta_terms(depth - 1))})"
        else:
            part = "f5"
        power = draw(st.sampled_from([1, 1, 2, 3, -1, -2, 0]))
        if power != 1:
            part += f"^{power}"
        parts.append((draw(st.sampled_from("*/")) if i else "") + part)
    return "".join(parts)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), eta_terms()), min_size=1, max_size=3))
def test_random_eta_quotients_equal_left_to_right(terms):
    text = " ".join(sign + term for sign, term in terms)
    new, old = _both_routes(text, 300)
    assert new == old, text


# -- fixture machinery ---------------------------------------------------

def test_fixture_corpus_shape():
    fixtures = load_fixtures()
    assert len(fixtures) == 16
    assert len({fx.name for fx in fixtures}) == 16
    assert all(fx.check_to >= 400 for fx in fixtures)


def test_fixture_corpus_passes():
    reports = check_fixtures(load_fixtures(), order=400)
    assert all(r.passed for r in reports), [r.line() for r in reports if not r.passed]


def test_fixture_sides_are_parsed_once(monkeypatch):
    # a fixture keeps the ASTs it validated, and checking evaluates them
    texts = []
    real = qexpr.parse
    monkeypatch.setattr(qexpr, "parse", lambda text: texts.append(text) or real(text))
    fixtures = load_fixtures()
    assert len(texts) == 2 * len(fixtures) == 32
    reports = check_fixtures(fixtures, order=100)
    assert all(r.passed for r in reports) and len(texts) == 32


def test_perturbed_fixture_fails_with_mismatch_exponent():
    fx = LemmaFixture("broken", "f1/f3",
                      "f2*f16*f24^2/(f6^2*f8*f48) - q*f2*f8^2*f12*f48/(f4*f6^2*f16*f24) + q",
                      100)
    report = check_fixture(fx)
    assert not report.passed
    assert report.first_mismatch == 1
    assert "q^1" in report.line()


def test_fixture_error_is_recorded_not_raised():
    fx = LemmaFixture("polar", "1/q", "1/q", 64)
    report = check_fixture(fx)
    assert not report.passed
    assert report.error is not None


def test_fixture_file_parsing():
    text = """
# comment line
name: sample
lhs = f1
rhs = f1  # same thing
check_to = 64
"""
    fixtures = parse_fixture_file(text)
    assert len(fixtures) == 1
    assert fixtures[0].name == "sample"
    with pytest.raises(ValueError):
        parse_fixture_file("name: x\nlhs = f1\ncheck_to = 60")
    with pytest.raises(ValueError):
        parse_fixture_file("junk line without equals")
    with pytest.raises(ValueError):
        LemmaFixture("tiny", "f1", "f1", 10)
    # a blank line separates fixtures, each field comes once, a name is
    # non-empty and check_to is ASCII digits; each error names the fixture
    two = "name: a\nlhs = f1\nrhs = f1\ncheck_to = 60\n\nname: b\nlhs = f2\nrhs = f2\ncheck_to = 70"
    assert [(fx.name, fx.lhs, fx.check_to) for fx in parse_fixture_file(two)] == [
        ("a", "f1", 60), ("b", "f2", 70)]
    # leading blanks are insignificant on every line, the name line too
    assert parse_fixture_file("  name: c\n  lhs = f1\n\trhs = f1\ncheck_to = 60")[0].name == "c"
    for text, message in (
        (two.replace("\n\n", "\n"), "a: name given twice"),
        ("lhs = f1\nlhs = f2", "unnamed fixture: lhs given twice"),
        ("name: a\nrhs = f1\nlhs = f1\nrhs = f2\ncheck_to = 60", "a: rhs given twice"),
        ("name: a\ncheck_to = 60\ncheck_to = 70\nlhs = f1\nrhs = f1", "a: check_to given twice"),
        ("name:\nlhs = f1\nrhs = f1\ncheck_to = 60", "empty fixture name"),
        ("name: a\nlhs = f1\nrhs = f1\ncheck_to = sixty", "a: check_to must be ASCII digits"),
        ("name: a\nlhs = f1\nrhs = f1\ncheck_to = \u0666\u0660", "a: check_to must be"),
        (two.replace("name: b", "name: a"), "duplicate fixture names: 'a'"),
    ):
        with pytest.raises(ValueError) as err:
            parse_fixture_file(text)
        assert str(err.value).startswith(message), (text, str(err.value))


def test_prefactor_halves_match_dissections():
    # the two fixture right-hand sides, replayed through dissect against
    # the single-variable quotient forms
    a = prefactor_a(400)
    even = a.dissect(2, 0)
    odd = a.dissect(2, 1)
    assert even.eq(evaluate_text("f8*f12^2/(f1*f3*f4*f24)", 200))
    assert odd.eq(evaluate_text("-f4^2*f6*f24/(f1*f2*f3*f8*f12)", 200))


def test_w0_substitution_route():
    # q*W_0(q^4) written in the DSL: q*f8^4/f4^2 is the t=1, a=0 series
    lhs = evaluate_text("q*f8^4/f4^2", 200)
    from qlab.macmahon import direct_utilde
    assert lhs.eq(direct_utilde(0, 1, 200)[1])
