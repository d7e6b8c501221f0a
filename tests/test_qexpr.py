"""Expression DSL: parser, pretty-printer, evaluator, fixture corpus."""

import pytest

from qlab.series import Series
from qlab.special import borwein_b, prefactor_a, psi
from qlab.qexpr import (
    DivisionByNonUnit,
    ExprSyntaxError,
    LemmaFixture,
    NegativeValuation,
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


# -- fixture machinery ---------------------------------------------------

def test_fixture_corpus_shape():
    fixtures = load_fixtures()
    assert len(fixtures) == 16
    assert len({fx.name for fx in fixtures}) == 16
    assert all(fx.check_to >= 400 for fx in fixtures)


def test_fixture_corpus_passes():
    reports = check_fixtures(load_fixtures(), order=400)
    assert all(r.passed for r in reports), [r.line() for r in reports if not r.passed]


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
