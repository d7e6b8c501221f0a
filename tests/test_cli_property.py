"""Hostile input, drawn at random: whatever argv `qlab` is given, it exits 0,
1 or 2, a refusal is one `error:` line on an empty stdout, and no other
exception escapes.  Everything runs in process and starts no process."""

import contextlib
import io
import os

from hypothesis import given, settings, strategies as st

from qlab import congruences, macmahon, qexpr
from qlab.cli import _ROUTES, _SEQUENCES, main

# small numbers most of the time, now and then one up to 10^12
INTS = st.one_of(st.integers(0, 12), st.integers(0, 10 ** 12))
# an order, size or range end: at most 200, a few below 1 to be refused
SIZES = st.integers(-2, 200)


def _expr(atoms):
    """DSL text of expr := ['+'|'-'] term (('+'|'-') term)* over `atoms`."""
    power = st.builds(lambda neg, n: f"^{'-' if neg else ''}{n}", st.booleans(), INTS)
    factor = st.builds(str.__add__, atoms, st.one_of(st.just(""), power))
    term = st.builds(lambda first, rest: first + "".join(op + f for op, f in rest),
                     factor, st.lists(st.tuples(st.sampled_from("*/"), factor), max_size=2))
    return st.builds(lambda sign, first, rest: sign + first + "".join(op + t for op, t in rest),
                     st.sampled_from(["", "+", "-"]), term,
                     st.lists(st.tuples(st.sampled_from("+-"), term), max_size=1))


_ARG = st.builds(lambda neg, p: ("-q" if neg else "q") + p, st.booleans(),
                 st.one_of(st.just(""), INTS.map(lambda n: f"^{n}")))
_LEAVES = st.one_of(INTS.map(str), st.just("q"), INTS.map(lambda n: f"f{n}"),
                    st.builds(lambda name, arg: f"{name}({arg})",
                              st.sampled_from(sorted(qexpr._THETA_BASE)), _ARG))
GRAMMAR = _expr(st.recursive(_LEAVES, lambda atoms: _expr(atoms).map(lambda e: f"({e})"),
                             max_leaves=6))

CORPUS_FILE = os.path.join(os.path.dirname(qexpr.__file__), "fixtures", "dissections.qx")
CORPUS_SIDES = [side for fx in qexpr.load_fixtures() for side in (fx.lhs, fx.rhs)]
_PIECES = st.one_of(st.just(""), st.sampled_from(list("+-*/^()q0123456789 #\n=:")),
                    st.sampled_from(["f", "phi(", "f1^-", "name:", "check_to = "]),
                    INTS.map(str), st.text(max_size=3))


def _mutated(texts):
    """One of `texts` with one to three spans replaced by drawn pieces."""
    @st.composite
    def draw_one(draw):
        text = draw(st.sampled_from(texts))
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 4)))
            text = text[:i] + draw(_PIECES) + text[j:]
        return text
    return draw_one()


EXPRESSIONS = st.one_of(GRAMMAR, _mutated(CORPUS_SIDES))


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _argv(*parts):
    """The argv list of `parts`: each a word, or a strategy of a word or of
    a list of words."""
    parts = [st.just(p) if isinstance(p, str) else p for p in parts]
    return st.tuples(*parts).map(lambda got: [a for part in got
                                              for a in (part if isinstance(part, list) else [part])])


# the placeholder for a fixture file the test writes from drawn text
DRAWN_FILE = "<drawn fixture file>"
with open(CORPUS_FILE, encoding="utf-8") as fh:
    CORPUS_TEXT = fh.read()
FIXTURE_TEXTS = st.one_of(
    _mutated([CORPUS_TEXT]),
    st.builds(lambda lhs, rhs, to: f"name: drawn\nlhs = {lhs}\nrhs = {rhs}\ncheck_to = {to}\n",
              EXPRESSIONS, EXPRESSIONS, st.integers(0, 200)))

ARGV = st.one_of(
    _argv("expand", st.one_of(EXPRESSIONS, st.sampled_from(sorted(_SEQUENCES))),
          _option("--order", SIZES), _option("--mod", st.integers(-2, 50)),
          _option("--format", st.sampled_from(["text", "json", "csv"]))),
    _argv("modd", _option("-a", st.integers(-3, 3)), "-t", st.integers(-2, 12).map(str),
          "-n", SIZES.map(str), _option("--method", st.sampled_from([*_ROUTES, "all"]))),
    _argv("verify", "--family",
          st.one_of(st.sampled_from([fam.id for fam in congruences.registry()]),
                    st.just("nonexistent")),
          st.one_of(st.just([]), st.lists(st.integers(-1, 3), min_size=1, max_size=3)
                    .map(lambda js: ["--j", *map(str, js)])),
          "--budget", st.integers(-2, 2000).map(str),
          _option("--profile", st.sampled_from(["quick", "full"]))),
    # the packaged corpus checks at orders of 400 and up unless --order is given
    _argv("lemmas", "--order", SIZES.map(str)),
    _argv("lemmas", st.sampled_from([DRAWN_FILE, "no/such/file.qx", "."]),
          _option("--order", SIZES)),
    _argv("table", "--seq", st.sampled_from([*_SEQUENCES, "modd"]),
          _option("-a", st.sampled_from([*macmahon.EXPLICIT_AS, 2])),
          _option("-t", st.integers(-2, 12)),
          "--n", st.one_of(st.builds(lambda lo, hi: f"{lo}..{hi}", SIZES, SIZES),
                           st.sampled_from(["5", "1..x", ".."])),
          _option("--mod", st.integers(-2, 50))),
)


@settings(max_examples=200, deadline=None)
@given(argv=ARGV, data=st.data())
def test_any_argv_exits_0_1_or_2_and_refuses_in_one_line(tmp_path_factory, argv, data):
    if DRAWN_FILE in argv:
        path = tmp_path_factory.getbasetemp() / "drawn.qx"
        path.write_text(data.draw(FIXTURE_TEXTS), encoding="utf-8")
        argv = [str(path) if a == DRAWN_FILE else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse refuses the argv with exit 2
            code, usage = exc.code, True
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        if usage:
            assert lines[0].startswith("usage: ") and lines[-1].startswith("qlab"), argv
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
