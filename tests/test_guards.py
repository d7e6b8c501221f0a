"""Exactness and invariant guards are raised errors, so they hold under
``python -O`` too."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qlab import congruences, qexpr
from qlab.arith import InexactDivision, exact_div
from qlab.macmahon import PREFACTORS
from qlab.series import Poly, Series

SRC = Path(__file__).resolve().parent.parent / "src"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((SRC / "qlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_import_leaves_dataclasses_out():
    # every CLI call and benchmark pass pays this import: dataclasses pulls
    # in inspect, ast, dis and tokenize and compiles code for each class
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", "import sys, qlab, qlab.cli; "
                           "sys.exit('dataclasses' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "qlab imported dataclasses"


def test_import_leaves_typing_and_importlib_resources_out():
    # on an interpreter whose site does not import them (-S), typing cost
    # about 14 ms and importlib.resources about 16 ms of `import qlab.cli`;
    # the annotations need neither, and the corpus is a file beside qexpr
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", "import sys, qlab, qlab.cli; "
                           "found = {'typing', 'importlib.resources'} & set(sys.modules); "
                           "sys.exit(str(sorted(found)) if found else None)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_exact_div():
    assert exact_div(12, 4) == 3
    assert exact_div(-12, 4) == -3
    with pytest.raises(InexactDivision):
        exact_div(13, 4)


CLOSED_FORMS = {"coeff_column", "theta_weight_terms", "modd_explicit_batch",
                "explicit_utilde", "prefactor_a", "overpartition_gf",
                "closed_form", "PREFACTORS"}


def _reach(root: str) -> tuple[set, set]:
    """(functions of macmahon and series that `root` reaches, every name
    they mention), following calls through helpers."""
    defs = {}
    for name in ("macmahon.py", "series.py"):
        tree = ast.parse((SRC / "qlab" / name).read_text(encoding="utf-8"))
        defs.update((node.name, node) for node in tree.body
                    if isinstance(node, ast.FunctionDef))
    seen, todo, named = set(), [root], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(defs[fn]):
            ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ident:
                named.add(ident)
                if ident in defs:
                    todo.append(ident)
    return seen, named


def test_powersum_route_names_no_closed_form():
    # the exact m_odd claims check the closed form against this route, so
    # nothing it calls, directly or through helpers, may read one
    seen, named = _reach("powersum_utilde")
    assert {"_odd_power_sum", "_mul_kronecker", "series_of_rational"} <= seen
    assert not named & CLOSED_FORMS, sorted(named & CLOSED_FORMS)


def test_direct_route_names_no_other_route():
    # the DP is one of the routes the tests triangulate m_odd with, so
    # nothing it calls may read the closed forms, the power sums or the
    # brute-force oracle
    seen, named = _reach("direct_utilde")
    assert {"local_factor_coeffs", "_dp_slot_bits", "_unpack_signed"} <= seen
    others = CLOSED_FORMS | {"powersum_utilde", "_odd_power_sum", "oracle_modd"}
    assert not named & others, sorted(named & others)
    # one way through a part: its _FOLD chain; only the slot width reads
    # the term list d_m, and no term-by-term route or switch remains
    tree = ast.parse((SRC / "qlab" / "macmahon.py").read_text(encoding="utf-8"))
    (body,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "direct_utilde"]
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    bound = {node.id for node in ast.walk(body)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert "_FOLD" in names
    assert "local_factor_coeffs" not in names
    assert not bound & {"fold", "g"}, sorted(bound & {"fold", "g"})


def test_oracle_names_no_other_route():
    # the enumeration is the third route of the m_odd triangulation, so
    # nothing it calls may read the DP, the power sums or the closed forms
    seen, named = _reach("oracle_modd")
    assert "local_factor_coeffs" in seen
    others = CLOSED_FORMS | {"direct_utilde", "_dp_slot_bits", "_FOLD",
                             "powersum_utilde", "_odd_power_sum"}
    assert not named & others, sorted(named & others)


ORACLES = {"te_sum", "_binomial_c", "series_of_rational"}


@pytest.mark.parametrize("root", ["riordan_series", "coeff_column"])
def test_column_kernels_name_no_oracle(root):
    # the tests hold the O(n) columns equal to these slow exact routes, so
    # the columns must not be computed by them; both roots run the one
    # Gegenbauer kernel, and no second column kernel remains
    seen, named = _reach(root)
    assert "_gegenbauer" in seen
    tree = ast.parse((SRC / "qlab" / "macmahon.py").read_text(encoding="utf-8"))
    assert "_binomial_column" not in {node.name for node in tree.body
                                      if isinstance(node, ast.FunctionDef)}
    assert not named & ORACLES, sorted(named & ORACLES)


def _names_a_value(node) -> bool:
    """Whether `node` is an integer literal, or a literal collection of them."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False
    values = value if isinstance(value, (tuple, list, set, frozenset)) else [value]
    return all(isinstance(v, int) for v in values)


PREFACTOR_BUILDERS = {"prefactor_a", "overpartition_gf"}


def test_closed_forms_are_stated_once():
    # macmahon.closed_form is the one record of the m_odd closed forms:
    # the sweep compares no a with a number (``self.a is None`` only tells
    # the m_odd and c_n records from the rest) and spells no prefactor's
    # name (the a=0 reinterpretation reads its right side through
    # closed_form too), only PREFACTORS names a builder, and the per-a batch
    # and its a=0 self-recursion stay gone
    tree = ast.parse((SRC / "qlab" / "congruences.py").read_text(encoding="utf-8"))
    by_value = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and any(isinstance(o, ast.Attribute) and o.attr == "a"
                        for o in (node.left, *node.comparators))
                and any(map(_names_a_value, (node.left, *node.comparators)))]
    assert not by_value, by_value
    spelled = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
               and node.value in PREFACTORS]
    assert not spelled, spelled
    tree = ast.parse((SRC / "qlab" / "macmahon.py").read_text(encoding="utf-8"))
    table, = [node for node in tree.body if isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == ["PREFACTORS"]]
    named = {node.id for node in ast.walk(table) if isinstance(node, ast.Name)}
    assert PREFACTOR_BUILDERS <= named
    elsewhere = [node.lineno for stmt in tree.body if stmt is not table
                 for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and node.id in PREFACTOR_BUILDERS]
    assert not elsewhere, elsewhere
    functions = _functions(SRC / "qlab" / "macmahon.py")
    assert "_theta_batch" not in functions
    called = {ast.unparse(node.func) for node in ast.walk(functions["modd_explicit_batch"])
              if isinstance(node, ast.Call)}
    assert "closed_form" in called and "modd_explicit_batch" not in called, sorted(called)


SLOT_FORMAT = {"array", "to_bytes", "from_bytes", "byteswap"}
SLOT_PAIR = {"_pack", "_unpack", "_ARRAY_CODES"}


def test_slot_format_lives_in_one_pair():
    # every conversion between coefficient lists and packed ints in series
    # goes through _pack/_unpack, so the byte layout is written down once
    tree = ast.parse((SRC / "qlab" / "series.py").read_text(encoding="utf-8"))
    inside, outside = set(), []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
        else:
            name = None
        for sub in ast.walk(node):
            ident = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if ident in SLOT_FORMAT:
                if name in SLOT_PAIR:
                    inside.add(ident)
                else:
                    outside.append(f"series.py:{sub.lineno} {ident}")
    assert inside == SLOT_FORMAT
    assert not outside, outside


WINDOW_HELPERS = {"_modd_bound", "_dp_order", "_modd_pref_len", "_modd_pref_kind"}


def test_sweep_range_lives_in_one_function():
    # the J window is one policy, _bound: only it reads DP_WINDOW or takes
    # t^2, and the helpers that used to restate the window stay gone
    tree = ast.parse((SRC / "qlab" / "congruences.py").read_text(encoding="utf-8"))
    window, squares, defined = [], [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        defined.add(node.name)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == "DP_WINDOW":
                window.append(node.name)
            if (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
                    and all(isinstance(o, ast.Name) and o.id == "t"
                            for o in (sub.left, sub.right))):
                squares.append(node.name)
            if (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow)
                    and isinstance(sub.left, ast.Name) and sub.left.id == "t"):
                squares.append(node.name)
    assert "_bound" in defined
    assert set(window) == {"_bound"}, window
    assert set(squares) == {"_bound"}, squares
    assert not defined & WINDOW_HELPERS, sorted(defined & WINDOW_HELPERS)


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_series_kernels_run_one_loop_per_job():
    # one square-and-multiply, one scalar division recurrence, one pass
    # loop over the eta factors
    series = _functions(SRC / "qlab" / "series.py")
    halvings = {name for name, fn in series.items() for node in ast.walk(fn)
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)}
    assert halvings == {"_power"}, sorted(halvings)
    scalar = [node for node in ast.walk(series["_div_terms"]) if isinstance(node, ast.For)
              and "n" in {t.id for t in ast.walk(node.target) if isinstance(t, ast.Name)}]
    assert len(scalar) == 1, [node.lineno for node in scalar]
    assert ast.unparse(scalar[0].iter) == "enumerate(base)"
    eta = _functions(SRC / "qlab" / "special.py")["eta_product"]
    over = [node.lineno for node in ast.walk(eta) if isinstance(node, ast.For)
            and isinstance(node.iter, ast.Name) and node.iter.id == "factors"]
    assert len(over) == 1, over


GONE_PRODUCTS = {"_mul_dense_terms", "_mul_coeffs", "_KRONECKER_MIN_TERMS"}


def test_every_product_is_one_kronecker_multiply():
    # one product kernel: no slice-pass product and no term-count switch
    # between two kernels, and each product site calls the Kronecker multiply
    tree = ast.parse((SRC / "qlab" / "series.py").read_text(encoding="utf-8"))
    bound = {node.name if isinstance(node, ast.FunctionDef) else node.id
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert not bound & GONE_PRODUCTS, sorted(bound & GONE_PRODUCTS)
    sites = {f"{cls.name}.__mul__": fn for cls in tree.body if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__mul__"}
    sites["special.eta_product"] = _functions(SRC / "qlab" / "special.py")["eta_product"]
    assert set(sites) == {"Series.__mul__", "Poly.__mul__", "special.eta_product"}
    for site, fn in sites.items():
        called = {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
        assert "_mul_kronecker" in called, (site, sorted(called))


CLASS_SOURCES = {"val_table", "arg_residues"}
CLASS_SPELLINGS = {"n_excluded", "nu2_bounds", "_table_classes"}


def test_argument_classes_are_read_from_one_table():
    # every sweep step reads CongruenceFamily.classes; only it (and the
    # printed argument rule) reads the record's raw class fields, and the
    # per-kind spellings of a class stay gone
    tree = ast.parse((SRC / "qlab" / "congruences.py").read_text(encoding="utf-8"))
    readers, named = set(), set()

    def visit(node, fn):
        if isinstance(node, ast.FunctionDef):
            fn = node.name
            named.add(node.name)
        ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, ast.Attribute) and ident in CLASS_SOURCES:
            readers.add(fn)
        named.update(filter(None, [ident, getattr(node, "arg", None)]))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    assert readers == {"classes", "arg_rule_str"}, sorted(readers, key=str)
    assert not named & CLASS_SPELLINGS, sorted(named & CLASS_SPELLINGS)


def test_sweep_cache_is_one_store():
    # every expansion a sweep reads, the power-sum rows included, lives in
    # SweepCache's one dict under one rebuild rule; the per-a list of
    # power-sum builds that the plan never saw stays gone
    tree = ast.parse((SRC / "qlab" / "congruences.py").read_text(encoding="utf-8"))
    cache, = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "SweepCache"]
    methods = {node.name for node in cache.body if isinstance(node, ast.FunctionDef)}
    assert methods == {"__init__", "coeffs", "reserve"}, sorted(methods)
    found = [f"{path.name}:{n}" for path in sorted((SRC / "qlab").glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "dp_utilde" in line]
    assert not found, found


def test_cli_reads_the_a_sets_from_macmahon():
    # macmahon.DP_AS and EXPLICIT_AS are the one statement of which a each
    # route takes; the CLI's choices and default route read them
    tree = ast.parse((SRC / "qlab" / "cli.py").read_text(encoding="utf-8"))
    literal = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and node.elts
               and _names_a_value(node)]
    assert not literal, literal


GONE_READERS = {"_Lexer", "_PUNCT", "_THETA_NAMES", "_is_eta_factor", "_eta_map"}


def test_dsl_is_read_by_one_parser():
    # the lexer lives in the parser, only accept/expect test for a
    # punctuation token, and one _eta_form walk reads a term's eta quotient
    tree = ast.parse((SRC / "qlab" / "qexpr.py").read_text(encoding="utf-8"))
    bound = {node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert not bound & GONE_READERS, sorted(bound & GONE_READERS)
    assert "_eta_form" in bound
    functions = _functions(SRC / "qlab" / "qexpr.py")
    punct = {name for name, fn in functions.items() for node in ast.walk(fn)
             if isinstance(node, ast.Compare)
             and any(isinstance(o, ast.Constant) and o.value == "punct"
                     for o in (node.left, *node.comparators))}
    assert punct == {"accept", "expect"}, sorted(punct)
    opens = [ast.unparse(node) for node in ast.walk(functions["_atom"])
             if isinstance(node, ast.Call)]
    assert "self.accept('(')" in opens, opens


def test_one_immutability_rule():
    # series._ReadOnly is the only class in qlab that refuses stores and
    # deletes; every record inherits it instead of keeping a copy
    found = [f"{path.name}:{cls.name}" for path in sorted((SRC / "qlab").glob("*.py"))
             for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(cls, ast.ClassDef)
             and {"__setattr__", "__delattr__"} & {f.name for f in cls.body
                                                   if isinstance(f, ast.FunctionDef)}]
    assert found == ["series.py:_ReadOnly"]


@pytest.mark.parametrize("record, field", [
    (Series([1, 2]), "coeffs"),
    (Poly([1, 2]), "coeffs"),
    (congruences.lookup("vm2A-3"), "modulus"),
    (qexpr.load_fixtures()[0], "lhs"),
    (qexpr.parse("f1*q"), "terms"),
], ids=["Series", "Poly", "CongruenceFamily", "LemmaFixture", "SumExpr"])
def test_records_refuse_stores_and_deletes(record, field):
    # a delete used to leave a Series or a Poly without its coefficients
    before = getattr(record, field)
    with pytest.raises(AttributeError, match="read-only"):
        setattr(record, field, before)
    with pytest.raises(AttributeError, match="read-only"):
        delattr(record, field)
    with pytest.raises(AttributeError, match="read-only"):
        record.extra = 1
    assert getattr(record, field) == before
