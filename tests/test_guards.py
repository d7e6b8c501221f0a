"""Exactness and invariant guards are raised errors, so they hold under
``python -O`` too."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qlab.arith import InexactDivision, exact_div

SRC = Path(__file__).resolve().parent.parent / "src"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((SRC / "qlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_report_invariant_survives_optimize():
    code = (
        "from qlab.congruences import VerifyReport\n"
        "assert False, 'asserts must be off under -O'\n"
        "try:\n"
        "    VerifyReport(family_id='x', sequence='MODD(1)', t_rule=None,\n"
        "                 arg_rule='8N+7', modulus=8, ranges={}, status='fail',\n"
        "                 counterexample=None, millis=1.0)\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_exact_div():
    assert exact_div(12, 4) == 3
    assert exact_div(-12, 4) == -3
    with pytest.raises(InexactDivision):
        exact_div(13, 4)
