"""Checks one pass's observed operations against expected.json.

An operation is one family sweep, one identity, or one cross-route
comparison.  A route entry stands for `count` comparisons, each of which
must come out `equal` as expected.  An operation that is missing, extra,
raised an error, or differs from its expected record in any field (a
family's status or checked count, an identity's verdict) is failed, and a
route whose comparison count changed fails one more.
"""

from __future__ import annotations

import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(expected: dict, observed: dict) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, one message per failure)."""
    attempted = failed = 0
    messages = []
    for key in sorted(expected.keys() | observed.keys()):
        n, bad, why = _compare_op(expected.get(key), observed.get(key))
        attempted += n
        failed += bad
        if bad:
            messages.append(f"{key}: {why}")
    return attempted, failed, messages


def _compare_op(want: dict | None, got: dict | None) -> tuple[int, int, str]:
    if want is None:
        return 1, 1, f"not in the expected results: {got}"
    size = want.get("count", 1)
    if got is None:
        return size, size, "missing"
    if "error" in got:
        return size, size, got["error"]
    if "count" in want:
        n = max(size, got["count"])
        bad = got["unequal"] if want["equal"] else got["count"] - got["unequal"]
        why = f"{bad} of {got['count']} comparisons disagree with equal={want['equal']}"
        if got["count"] != size:
            bad += 1
            why += f"; expected {size} comparisons"
        return n, min(n, bad), why
    diffs = {k: (v, got.get(k)) for k, v in want.items() if got.get(k) != v}
    if diffs:
        return 1, 1, "; ".join(f"{k} expected {v!r}, got {g!r}" for k, (v, g) in diffs.items())
    return 1, 0, ""
