"""Write the benchmark's pinned plan, expected results and window check.

    PYTHONPATH=src python3 perfbench/record.py

plan.json pins every sweep: each family's J window and argument budget,
and the length of the overpartition expansion it reads (the workloads
order families by it).  The ranges are the quick profile's as of this
benchmark's first version, except that five windows are moved off
identically-zero values (NONVACUOUS_J).  windows.json records, for those
five, how many swept values are nonzero per J in the default and in the
pinned window.  expected.json holds one pass's outcome per operation.

Run it only when a workload is deliberately redefined.  It refuses to
record a family or identity that does not pass, a route that disagrees,
or a pinned window with a J that sees only zeros.
"""

from __future__ import annotations

import json
import os
import sys

from qlab import congruences, macmahon, qexpr

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

QUICK_BUDGET = 20000
QUICK_OVERPARTITION_BUDGET = 50000
QUICK_COEFF_BUDGET = 1500
DEEP_IDS = ("v1-2b", "v1-2c")
DEEP_BUDGET = 150000
DEEP_J = (0, 1)
# the default windows of these families sweep only zeros at some J
NONVACUOUS_J = {
    "v1-0": (2, 3),         # t = J: all values at t = 0, 1 are 0
    "vm2-1b": (1, 2),       # t = 2J: t = 0 is vacuous
    "vm2-2b": (1, 2),
    "vm2-3": (1, 2),        # t = 4J
    "m0-36n-mod4": (1, 2),  # t = 2J+1: t = 1 is an exact-zero case
}
SWEEP_WINDOW = 2000         # congruences: bound = max(budget, t^2 + 2000)


def _a_of(fam) -> int:
    return int(fam.sequence[fam.sequence.index("(") + 1:-1])


def _default_j(fam):
    return (0, 1) if fam.j_min == 0 else (1, 2)


def _overpartition_len(fam, js, budget: int) -> int:
    """Length of the overpartition expansion the sweep reads (0 if none)."""
    if fam.sequence == "OVERPARTITION":
        return budget + 1
    if not fam.sequence.startswith("MODD"):
        return 0
    ts = [fam.t_of(j) for j in js]
    if fam.dp_backed:
        if fam.expected != congruences.EQUALS_MODD_M2:
            return 0
        return max((t * t + congruences.DP_WINDOW) // 4 + 1 for t in ts)
    if _a_of(fam) == 1 and not fam.easy3_cross:
        return 0
    return max(max(budget, t * t + SWEEP_WINDOW) for t in ts) + 1


def _entry(fam, js, budget: int) -> dict:
    js = list(js) if fam.t_rule is not None else None
    return {"id": fam.id, "J": js, "budget": budget,
            "overpartition_len": _overpartition_len(fam, js or (), budget)}


def make_plan() -> dict:
    quick = []
    for fam in congruences.registry():
        if fam.sequence == "OVERPARTITION":
            budget = QUICK_OVERPARTITION_BUDGET
        elif fam.sequence.startswith("COEFF"):
            budget = QUICK_COEFF_BUDGET
        else:
            budget = QUICK_BUDGET
        quick.append(_entry(fam, NONVACUOUS_J.get(fam.id, _default_j(fam)), budget))
    deep = [_entry(congruences.lookup(i), DEEP_J, DEEP_BUDGET) for i in DEEP_IDS]
    return {"sweep-quick": quick, "sweep-deep": deep}


def window_check() -> dict:
    """Per J, how many swept values there are and how many are nonzero."""
    out = {}
    cache = congruences.SweepCache()
    for fid, pinned in NONVACUOUS_J.items():
        fam = congruences.lookup(fid)
        a = _a_of(fam)
        kind = "prefactor_a" if a == 1 else "overpartition"
        rows = {}
        for label, js in (("default", _default_j(fam)), ("pinned", pinned)):
            for j in js:
                t = fam.t_of(j)
                bound = max(QUICK_BUDGET, t * t + SWEEP_WINDOW)
                args = sorted(x for r in fam.arg_residues
                              for x in range(r, bound + 1, fam.arg_mod))
                pref = cache.coeffs(kind, bound + 1)
                values = macmahon.modd_explicit_batch(a, t, args, pref)
                rows[f"{label} J={j} (t={t})"] = {
                    "values": len(values), "nonzero": sum(1 for v in values if v)}
        out[fid] = rows
    return out


def _dump(name: str, data) -> None:
    with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=False)
        fh.write("\n")


def main() -> int:
    plan = make_plan()
    windows = window_check()
    vacuous = [(fid, row) for fid, rows in windows.items()
               for row, c in rows.items() if row.startswith("pinned") and not c["nonzero"]]
    if vacuous:
        print(f"pinned windows that see only zeros: {vacuous}", file=sys.stderr)
        return 1
    fixtures = qexpr.load_fixtures()
    expected = {}
    for name in workloads.WORKLOADS:
        ops, _ = workloads.run_pass(name, workloads.make_inputs(name, 0, plan, fixtures))
        bad = {k: v for k, v in ops.items()
               if v.get("status", "pass") != "pass" or not v.get("passed", True)
               or v.get("unequal") or "error" in v}
        if bad:
            print(f"{name}: refusing to record failures {bad}", file=sys.stderr)
            return 1
        expected[name] = {k: ({"count": v["count"], "equal": True} if "count" in v else v)
                          for k, v in sorted(ops.items())}
        print(f"{name}: {len(ops)} operations recorded", file=sys.stderr)
    _dump("plan.json", plan)
    _dump("windows.json", windows)
    _dump("expected.json", expected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
