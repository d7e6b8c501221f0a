"""The benchmark's three workloads: inputs from a seed, and one pass each.

A pass calls qlab's public entry points and returns what it observed, one
entry per operation (a family sweep, an identity, or a cross-route
comparison), plus how many coefficients it compared exactly.  The seed
changes the order of operations and the sample points, never the amount
of work: sweep ranges are pinned in plan.json, and crosscheck draws one
sample from each of a fixed number of equal-width strata.

Library functions are always looked up through their module at call time
(``congruences.verify_family``), so the traced run can wrap them.
"""

from __future__ import annotations

import json
import os
import random
from math import comb

from qlab import arith, congruences, macmahon, qexpr

WORKLOADS = ("sweep-quick", "sweep-deep", "crosscheck")
PLAN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "plan.json")

# crosscheck sizes
CORPUS_ORDER = 1000          # raised from the corpus's own check_to = 600
DP_ORDER = 800
DP_T_MAX = 5
DP_AS = (-2, -1, 0, 1, 2)
EXPLICIT_AS = (-2, 0, 1)
ORACLE_TS = (1, 2, 3, 4)
ORACLE_N_MAX = 64
ORACLE_POINTS = 5            # per (a, t)
RIORDAN_T_MAX = 90
RIORDAN_COLUMNS = 3          # per a
RIORDAN_LEN = 150
KUMMER_PRIMES = (2, 3, 5, 7)
KUMMER_N_MAX = 400
KUMMER_SAMPLES = 3000
POW2_CASES = (tuple((s, 1) for s in range(1, 12))
              + tuple((s, step) for s in (2, 3) for step in range(2, 9)))


def load_plan(path: str = PLAN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One value drawn from each of k equal-width bins of [lo, hi]."""
    edges = [lo + (hi - lo + 1) * i // k for i in range(k + 1)]
    return [rng.randrange(edges[i], edges[i + 1]) for i in range(k)]


def make_inputs(name: str, seed: int, plan: dict, fixtures: list) -> dict:
    """Seeded inputs for one workload pass."""
    rng = random.Random(seed)
    if name in ("sweep-quick", "sweep-deep"):
        families = list(plan[name])
        rng.shuffle(families)
        # SweepCache rebuilds an expansion from scratch whenever a later
        # family needs a longer one; running families in ascending
        # expansion length makes every seed perform the same builds.
        families.sort(key=lambda fam: fam["overpartition_len"])
        return {"families": families}
    if name != "crosscheck":
        raise ValueError(f"unknown workload {name!r}")
    fixtures = list(fixtures)
    rng.shuffle(fixtures)
    dp_as = list(DP_AS)
    rng.shuffle(dp_as)
    oracle = {a: [(t, n) for t in ORACLE_TS
                  for n in _strata(rng, t * t, ORACLE_N_MAX, ORACLE_POINTS)]
              for a in DP_AS}
    columns = [(a, t) for a in DP_AS
               for t in _strata(rng, 1, RIORDAN_T_MAX, RIORDAN_COLUMNS)]
    rng.shuffle(columns)
    kummer = []
    for _ in range(KUMMER_SAMPLES):
        n = rng.randrange(KUMMER_N_MAX + 1)
        kummer.append((rng.choice(KUMMER_PRIMES), n, rng.randrange(n + 1)))
    pow2 = list(POW2_CASES)
    rng.shuffle(pow2)
    return {"fixtures": fixtures, "dp_as": dp_as, "oracle": oracle,
            "columns": columns, "kummer": kummer, "pow2": pow2}


def run_pass(name: str, inputs: dict) -> tuple[dict, int]:
    """One workload pass: (observed operations, coefficients compared)."""
    if name == "crosscheck":
        return _crosscheck(inputs)
    return _sweep(inputs["families"])


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _sweep(families: list[dict]) -> tuple[dict, int]:
    cache = congruences.SweepCache()
    ops: dict = {}
    checked = 0
    for fam in families:
        key = "family:" + fam["id"]
        try:
            report = congruences.verify_family(
                fam["id"], j_values=fam["J"], n_budget=fam["budget"], cache=cache)
        except Exception as exc:  # a raising family is a failed operation
            ops[key] = _error(exc)
            continue
        ops[key] = {"status": report.status, "checked": report.checked}
        checked += report.checked
    return ops, checked


class _Routes:
    """Counts of cross-route comparisons and how many disagreed."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def compare(self, route: str, lhs, rhs) -> None:
        c = self.counts.setdefault(route, [0, 0])
        c[0] += 1
        c[1] += lhs != rhs

    def ops(self) -> dict:
        return {"route:" + r: {"count": n, "unequal": bad}
                for r, (n, bad) in self.counts.items()}


def _nu(p: int, k: int) -> int:
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e


def _crosscheck(inp: dict) -> tuple[dict, int]:
    ops: dict = {}
    routes = _Routes()
    checked = 0

    try:
        reports = qexpr.check_fixtures(inp["fixtures"], CORPUS_ORDER)
    except Exception as exc:  # the whole corpus counts as failed
        ops["error:corpus"] = _error(exc)
    else:
        for rep in reports:
            ops["identity:" + rep.name] = {"passed": rep.passed}
            checked += CORPUS_ORDER

    for a in inp["dp_as"]:
        try:
            rows = macmahon.direct_utilde(a, DP_T_MAX, DP_ORDER)
            explicit = {}
            if a in EXPLICIT_AS:
                for t in range(1, DP_T_MAX + 1):
                    explicit[t] = macmahon.explicit_utilde(a, t, DP_ORDER)
                    routes.compare("direct=explicit", rows[t].coeffs, explicit[t].coeffs)
                    checked += DP_ORDER
            for t, n in inp["oracle"][a]:
                want = macmahon.oracle_modd(a, t, n)
                routes.compare("direct=oracle", rows[t].coeffs[n], want)
                checked += 1
                if explicit:
                    routes.compare("explicit=oracle", explicit[t].coeffs[n], want)
                    checked += 1
        except Exception as exc:
            ops[f"error:m_odd(a={a})"] = _error(exc)

    for a, t in inp["columns"]:
        try:
            col = macmahon.riordan_series(a, t, t + RIORDAN_LEN - 1).coeffs[t:]
            want = tuple(macmahon.te_sum(a, t, n) for n in range(t, t + RIORDAN_LEN))
        except Exception as exc:
            ops[f"error:riordan(a={a},t={t})"] = _error(exc)
            continue
        routes.compare("riordan=te_sum", col, want)
        checked += RIORDAN_LEN

    try:
        for p, n, m in inp["kummer"]:
            routes.compare("kummer=division",
                           arith.nu_binomial_kummer(p, n, m), _nu(p, comb(n, m)))
            checked += 1
        for s, step in inp["pow2"]:
            # both sides are polynomials of degree step * 2^s
            routes.compare("pow2_congruence", arith.pow2_poly_congruence(s, step), True)
            checked += step * 2 ** s + 1
    except Exception as exc:
        ops["error:arith"] = _error(exc)

    ops.update(routes.ops())
    return ops, checked
