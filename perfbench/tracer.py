"""Span tracer for the benchmark's traced run.

Each layer entry point is wrapped at every name a caller looks it up by:
each ``qlab`` module global (``qlab.congruences.coeff_c`` as well as
``qlab.macmahon.coeff_c``) or class attribute (``Series.__mul__`` and its
alias ``__rmul__``) bound to the function.  A call records a span (name,
start, end, parent) in memory; the spans are written out after the pass.
A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# span name -> (module, attribute) of the function it wraps
LAYERS = {
    "macmahon.coeff_c": ("qlab.macmahon", "coeff_c"),
    "special.eta_quotient": ("qlab.special", "eta_quotient"),
    "series.div_terms": ("qlab.series", "_div_terms"),
    "congruences.verify_family": ("qlab.congruences", "verify_family"),
    "macmahon.modd_explicit_batch": ("qlab.macmahon", "modd_explicit_batch"),
    "macmahon.direct_utilde": ("qlab.macmahon", "direct_utilde"),
    "series.mul_dense_terms": ("qlab.series", "_mul_dense_terms"),
    "series.Series.mul": ("qlab.series", "Series.__mul__"),
    "series.Series.div": ("qlab.series", "Series.div"),
    "series.series_of_rational": ("qlab.series", "series_of_rational"),
    "series.Poly.mul": ("qlab.series", "Poly.__mul__"),
    "qexpr.parse": ("qlab.qexpr", "parse"),
    "qexpr.evaluate": ("qlab.qexpr", "evaluate"),
    "macmahon.explicit_utilde": ("qlab.macmahon", "explicit_utilde"),
    "macmahon.oracle_modd": ("qlab.macmahon", "oracle_modd"),
    "arith.nu_binomial_kummer": ("qlab.arith", "nu_binomial_kummer"),
    "arith.pow2_poly_congruence": ("qlab.arith", "pow2_poly_congruence"),
}
# traced for the cache counters only
CACHE_COEFFS = "congruences.SweepCache.coeffs"
_TARGETS = dict(LAYERS, **{CACHE_COEFFS: ("qlab.congruences", "SweepCache.coeffs")})
ETA = "special.eta_quotient"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._eta_results: list = []

    def _wrap(self, name, fn, keep=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if keep is not None:
                keep(result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of its own."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self) -> list[str]:
        """Wrap every layer entry point; return the names not found."""
        missing = []
        qlab_modules = [m for n, m in list(sys.modules.items())
                        if m is not None and (n == "qlab" or n.startswith("qlab."))]
        for name, (modname, attr) in _TARGETS.items():
            owner = sys.modules.get(modname)
            *cls, member = attr.split(".")
            if owner is not None and cls:
                owner = getattr(owner, cls[0], None)
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            keep = self._eta_results.append if name == ETA else None
            wrapper = self._wrap(name, original, keep)
            homes = [owner] if cls else qlab_modules
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, key, wrapper)
                        self._patches.append((home, key, original))
        return missing

    def uninstall(self) -> None:
        for home, key, original in reversed(self._patches):
            setattr(home, key, original)
        self._patches.clear()

    def layer_metrics(self) -> dict:
        """Per-layer calls and self time, plus the expansion and cache counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        built_in = set()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            if name == ETA and parent >= 0 and self.spans[parent][0] == CACHE_COEFFS:
                built_in.add(parent)
        out = {}
        for name in LAYERS:
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".self_s"] = self_s.get(name, 0.0)
        out["special.max_order"] = max((s.order for s in self._eta_results), default=0)
        out["special.max_coeff_bits"] = max(
            (max(abs(c) for c in s.coeffs).bit_length()
             for s in self._eta_results if s.order), default=0)
        lookups = calls.get(CACHE_COEFFS, 0)
        out["congruences.cache.builds"] = len(built_in)
        out["congruences.cache.hit_ratio"] = (
            (lookups - len(built_in)) / lookups if lookups else 0.0)
        return out

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)
