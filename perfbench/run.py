"""qlab benchmark: exact-verification workloads, measured end to end.

    python3 perfbench/run.py --workload sweep-quick|sweep-deep|crosscheck|all \\
        --seed N --seconds S --trace 0|1 [--expected FILE]

Run from the root of a checkout; the library is imported from its src/.
A closed loop with one client: each workload pass runs in a fresh
single-threaded interpreter (QLAB_THREADS unset), so caches start cold as
they do for a CLI user, and passes run one after another.  Every pass is
checked against expected.json, where a mismatch or a raised error is a
failed operation.

--trace 0 runs several set-up-only interpreters, then whole passes while
the next one is expected to end within --seconds (at least one), and
reports medians: wall_s, checked_per_s (coefficients compared exactly per
second of wall_s), peak_rss_mb (largest child) and setup_s.  --trace 1 runs
one plain pass and one traced pass and reports per-layer calls and self
time, the expansion and cache counters, and trace.overhead_s (traced
wall_s minus plain wall_s).

The last line of output is one JSON object: correct, attempted, failed and
metrics.  The line before it names every metric with its unit, sample
count and ops_failed_frac.  Exit status is 0 only when no operation
failed; 2 when the checkout has no qlab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep-quick", "sweep-deep", "crosscheck")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0

UNITS = {"wall_s": "s", "checked_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {"special.max_order": "terms", "special.max_coeff_bits": "bits",
               "congruences.cache.builds": "count", "congruences.cache.hit_ratio": "ratio",
               "congruences.checked": "count", "trace.overhead_s": "s"}


class ChildFailed(RuntimeError):
    pass


def _child(mode: str, name: str, seed: int, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("QLAB_THREADS", None)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, WORKER, mode, name, str(seed)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} {name}: no result within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} {name}: exit status {proc.returncode}")
    return json.loads(lines[-1])


class _Gate:
    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = self.failed = 0

    def check(self, result: dict) -> None:
        attempted, failed, messages = gate.compare(self.expected, result["ops"])
        self.attempted += attempted
        self.failed += failed
        for msg in messages[:20]:
            print(f"FAILED {msg}", file=sys.stderr)


def measure(name: str, seed: int, seconds: float, deadline: float, checker: _Gate) -> tuple[dict, str]:
    _child("setup", name, seed, deadline)  # compiles bytecode; not timed
    setups = [_child("setup", name, seed, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        result = _child("pass", name, seed, deadline)
        checker.check(result)
        passes.append(result)
        setups.append(result["setup_s"])
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    rss_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                 + [p["peak_rss_kb"] for p in passes])
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "checked_per_s": statistics.median(p["checked"] / p["wall_s"] for p in passes),
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    note = f"passes={len(passes)} setup_samples={len(setups)} checked={passes[0]['checked']}"
    return metrics, note


def measure_traced(name: str, seed: int, deadline: float, checker: _Gate) -> tuple[dict, str]:
    plain = _child("pass", name, seed, deadline)
    checker.check(plain)
    traced = _child("trace", name, seed, deadline)
    checker.check(traced)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    note = (f"plain wall_s={plain['wall_s']:.6g} s traced wall_s={traced['wall_s']:.6g} s"
            f" spans in perfbench/out/trace-{name}-seed{seed}.json")
    return metrics, note


def _unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric in LAYER_UNITS:
        return LAYER_UNITS[metric]
    return "s" if metric.endswith(".self_s") else "count"


def run_one(name: str, args, expected: dict) -> int:
    checker = _Gate(expected[name])
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, note = measure_traced(name, args.seed, deadline, checker)
        else:
            metrics, note = measure(name, args.seed, args.seconds, deadline, checker)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    frac = checker.failed / checker.attempted if checker.attempted else 1.0
    shown = " ".join(f"{k}={v:.6g} {_unit(k)}" for k, v in metrics.items())
    print(f"{name}: {shown} ops_failed_frac={frac:.6g} ({checker.failed}/{checker.attempted}) {note}")
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }), flush=True)
    return 0 if checker.failed == 0 and checker.attempted > 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="expected-results file (default: perfbench/expected.json)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qlab", "__init__.py")):
        print(f"error: no qlab sources under {SRC}; run from a qlab checkout",
              file=sys.stderr)
        return 2
    expected = gate.load_expected(args.expected)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status = max(status, run_one(name, args, expected))
    return status


if __name__ == "__main__":
    sys.exit(main())
