"""Negative control for the benchmark's expected-results gate.

A correct pass observes exactly what expected.json records.  Corrupting one
expected `checked` count and flipping one identity's expected verdict must
each show up as a failed operation, in the gate and in the benchmark
command's result and exit status.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402

FAMILY = "family:v1-2c"
IDENTITY = "identity:psi_3diss"


def _observed(expected_ops: dict) -> dict:
    """What a correct pass reports for these expected operations."""
    return {k: ({"count": v["count"], "unequal": 0} if "count" in v else dict(v))
            for k, v in expected_ops.items()}


def _corrupted(expected: dict) -> dict:
    bad = copy.deepcopy(expected)
    bad["sweep-deep"][FAMILY]["checked"] += 1
    ident = bad["crosscheck"][IDENTITY]
    ident["passed"] = not ident["passed"]
    return bad


def test_expected_results_pass_their_own_observation():
    expected = gate.load_expected()
    for name, ops in expected.items():
        attempted, failed, messages = gate.compare(ops, _observed(ops))
        assert attempted >= len(ops) and failed == 0, (name, messages)


def test_gate_reports_corrupted_count_and_flipped_identity():
    expected = gate.load_expected()
    bad = _corrupted(expected)
    for name, key in (("sweep-deep", FAMILY), ("crosscheck", IDENTITY)):
        _, failed, messages = gate.compare(bad[name], _observed(expected[name]))
        assert failed == 1
        assert messages[0].startswith(key)


def test_gate_counts_missing_raising_and_disagreeing_operations():
    expected = gate.load_expected()["crosscheck"]
    observed = _observed(expected)
    del observed[IDENTITY]
    observed["route:direct=oracle"]["unequal"] = 3
    observed["route:kummer=division"]["count"] -= 1
    observed["route:pow2_congruence"] = {"error": "ValueError: boom"}
    attempted, failed, _ = gate.compare(expected, observed)
    assert attempted == gate.compare(expected, _observed(expected))[0]
    assert failed == 1 + 3 + 1 + expected["route:pow2_congruence"]["count"]


def _run(workload: str, expected_path: str):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0", "--expected", expected_path],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def test_benchmark_command_reports_the_negative_control(tmp_path):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(_corrupted(gate.load_expected())))
    for workload, key in (("crosscheck", IDENTITY), ("sweep-deep", FAMILY)):
        status, result, stderr = _run(workload, str(path))
        assert status != 0
        assert result["correct"] is False
        assert result["failed"] >= 1 and result["attempted"] > result["failed"]
        assert f"FAILED {key}" in stderr


def test_reported_metrics_match_benchmark_json():
    import run
    import tracer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["end_to_end"] + bench["per_layer"]
    assert all(run._unit(m["name"]) == m["unit"] for m in declared)
    names = {m["name"] for m in bench["per_layer"]}
    assert {n + suffix for n in tracer.LAYERS for suffix in (".calls", ".self_s")} <= names
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
