"""Tests of the benchmark itself (about two minutes; not part of Tier-1).

    python3 -m pytest -q perfbench/test_bench.py

Run from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, EvalMix, ResolutionCurve, VerifyAll, _load  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    doc = last_json(bench(workload, 0))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(doc["metrics"]) == names
    for m in SPEC["end_to_end"]:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run(workload):
    """Every binding is wrapped, required counters are non-zero, the two
    traced processes agree on every count and the traced output digest
    equals the untraced one (all enforced as `correct` by run.py)."""
    proc = bench(workload, 1)
    doc = last_json(proc)
    assert doc["correct"], proc.stdout[-3000:]
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(doc["metrics"]) == names
    for name in WORKLOADS[workload].required:
        assert doc["metrics"][name]["value"] > 0, name
    assert doc["metrics"]["trace.overhead_share"]["value"] > 0


def test_counts_repeat_across_runs():
    docs = [last_json(bench("resolution_curve", 1)) for _ in range(2)]
    counts = [{k: v["value"] for k, v in d["metrics"].items()
               if v["unit"] in ("count", "share")
               and k != "trace.overhead_share"} for d in docs]
    assert counts[0] == counts[1]


def test_fails_without_sources():
    """A directory holding only BENCHMARK.json and perfbench/ has nothing
    to measure: the run must fail without printing a result."""
    bare = os.path.join(ROOT, ".bench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("eval_mix", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(os.path.join(ROOT, ".bench_tmp"), ignore_errors=True)


def test_times_scale_to_reference_speed():
    """A child whose reference task took twice the nominal time ran on a
    host at half the reference speed: its times after set-up are halved,
    set-up time and memory are left as measured."""
    import run
    child = {"setup_s": 0.02, "wall_s": 2.0, "peak_rss_kb": 20480, "ops": 4,
             "latencies_s": [0.5, 0.5, 0.5, 0.5],
             "ref_s": [2 * run.REF_NOMINAL_S] * 2}
    scaled = run.end_to_end([child], [])
    raw = run.end_to_end([child], [], scale=lambda c: 1.0)
    assert scaled["wall_s"][0] == pytest.approx(raw["wall_s"][0] / 2)
    assert scaled["p50_ms"][0] == pytest.approx(raw["p50_ms"][0] / 2)
    assert scaled["ops_per_s"][0] == pytest.approx(raw["ops_per_s"][0] * 2)
    assert scaled["setup_s"] == raw["setup_s"] == (0.02, "s")
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == (20, "MiB")


# -- the oracles must be able to fail ---------------------------------------

def _ok(stdout, code=0):
    return [code, stdout, False, False]


def test_verify_oracle():
    golden = _load("verify_all.json")["stdout"]
    assert VerifyAll().check(0, [_ok(golden)]).failed == 0
    doc = json.loads(golden)
    doc["checks"][0]["status"] = "fail"
    assert VerifyAll().check(0, [_ok(json.dumps(doc), 1)]).failed >= 1
    doc["checks"] = []
    empty = VerifyAll().check(0, [_ok(json.dumps(doc))])
    assert empty.failed == empty.attempted >= 1


def test_resolution_oracle():
    golden = _load("resolution_curve.json")
    results = [_ok(golden[str(n)]["stdout"]) for n in range(7)]
    assert ResolutionCurve().check(0, results).failed == 0
    doc = json.loads(results[3][1])
    doc["alpha_at_q"] = "1/2"
    results[3] = _ok(json.dumps(doc))
    assert ResolutionCurve().check(0, results).failed == 1


def test_eval_oracle():
    wl = EvalMix()
    pool = _load("eval_pool.json")
    lookup = {tuple(e[0]): e for cat in pool.values() for e in cat}
    batch = [lookup[tuple(argv)] for argv in wl.cases(3)]
    results = [[e[1], e[2], e[3], e[3]] for e in batch]
    outcome = wl.check(3, results)
    assert outcome.failed == 0 and outcome.defects == 40
    defect = next(i for i, e in enumerate(batch) if e[3])
    fixed = list(results)
    fixed[defect] = [3, "", False, False]       # a later fix: exit 3
    assert wl.check(3, fixed).defects == 39
    wrong = next(i for i, e in enumerate(batch) if e[1] == 0)
    results[wrong] = [0, results[wrong][1] + "x", False, False]
    assert wl.check(3, results).failed == 1
