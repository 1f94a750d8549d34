"""Self-tests of the benchmark.

    python -m pytest benchmarks/tests

The smoke runs go through ``run.py`` exactly as a benchmark run does,
one traced run of minimal length per workload (about three minutes in
all), and write their records under ``benchmarks/out/``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import relayflow as rf  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.fixture(scope="module", params=spec.WORKLOADS)
def smoke(request):
    name = request.param
    proc = _bench(ROOT, "--workload", name, "--seed", "0", "--seconds", "0", "--trace", "1")
    record = json.loads((BENCH / "out" / f"BENCH_{name}_seed0_trace1.json").read_text())
    spans = json.loads((BENCH / "out" / f"spans_{name}_seed0_trace1.json").read_text())
    return name, proc, record, spans


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spec.PER_LAYER


def test_smoke_run_emits_every_metric_with_its_unit(smoke):
    name, proc, record, _ = smoke
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == spec.PER_LAYER
    assert all(math.isfinite(v["value"]) for v in last["metrics"].values())
    assert set(record["end_to_end"]) == set(spec.END_TO_END)
    assert all(v is not None and v > 0 for v in record["end_to_end"].values()), record["end_to_end"]
    for metric, unit in spec.END_TO_END.items():
        assert f"{metric} " in proc.stdout and unit in proc.stdout


def test_traced_spans_nest_simplex_under_lp_under_mcfp(smoke):
    name, _, _, spans = smoke
    simplex = [s for s in spans if s["name"] == "simplex.solve_simplex"]
    if name == "fixtures-converge":
        assert simplex
    for s in simplex:
        lp_span = spans[s["parent"]]
        assert lp_span["name"] == "lp.solve"
        assert spans[lp_span["parent"]]["name"] == "mcfp.solve_mcfp"
        assert s["run"] == lp_span["run"]


def _broken_engine(lp, opts):
    zeros = np.zeros(lp.num_vars)
    return rf.LpResult(
        "numerical", zeros, 0.0, np.zeros(lp.num_ineq), np.zeros(lp.num_eq),
        zeros.copy(), zeros.copy(), math.inf, 0, "injected failure",
    )


def test_injected_solver_failure_raises_fail_ratio_without_crashing():
    workload = workloads.build("fixtures-converge", 0)
    record = workloads.evaluate(workload, 0.0, opts=rf.SolverOptions(engine=_broken_engine))
    assert record["fail_ratio"] > 0
    assert record["failed"] >= len(workload.items)
    assert not all(record["checks"].values())


def _instant(name):
    return workloads.Item(name, lambda opts: workloads.Outcome(solves=1, failed=0, phi=1.0))


def test_first_pass_always_runs_and_nothing_follows_past_the_budget():
    workload = workloads.Workload([_instant("a"), _instant("b")], sum)
    run = workloads.run_timed(workload, 0.0)
    assert {name: len(ts) for name, ts in run.times.items()} == {"a": 1, "b": 1}


def test_tail_needs_ten_samples_beyond_it():
    assert tracing.tail(list(range(19)))[0] == 50.0
    assert tracing.tail(list(range(100)))[0] == 90.0
    assert tracing.tail(list(range(200)))[0] == 95.0


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "large-cold", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
