"""Reduced-size smoke test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Runs every workload at `--size smoke` (a few small experiments) through the
real command line and checks the result format against BENCHMARK.json.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT, seed=7):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _bench(workload, trace, seed=7):
    """(environment record, result) of one smoke run."""
    proc = _run(workload, trace, seed=seed)
    assert proc.returncode == 0, proc.stderr
    *_, record, last = proc.stdout.splitlines()
    return json.loads(record), json.loads(last)


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, result = _bench(workload, 0)
    _check_metrics(result, SPEC["end_to_end"])
    assert record["passes"] >= 2 and len(record["setup_s"]) == 3
    assert len(record["pass_ref_wall_s"]) == record["passes"]
    assert record["environment"]["nproc"] >= 1
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


def test_layer_metrics_and_cache_independence():
    _, plain = _bench("tau-series", 1)
    record, cached = _bench("tau-series-cached", 1)
    _check_metrics(plain, SPEC["per_layer"])
    _check_metrics(cached, SPEC["per_layer"])
    p = {k: v["value"] for k, v in plain["metrics"].items()}
    c = {k: v["value"] for k, v in cached["metrics"].items()}
    assert p["moments.tables_built"] == c["cli.cache_stores"] > 0
    assert c["moments.tables_built"] == 0 and c["cli.cache_loads"] == p["moments.tables_built"]
    assert p["cli.cache_loads"] == 0 and p["oracle.unconverged"] == 0
    for name in ("skewlin.pfaffian_calls", "symfun.schur_calls", "partitions.listed",
                 "tauseries.terms", "oracle.eigen_calls", "hub.experiments"):
        assert p[name] == c[name] > 0
    assert record["verdicts_sha256"] == _bench("tau-series", 0)[0]["verdicts_sha256"]


def test_gate_traces_every_layer():
    _, result = _bench("gate", 1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("fock.vev_calls", "oracle.discrete_trials", "oracle.haar_samples_per_s",
                 "skewlin.pfaffian_calls", "quad.grids", "hub.experiments"):
        assert values[name] > 0


def test_seed_changes_identity_checks_only():
    a, _ = _bench("gate", 0, seed=3)
    b, _ = _bench("gate", 0, seed=5)
    assert a["verdicts_sha256"] == b["verdicts_sha256"]
    assert len(a["identity_checks"]) == 2 and a["identity_checks"] != b["identity_checks"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("gate", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_the_package():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from pftau import hub, oracle, skewlin, tauseries
    from perfbench.spans import Tracer
    before = (tauseries.abar, oracle.abar, hub.orc.eigen_integral, skewlin.pfaffian,
              tauseries.TauApprox.evaluate)
    with Tracer() as tr:
        assert tauseries.abar is not before[0] and oracle.abar is tauseries.abar
        skewlin.pfaffian([[0.0, 1.0], [-1.0, 0.0]])
    assert tr.calls["skewlin.pfaffian"] == 1
    assert (tauseries.abar, oracle.abar, hub.orc.eigen_integral, skewlin.pfaffian,
            tauseries.TauApprox.evaluate) == before


def test_reference_clock_scales_each_experiment():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from pftau import hub
    from perfbench import calibrate
    before = hub.run_experiment
    with calibrate.ReferenceClock(0.01) as clock:
        assert hub.run_experiment is not before
    assert hub.run_experiment is before
    clock.refs = [calibrate.REF_CHUNK_S, 3 * calibrate.REF_CHUNK_S, calibrate.REF_CHUNK_S]
    clock.calls = [(1.0, 1), (2.0, 2)]
    wall, cpu = clock.reference_s(3.6, 1.8)
    # 1 s and 2 s at half the reference speed, 0.6 s at the mean of the samples
    assert abs(wall - (0.5 + 1.0 + 0.6 * 3 / 5)) < 1e-12 and abs(cpu - wall / 2) < 1e-12
