"""The example scripts and shipped configs run end to end."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pftau.cli import main

ROOT = Path(__file__).resolve().parents[1]
# the acceptance suite has its own tests
CONFIGS = sorted(p for p in (ROOT / "scripts" / "configs").glob("*.json")
                 if p.stem != "suite_acceptance")


def run_script(name: str, *args: str) -> list[list[str]]:
    """Run scripts/<name> with the package on the path; the table rows, split."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# ")
    return [line.split() for line in lines[2:]]


def test_ratio_scan_table():
    rows = run_script("ratio_scan.py", "--kind", "GinSE", "--n", "1", "--steps", "1",
                      "--cutoff", "6")
    assert [row[0] for row in rows] == ["0.000", "0.450"]
    for t1, series, oracle, rel in rows:
        assert float(series) == pytest.approx(float(oracle), rel=1e-4)
        assert float(rel) < 1e-4
    assert float(rows[0][1]) == float(rows[0][2]) == 1.0


def test_ratio_scan_with_a_vanishing_partition_function():
    # OE N=1 L=1 has Z = 0 at t = 0: both ratios divide by Z at t = (0.05,)
    rows = run_script("ratio_scan.py", "--kind", "OE", "--n", "1", "--L", "1", "--steps", "2",
                      "--tmax", "0.1")
    assert [row[0] for row in rows] == ["0.000", "0.050", "0.100"]
    assert float(rows[0][1]) == float(rows[0][2]) == 0.0
    assert float(rows[1][1]) == float(rows[1][2]) == 1.0
    assert float(rows[2][3]) < 1e-12


def test_hirota_decay_table():
    rows = run_script("hirota_decay.py", "--kind", "SE", "--cutoffs", "6", "8")
    assert [row[0] for row in rows] == ["6", "8"]
    assert len(rows[0]) == 2 and len(rows[1]) == 3
    assert float(rows[1][1]) < float(rows[0][1])
    assert float(rows[1][2]) >= 2.0


def test_hirota_decay_past_float64_exits_1_without_a_traceback():
    # every GinOE n = 30 tau value is finite, but the residual's products of them are not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "hirota_decay.py"), "--kind",
                           "GinOE", "--n", "30", "--t1", "0.05", "--cutoffs", "8"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stderr == "W=8: Hirota terms at charge 30 overflow float64 (scale inf)\n"


def _expected_outputs(cfg: dict) -> list[str]:
    if cfg["command"] == "moments-dump":
        return ["moments.csv", "border.csv"]
    stem = "tau_table" if cfg["command"] == "partition-function" else "verdicts"
    fmt = cfg.get("format", "json")
    return [f"{stem}.{ext}" for ext in ("csv", "json") if fmt in (ext, "both")]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs(config, tmp_path):
    cfg = json.loads(config.read_text())
    assert main([cfg["command"], "--config", str(config), "--out", str(tmp_path)]) == 0
    for name in _expected_outputs(cfg):
        assert (tmp_path / name).is_file(), name
