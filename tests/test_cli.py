import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pftau
from pftau import hub, moments
from pftau.cli import (ConfigError, MomentCache, _command_node, _experiment_from_node, fmt17,
                       main, parse_config, run_config)
from pftau.moments import EnsembleSpec
from pftau.symfun import CouplingSeq


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps({"command": "compare-oracle",
                                   "ensemble": {"kind": "SE", "n": 1}}))
    assert cfg.cutoff == 10
    assert cfg.tolerance == 1e-5
    assert cfg.samples == 100000
    assert cfg.seed == 42
    assert cfg.ensemble == EnsembleSpec("SE", 1)


def test_parse_rejects_unknown_kind():
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "compare-oracle", "ensemble": {"kind": "XY", "n": 1}}')
    assert err.value.code == "unknown-ensemble-kind"


def test_parse_rejects_duplicate_field():
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "suite", "seed": 1, "seed": 2}')
    assert err.value.code == "duplicate-field"


def test_parse_rejects_unknown_field_and_bad_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "suite", "wibble": 1}')
    assert err.value.code == "unknown-field"
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "suite", "cutoff": -3}')
    assert err.value.code == "bad-number"
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "suite", "cutoff": "many"}')
    assert err.value.code == "bad-number"
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "fly"}')
    assert err.value.code == "unknown-command"
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "compare-oracle", "ensemble": {"kind": "SE", "n": 1, "zap": 2}}')
    assert err.value.code == "unknown-field"


def test_fmt17_round_trips_doubles():
    rng = np.random.default_rng(1)
    for x in rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, size=40):
        assert float(fmt17(x)) == x


def test_partition_function_outputs_deterministic(tmp_path):
    cfg_text = json.dumps({"command": "partition-function",
                           "ensemble": {"kind": "SE", "n": 1, "t": [0.3]},
                           "cutoff": 6, "format": "both"})
    cfg1 = parse_config(cfg_text)
    out1 = tmp_path / "a"
    run_config(cfg1, out1)
    cfg2 = parse_config(cfg_text)
    out2 = tmp_path / "b"
    run_config(cfg2, out2)
    assert (out1 / "tau_table.csv").read_bytes() == (out2 / "tau_table.csv").read_bytes()
    assert (out1 / "tau_table.json").read_bytes() == (out2 / "tau_table.json").read_bytes()
    doc = json.loads((out1 / "tau_table.json").read_text())
    assert doc["config"]["ensemble"]["kind"] == "SE"
    rows = (out1 / "tau_table.csv").read_text().splitlines()
    assert rows[0].split(",")[:3] == ["partition", "coefficient_re", "coefficient_im"]
    # header + one row per partition of weight <= 6, length <= 2
    from pftau.partitions import enumerate_partitions
    assert len(rows) == 1 + len(enumerate_partitions(6, 2))


def test_moment_cache_roundtrip_and_corruption(tmp_path):
    cache = MomentCache(tmp_path / "cache")
    key = ("sector", (0.0, 0.4), 0, 6)
    table = np.arange(12.0).reshape(3, 4) + 1j
    cache.store(key, table)
    loaded = cache.load(key)
    assert np.array_equal(loaded, table)
    # corrupt the payload; the checksum must catch it
    victim = next(p for p in (tmp_path / "cache").iterdir() if p.suffix == ".npz")
    victim.write_bytes(victim.read_bytes()[:-7] + b"garbage")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.load(key) is None
    assert any("corrupt" in str(w.message) for w in caught)
    assert cache.load(("other", (), 0, 2)) is None


def test_moment_cache_store_leaves_no_temp_file(tmp_path):
    cache = MomentCache(tmp_path / "cache")
    cache.store(("sector", (), 0, 3), np.eye(3))
    cache.store(("sector", (), 0, 3), np.eye(3))     # overwriting, too
    names = sorted(p.name for p in (tmp_path / "cache").iterdir())
    assert len(names) == 3 and names[0] == ".lock"
    assert {n.rsplit(".", 1)[1] for n in names[1:]} == {"npz", "sha256"}


def test_cache_entry_without_table_algorithm_is_not_served(tmp_path):
    s = CouplingSeq.of(0.0, 0.4)
    cache = MomentCache(tmp_path / "c")
    cache.store(("orth_border", s.values, 0, 4), np.full(4, 99.0))   # key without the version
    moments.clear_cache()
    moments.set_disk_cache(cache)
    try:
        before = moments.TABLE_BUILDS
        border = moments.orth_border(s, 0, 4)
        assert moments.TABLE_BUILDS == before + 1
        assert not np.any(border == 99.0)
    finally:
        moments.set_disk_cache(None)
        moments.clear_cache()


@pytest.mark.parametrize("previous", ["tables-1", "tables-2"])
def test_cache_entry_under_the_previous_table_algorithm_is_not_served(tmp_path, previous):
    s = CouplingSeq.of(0.0, 0.4)
    assert moments.TABLE_ALGORITHM != previous
    cache = MomentCache(tmp_path / "c")
    cache.store((previous, "orth_border", s.values, 0, 4), np.full(4, 99.0))
    moments.clear_cache()
    moments.set_disk_cache(cache)
    try:
        before = moments.TABLE_BUILDS
        border = moments.orth_border(s, 0, 4)
        assert moments.TABLE_BUILDS == before + 1
        assert not np.any(border == 99.0)
    finally:
        moments.set_disk_cache(None)
        moments.clear_cache()


def test_disk_cache_skips_quadrature_on_second_run(tmp_path):
    moments.clear_cache()
    moments.set_disk_cache(MomentCache(tmp_path / "c"))
    try:
        moments.moment_pair(EnsembleSpec("SE", 1), 6)
        moments.clear_cache()           # drop the per-process memo
        before = moments.TABLE_BUILDS
        moments.moment_pair(EnsembleSpec("SE", 1), 6)
        assert moments.TABLE_BUILDS == before   # instrumented counter: no rebuild
        moments.clear_cache()
        moments.moment_pair(EnsembleSpec("SE", 1, s=CouplingSeq.of(0.0, 0.4)), 6)
        assert moments.TABLE_BUILDS > before    # changed s: cache miss
    finally:
        moments.set_disk_cache(None)
        moments.clear_cache()


def test_cli_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"command": "compare-oracle",
                                "ensemble": {"kind": "SE", "n": 1, "t": [0.3]},
                                "cutoff": 12, "tolerance": 1e-4,
                                "output": str(tmp_path / "out")}))
    assert main(["compare-oracle", "--config", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "compare-oracle", "ensemble": {"kind": "XY", "n": 1}}')
    assert main(["compare-oracle", "--config", str(bad)]) == 2
    assert main(["suite", "--config", str(good)]) == 2   # command mismatch
    missing = tmp_path / "nope.json"
    assert main(["suite", "--config", str(missing)]) == 2


def test_cli_failing_verdict_exit_code(tmp_path):
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps({"command": "compare-oracle",
                               "ensemble": {"kind": "SE", "n": 2, "t": [0.1, -0.05]},
                               "cutoff": 6, "tolerance": 1e-14,
                               "output": str(tmp_path / "out2")}))
    assert main(["compare-oracle", "--config", str(cfg)]) == 1


def test_inline_suite(tmp_path):
    cfg = parse_config(json.dumps({
        "command": "suite",
        "experiments": [
            {"name": "r1", "comparison": "series-vs-oracle-ratio",
             "ensemble": {"kind": "SE", "n": 1, "t": [0.3]},
             "tolerance": 1e-4, "cutoff": 12},
            {"name": "d1", "comparison": "discrete-exact",
             "ensemble": {"kind": "OE", "n": 1},
             "tolerance": 1e-10, "params": {"trials": 5}},
        ],
        "format": "json"}))
    rc = run_config(cfg, tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "verdicts.json").read_text())
    assert [v["name"] for v in doc["verdicts"]] == ["r1", "d1"]
    assert all(v["pass"] for v in doc["verdicts"])
    with pytest.raises(ConfigError):
        run_config(parse_config(json.dumps({"command": "suite", "experiments": [{"zz": 1}]})),
                   tmp_path)


def test_verdict_pass_fields_are_json_booleans(tmp_path):
    structure = {"comparison": "ginse-structure", "ensemble": {"kind": "GinSE", "n": 2},
                 "params": {"size": 8}}
    cfg = parse_config(json.dumps({
        "command": "suite", "format": "json",
        "experiments": [dict(structure, name="ok", tolerance=1e-6),
                        dict(structure, name="strict", tolerance=1e-300)]}))
    assert run_config(cfg, tmp_path) == 1
    doc = json.loads((tmp_path / "verdicts.json").read_text())
    assert [v["pass"] for v in doc["verdicts"]] == [True, False]


def test_gate_kernel_verdict_is_strict_json(tmp_path):
    # the sgn variant of the gate's kernel-OE-N2 has an infinite deviation
    [e] = [e for e in hub.acceptance_experiments() if e.name == "kernel-OE-N2"]
    node = {"name": e.name, "comparison": e.comparison, "tolerance": e.tolerance,
            "ensemble": {"kind": e.spec.kind, "n": e.spec.n, "L": e.spec.L,
                         "t": list(e.spec.t.values)},
            "params": {k: list(v) for k, v in e.params}}
    cfg = parse_config(json.dumps({"command": "suite", "format": "json", "experiments": [node]}))
    assert run_config(cfg, tmp_path) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads((tmp_path / "verdicts.json").read_text(), parse_constant=reject)
    [verdict] = doc["verdicts"]
    assert verdict["pass"]
    assert verdict["details"]["variants"]["sgn"]["deviation"] == "inf"


def test_single_command_is_an_inline_suite_entry():
    cfg = parse_config(json.dumps({"command": "hirota-check",
                                   "ensemble": {"kind": "SE", "n": 1, "t": [0.2]},
                                   "alpha_shift": 8, "beta_shift": 10.0,
                                   "cutoffs": [8, 10], "seed": 3}))
    e = _experiment_from_node(_command_node(cfg, "hirota-decay"), cfg, 0)
    assert (e.name, e.comparison, e.spec, e.seed) == ("hirota-check", "hirota-decay",
                                                       cfg.ensemble, 3)
    assert (e.tolerance, e.cutoff, e.samples) == (cfg.tolerance, cfg.cutoff, cfg.samples)
    assert dict(e.params) == {"alpha": 8.0, "beta": 10.0, "cutoffs": (8, 10)}


def test_spec_alpha_beta_range():
    with pytest.raises(ValueError, match="alpha"):
        EnsembleSpec("GinOE", 1, alpha=1.5)
    with pytest.raises(ValueError, match="beta"):
        EnsembleSpec("GinOE", 1, beta=-0.1)


def test_moments_dump(tmp_path):
    cfg = parse_config(json.dumps({"command": "moments-dump",
                                   "ensemble": {"kind": "GinSE", "n": 1},
                                   "size": 5, "format": "csv"}))
    rc = run_config(cfg, tmp_path)
    assert rc == 0
    rows = (tmp_path / "moments.csv").read_text().splitlines()
    assert rows[0].startswith("n,m,a_re,a_im")
    assert len(rows) == 1 + 25
    assert (tmp_path / "border.csv").exists()


def test_verdicts_identical_across_blas_thread_counts(tmp_path):
    # moment tables and the GinUE pair sum are BLAS products: the GinSE and
    # erfc-weighted GinOE plane tables, the OE line table and the GinUE
    # bimoments and two-point sum; the SE line and GinSE plane kernel matrices
    # are batched matrix products; the Haar power sums, real (O3) and complex
    # (Sp2), are entrywise on the batch axis
    names = ("ratio-GinSE-N2-L0-tA", "ratio-GinSE-N2-L1-tA", "ratio-GinOE-N2-L0-tA",
             "ratio-OE-N2-L0-tA", "bimoment-GinUE-N2", "group-O3", "group-Sp2",
             "kernel-SE-N2", "kernel-GinSE-N1")

    def ensemble(spec):
        node = {"kind": spec.kind, "n": spec.n, "L": spec.L, "t": list(spec.t.values)}
        if spec.t_bar.values:
            node["t_bar"] = list(spec.t_bar.values)
        return node

    bimoment = [e for e in hub.acceptance_experiments() if e.comparison == "bimoment-vs-direct"]
    nodes = [{"name": e.name, "comparison": e.comparison, "tolerance": e.tolerance,
              "cutoff": e.cutoff, "ensemble": ensemble(e.spec)}
             for e in hub.ratio_experiments(cutoff=8) + bimoment if e.name in names]
    nodes += [{"name": e.name, "comparison": e.comparison, "cutoff": e.cutoff,
               "samples": e.samples, "seed": e.seed, "params": dict(e.params)}
              for e in hub.acceptance_experiments(samples=4000)
              if e.name in ("group-O3", "group-Sp2")]
    kernel = {"comparison": "kernel-vs-oracle", "tolerance": 1e-4,
              "params": {"p": [0.1, -0.1], "p_ref": [0.08, -0.06]}}
    nodes += [dict(kernel, name="kernel-SE-N2", ensemble={"kind": "SE", "n": 1, "t": [0.2]}),
              dict(kernel, name="kernel-GinSE-N1", ensemble={"kind": "GinSE", "n": 1, "t": [0.2]})]
    assert sorted(n["name"] for n in nodes) == sorted(names)
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"command": "suite", "format": "json", "experiments": nodes}))
    src = str(Path(pftau.__file__).resolve().parents[1])
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "pftau", "suite", "--config", str(config),
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        blobs.append((out / "verdicts.json").read_bytes())
    verdicts = json.loads(blobs[0])["verdicts"]
    assert len(verdicts) == len(names) and all(v["pass"] for v in verdicts)
    assert blobs[0] == blobs[1]
