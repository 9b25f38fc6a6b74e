import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pftau
from pftau import hub, moments
from pftau.cli import ConfigError, MomentCache, fmt17, main, parse_config, run_config
from pftau.moments import EnsembleSpec
from pftau.symfun import CouplingSeq
from pftau.tauseries import required_table_size


def test_importing_the_package_does_not_import_scipy():
    src = str(Path(pftau.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; import pftau.cli, pftau.hub, pftau.oracle, pftau.fock; "
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
        parse_config('{"command": "suite", "samples": -3}')
    assert err.value.code == "bad-number"
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "suite", "seed": "many"}')
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


@pytest.mark.parametrize("previous", ["tables-1", "tables-2", "tables-4", "tables-5", "tables-6",
                                      "tables-7", "tables-8", "tables-9"])
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


def test_moment_tables_are_read_only_whether_built_or_loaded(tmp_path):
    s = CouplingSeq.of(0.0, 0.4)
    moments.clear_cache()
    moments.set_disk_cache(MomentCache(tmp_path / "c"))
    try:
        built = moments.orth_border(s, 0, 4)
        moments.clear_cache()
        before = moments.TABLE_BUILDS
        loaded = moments.orth_border(s, 0, 4)
        assert moments.TABLE_BUILDS == before
        assert loaded.tobytes() == built.tobytes()
        assert not built.flags.writeable and not loaded.flags.writeable
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
        parse_config(json.dumps({"command": "suite", "experiments": [{"zz": 1}]}))


def test_verdict_pass_fields_are_json_booleans(tmp_path):
    structure = {"comparison": "ginse-structure", "ensemble": {"kind": "GinSE", "n": 2}}
    cfg = parse_config(json.dumps({
        "command": "suite", "format": "json",
        "experiments": [dict(structure, name="ok", tolerance=1e-6),
                        dict(structure, name="strict", tolerance=1e-300)]}))
    assert run_config(cfg, tmp_path) == 1
    doc = json.loads((tmp_path / "verdicts.json").read_text())
    assert [v["pass"] for v in doc["verdicts"]] == [True, False]


def test_gate_kernel_verdict_is_strict_json(tmp_path, gate_config):
    # the gate's kernel-OE-N2 beside a kernel entry whose p_ref puts a pole inside the
    # oracle's support: the errored verdict's margin is infinite
    [node] = [n for n in gate_config.raw["experiments"] if n["name"] == "kernel-OE-N2"]
    pole = dict(node, name="kernel-pole", ensemble={"kind": "SE", "n": 1},
                params={"p": [0.09, 0.016], "p_ref": [-0.089, -0.136]})
    cfg = parse_config(json.dumps({"command": "suite", "format": "json",
                                   "experiments": [node, pole]}))
    assert run_config(cfg, tmp_path) == 1

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads((tmp_path / "verdicts.json").read_text(), parse_constant=reject)
    gate, errored = doc["verdicts"]
    assert gate["pass"] and [set(q) for q in gate["details"]["quotients"]] == [{"re", "im"}] * 2
    assert not errored["pass"] and errored["margin"] == "inf"


def test_single_command_is_an_inline_suite_entry():
    cfg = parse_config(json.dumps({"command": "kernel-check",
                                   "ensemble": {"kind": "SE", "n": 1, "t": [0.2]},
                                   "p": [0.1, -0.2], "tolerance": 0.5}))
    [e] = cfg.experiments
    assert (e.name, e.comparison, e.spec, e.tolerance) == ("kernel-check", "kernel-vs-oracle",
                                                            cfg.ensemble, 0.5)
    assert (e.cutoff, e.samples, e.seed) == (cfg.cutoff, cfg.samples, cfg.seed)
    assert dict(e.params) == {"p": (0.1, -0.2)}


def test_group_entry_takes_the_suite_defaults_but_no_tolerance_of_its_own():
    # a suite's top-level tolerance is the default of its other entries, and stays legal
    group = {"name": "g", "comparison": "group-series-vs-mc", "samples": 200}
    cfg = parse_config(json.dumps({"command": "suite", "tolerance": 1e-3,
                                   "experiments": [group, _ENTRY]}))
    assert [e.tolerance for e in cfg.experiments] == [1e-3, 1e-3]
    assert cfg.experiments[0].spec is None
    shipped = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "group_o3.json"
    [e] = parse_config(shipped.read_text()).experiments
    assert e.comparison == "group-series-vs-mc" and dict(e.params)["size"] == 3


def test_seed_option_moves_the_gate_entries_that_inherit_the_seed(tmp_path, monkeypatch):
    # the discrete and group-O3 entries take the top-level seed, which --seed replaces;
    # group-Sp2 sets its own
    ran = []
    monkeypatch.setattr(hub, "run_suite", lambda experiments: ran.extend(experiments) or [])
    gate = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "suite_acceptance.json"
    assert main(["suite", "--config", str(gate), "--seed", "9", "--out", str(tmp_path)]) == 0
    seeded = {e.name: e.seed for e in ran if "seed" in hub.COMPARISONS[e.comparison].reads}
    assert seeded == {"discrete-OE": 9, "discrete-SE": 9, "discrete-GinOE": 9,
                      "discrete-GinSE": 9, "group-O3": 9, "group-Sp2": 49}


_ENTRY = {"name": "r1", "comparison": "series-vs-oracle-ratio",
          "ensemble": {"kind": "SE", "n": 1, "t": [0.3]}}
_DISCRETE = {"name": "d1", "comparison": "discrete-exact", "ensemble": {"kind": "OE", "n": 1}}
_GROUP = {"name": "g", "comparison": "group-series-vs-mc"}
_BIMOMENT = {"name": "b", "comparison": "bimoment-vs-direct"}
# ensembles outside the domain of a comparison's closed-form reference: each ran to a false
# FAIL before the comparison's `fits` check refused it
_REFERENCE_MISFITS = [
    ("anchor-OE-N1", "closed-form-anchor", {"kind": "OE", "n": 1, "t": [0.3]}),
    ("anchor-SE-t2", "closed-form-anchor", {"kind": "SE", "n": 1, "t": [0.3, 0.1]}),
    ("anchor-SE-N2", "closed-form-anchor", {"kind": "SE", "n": 2, "t": [0.3]}),
    ("anchor-SE-L1", "closed-form-anchor", {"kind": "SE", "n": 1, "L": 1, "t": [0.3]}),
    ("anchor-SE-sNZ", "closed-form-anchor", {"kind": "SE", "n": 1, "t": [0.3], "s": [0, 0.4]}),
    ("anchor-GinSE-N2", "closed-form-anchor", {"kind": "GinSE", "n": 2, "t": [0.3]}),
    ("anchor-SE-N0", "closed-form-anchor", {"kind": "SE", "n": 0, "t": [0.3]}),
    ("structure-OE-N2", "ginse-structure", {"kind": "OE", "n": 2}),
    ("structure-SE-N2", "ginse-structure", {"kind": "SE", "n": 2}),
    ("structure-GinOE-N2", "ginse-structure", {"kind": "GinOE", "n": 2}),
    ("structure-GinSE-mixed", "ginse-structure",
     {"kind": "GinSE", "n": 2, "alpha": 0.5, "beta": 0.5}),
    *((f"{comparison}-GinUE", comparison, {"kind": "GinUE", "n": 2})
      for comparison in ("series-vs-oracle-ratio", "reality", "wave-poly", "hirota-decay",
                         "discrete-exact")),
    ("bimoment-OE", "bimoment-vs-direct", {"kind": "OE", "n": 2}),
    *((f"bimoment-GinUE-{label}", "bimoment-vs-direct",
       {"kind": "GinUE", "t": [0.2], "t_bar": [0.2], **fields}) for label, fields in (
        ("N3", {"n": 3}), ("L1-L2=0", {"n": 2, "L": 1}), ("L1-L2=1", {"n": 2, "L": 1, "L2": 1}),
        ("L2-L2=0", {"n": 2, "L": 2}))),
]
# (config, error code, what the message must name)
_BAD_CONFIGS = [pytest.param(*case, id=case_id) for case_id, *case in (
    ("entry-without-comparison", {"command": "suite", "experiments": [{"name": "r1"}]},
     "bad-suite", "experiment 0 'r1'"),
    ("experiments-not-a-list", {"command": "suite", "experiments": 5}, "bad-suite",
     "experiments"),
    ("entry-tolerance-abc", {"command": "suite", "experiments": [dict(_ENTRY, tolerance="abc")]},
     "bad-number", "experiment 0 'r1'"),
    ("entry-tolerance-negative",
     {"command": "suite", "experiments": [_ENTRY, dict(_ENTRY, name="r2", tolerance=-1)]},
     "bad-number", "experiment 1 'r2'"),
    ("entry-cutoff-negative", {"command": "suite", "experiments": [dict(_ENTRY, cutoff=-2)]},
     "bad-number", "experiment 0 'r1'"),
    ("entry-samples-zero", {"command": "suite", "experiments": [dict(_GROUP, samples=0)]},
     "bad-number", "experiment 0 'g': samples out of range"),
    ("entry-unknown-kind",
     {"command": "suite", "experiments": [dict(_ENTRY, ensemble={"kind": "XY", "n": 1})]},
     "unknown-ensemble-kind", "experiment 0 'r1'"),
    ("entry-without-ensemble",
     {"command": "suite", "experiments": [{"name": "r1", "comparison": "reality"}]},
     "missing-ensemble", "experiment 0 'r1'"),
    ("missing-ensemble", {"command": "compare-oracle"}, "missing-ensemble", "compare-oracle"),
    ("dump-without-ensemble", {"command": "moments-dump"}, "missing-ensemble", "moments-dump"),
    ("dump-size-malformed",
     {"command": "moments-dump", "ensemble": {"kind": "SE", "n": 1}, "size": "x"},
     "bad-number", "size"),
    ("seed-negative",
     {"command": "discrete-check", "ensemble": {"kind": "OE", "n": 1}, "seed": -1},
     "bad-number", "seed"),
    ("partition-function-pole-at-origin",
     {"command": "partition-function", "ensemble": {"kind": "SE", "n": 1, "L": -1}},
     "bad-ensemble", "pole at the origin"),
    # 182 and 200 rows, past the 170 that moments.MAX_TABLE_SIZE derives
    ("partition-function-table-too-large",
     {"command": "partition-function", "ensemble": {"kind": "OE", "n": 2}, "cutoff": 180},
     "bad-number", "a moment table of 182 rows is past the 170 the tables hold"),
    ("dump-table-too-large",
     {"command": "moments-dump", "ensemble": {"kind": "SE", "n": 1}, "size": 200},
     "bad-number", "a moment table of 200 rows is past the 170 the tables hold"),
    ("dump-pole-at-origin",
     {"command": "moments-dump", "ensemble": {"kind": "SE", "n": 1, "L": -1}},
     "bad-ensemble", "pole at the origin"),
    # params are checked against their comparison's entry in hub.COMPARISONS
    ("discrete-trials-malformed",
     {"command": "discrete-check", "ensemble": {"kind": "OE", "n": 1}, "trials": "x"},
     "bad-number", "experiment 0 'discrete-check': malformed trials"),
    ("entry-unknown-param",
     {"command": "suite", "experiments": [dict(_DISCRETE, params={"trials": 3, "bogus": 1})]},
     "unknown-field", "experiment 0 'd1': discrete-exact has no params ['bogus']"),
    ("command-foreign-params",
     {"command": "compare-oracle", "ensemble": {"kind": "SE", "n": 1}, "trials": 7,
      "predicates": 5},
     "unknown-field", "['predicates', 'trials'] for compare-oracle"),
    ("dump-foreign-field",
     {"command": "partition-function", "ensemble": {"kind": "SE", "n": 1}, "size": 5},
     "unknown-field", "['size'] for partition-function"),
    ("group-predicate-without-parts",
     {"command": "group-integral", "predicates": [[2, 1.0]]},
     "bad-value", "experiment 0 'group-integral': predicates"),
    ("group-name-unknown", {"command": "group-integral", "group": "unitary"},
     "bad-value", "experiment 0 'group-integral': group"),
    # no suite entry inherits a top-level ensemble, so a suite takes none, with or without
    # its experiments
    ("acceptance-suite-ensemble", {"command": "suite", "ensemble": {"kind": "SE", "n": 1}},
     "unknown-field", "['ensemble'] for suite"),
    ("inline-suite-ensemble", {"command": "suite", "ensemble": {"kind": "SE", "n": 1},
                               "experiments": [_ENTRY]},
     "unknown-field", "['ensemble'] for suite"),
    ("entry-unknown-comparison",
     {"command": "suite", "experiments": [dict(_ENTRY, comparison="no-such-kind")]},
     "unknown-comparison", "experiment 0 'r1'"),
    # integer fields read JSON integers only, float fields JSON numbers; neither a bool
    ("seed-float", {"command": "discrete-check", "ensemble": {"kind": "OE", "n": 1},
                    "seed": 3.9}, "bad-number", "malformed seed: 3.9"),
    ("cutoff-string", {"command": "partition-function", "ensemble": {"kind": "SE", "n": 1},
                       "cutoff": "12"}, "bad-number", "malformed cutoff: '12'"),
    ("samples-bool", {"command": "group-integral", "samples": True}, "bad-number",
     "malformed samples: True"),
    # one sample has no standard error, and a z-score against none would pass any predicate
    ("samples-one", {"command": "group-integral", "group": "orthogonal", "size": 3, "t": [0.2],
                     "cutoff": 8, "samples": 1, "seed": 42,
                     "predicates": [[[2], 5.0], [[1], 3.0]]}, "bad-number",
     "samples out of range: 1"),
    ("tolerance-string", {"command": "suite", "experiments": [dict(_ENTRY, tolerance="1e-4")]},
     "bad-number", "experiment 0 'r1': malformed tolerance"),
    ("kernel-point-nan", {"command": "kernel-check", "ensemble": {"kind": "SE", "n": 1},
                          "p": [0.1, float("nan")]}, "bad-number", "malformed p: nan"),
    ("ensemble-L-float", {"command": "partition-function",
                          "ensemble": {"kind": "SE", "n": 1, "L": 1.0}},
     "bad-number", "malformed L: 1.0"),
    ("ensemble-L2-string", {"command": "suite",
                            "experiments": [dict(_ENTRY, ensemble={"kind": "GinUE", "n": 1,
                                                                   "L2": "1"})]},
     "bad-number", "experiment 0 'r1': malformed L2"),
    ("ensemble-n-bool", {"command": "partition-function", "ensemble": {"kind": "SE", "n": True}},
     "bad-number", "malformed n: True"),
    ("ensemble-alpha-bool", {"command": "compare-oracle",
                             "ensemble": {"kind": "GinOE", "n": 1, "alpha": True}},
     "bad-number", "malformed alpha: True"),
    ("ensemble-coupling-bool", {"command": "partition-function",
                                "ensemble": {"kind": "SE", "n": 1, "t": [0.1, False]}},
     "bad-number", "malformed t: False"),
    ("param-trials-float",
     {"command": "suite", "experiments": [dict(_DISCRETE, params={"trials": 2.0})]},
     "bad-number", "experiment 0 'd1': malformed trials: 2.0"),
    # the settings that are `hub` constants (the Hirota shifts and cutoffs, the discrete t,
    # the structure table size, the wave points and lower cutoff) are no parameters: each is an
    # unknown field, under its old top-level spelling too, whatever its value
    ("alpha-shift-malformed",
     {"command": "hirota-check", "ensemble": {"kind": "SE", "n": 1}, "alpha_shift": "x"},
     "unknown-field", "unknown fields ['alpha_shift'] for hirota-check"),
    ("alpha-shift-bool",
     {"command": "hirota-check", "ensemble": {"kind": "SE", "n": 1}, "alpha_shift": True},
     "unknown-field", "unknown fields ['alpha_shift'] for hirota-check"),
    ("hirota-shifts-at-their-values",
     {"command": "hirota-check", "ensemble": {"kind": "SE", "n": 1}, "alpha": 8.0, "beta": 10.0,
      "beta_shift": 10.0}, "unknown-field", "['alpha', 'beta', 'beta_shift'] for hirota-check"),
    ("hirota-one-cutoff",
     {"command": "hirota-check", "ensemble": {"kind": "SE", "n": 1}, "cutoffs": [8]},
     "unknown-field", "unknown fields ['cutoffs'] for hirota-check"),
    ("entry-hirota-decay-params",
     {"command": "suite", "experiments": [{"name": "h", "comparison": "hirota-decay",
                                           "ensemble": {"kind": "SE", "n": 1},
                                           "params": {"min_factor": 2.0, "alpha": 8.0}}]},
     "unknown-field", "experiment 0 'h': hirota-decay has no params ['alpha', 'min_factor']"),
    ("entry-ginse-size-below-7",
     {"command": "suite", "experiments": [{"name": "g", "comparison": "ginse-structure",
                                           "ensemble": {"kind": "GinSE", "n": 2},
                                           "params": {"size": 4}}]},
     "unknown-field", "experiment 0 'g': ginse-structure has no params ['size']"),
    ("discrete-t",
     {"command": "discrete-check", "ensemble": {"kind": "OE", "n": 1}, "t": [0.07, -0.03]},
     "unknown-field", "unknown fields ['t'] for discrete-check"),
    ("entry-discrete-t", {"command": "suite", "experiments": [dict(_DISCRETE,
                                                                   params={"t": [0.07, -0.03]})]},
     "unknown-field", "experiment 0 'd1': discrete-exact has no params ['t']"),
    ("entry-wave-points-and-cutoff-low",
     {"command": "suite", "experiments": [{"name": "w", "comparison": "wave-poly",
                                           "ensemble": {"kind": "SE", "n": 1},
                                           "params": {"points": [2.0], "cutoff_low": 6}}]},
     "unknown-field", "experiment 0 'w': wave-poly has no params ['cutoff_low', 'points']"),
    # domains, one parameter's depending on another's included
    ("group-symplectic-odd-size", {"command": "group-integral", "group": "symplectic", "size": 3},
     "bad-value", "experiment 0 'group-integral': size of the symplectic group must be even"),
    ("group-predicate-not-a-partition",
     {"command": "group-integral", "predicates": [[[1, 2], 0.0]]},
     "bad-value", "experiment 0 'group-integral': predicates entry [[1, 2], 0.0]"),
    ("kernel-points-coincide",
     {"command": "kernel-check", "ensemble": {"kind": "SE", "n": 1}, "p": [0.1, 0.1]},
     "bad-value", "experiment 0 'kernel-check': p must be an even number of distinct points"),
    ("kernel-reference-points-coincide",
     {"command": "kernel-check", "ensemble": {"kind": "SE", "n": 1}, "p_ref": [0.2, 0.2]},
     "bad-value", "experiment 0 'kernel-check': p_ref must be an even number of distinct"),
    ("kernel-points-odd-count",
     {"command": "kernel-check", "ensemble": {"kind": "OE", "n": 3}, "p": [0.1, 0.0, -0.1]},
     "bad-value", "experiment 0 'kernel-check': p must be an even number of distinct points"),
    # kinds and point counts that nothing can run: no kernel or moment table for GinUE, and
    # the kernel identity takes one point per unit of charge
    ("kernel-check-ginue", {"command": "kernel-check", "ensemble": {"kind": "GinUE", "n": 2}},
     "bad-ensemble", "experiment 0 'kernel-check': no kernel for kind 'GinUE'"),
    ("entry-kernel-ginue",
     {"command": "suite", "experiments": [{"name": "k", "comparison": "kernel-vs-oracle",
                                           "ensemble": {"kind": "GinUE", "n": 1}}]},
     "bad-ensemble", "experiment 0 'k': no kernel for kind 'GinUE'"),
    ("partition-function-ginue",
     {"command": "partition-function", "ensemble": {"kind": "GinUE", "n": 2}},
     "bad-ensemble", "partition-function serves the Pfaffian kinds, not GinUE"),
    ("dump-ginue", {"command": "moments-dump", "ensemble": {"kind": "GinUE", "n": 2}},
     "bad-ensemble", "moments-dump serves the Pfaffian kinds, not GinUE"),
    ("kernel-points-not-the-charge",
     {"command": "kernel-check", "ensemble": {"kind": "OE", "n": 4}},
     "bad-value", "experiment 0 'kernel-check': p must hold as many points as the charge 4, "
                  "got 2"),
    ("kernel-reference-points-not-the-charge",
     {"command": "kernel-check", "ensemble": {"kind": "SE", "n": 1},
      "p_ref": [0.1, 0.0, -0.1, 0.05]},
     "bad-value", "experiment 0 'kernel-check': p_ref must hold as many points as the charge 2"),
    # moments-dump writes csv only
    ("dump-json", {"command": "moments-dump", "ensemble": {"kind": "SE", "n": 1},
                   "format": "json"}, "bad-format", "moments-dump writes csv only, got 'json'"),
    # fields that a group verdict never reads
    ("group-tolerance", {"command": "group-integral", "tolerance": 1e-300, "samples": 2000},
     "unknown-field", "['tolerance'] for group-integral"),
    ("group-ensemble", {"command": "group-integral", "ensemble": {"kind": "SE", "n": 1}},
     "unknown-field", "['ensemble'] for group-integral"),
    ("entry-group-tolerance",
     {"command": "suite", "experiments": [{"name": "g", "comparison": "group-series-vs-mc",
                                           "tolerance": 0.5}]},
     "unknown-field", "experiment 0 'g': group-series-vs-mc takes no ['tolerance']"),
    # fields that the comparison, command or ensemble family never reads
    ("command-seed-unread",
     {"command": "compare-oracle", "ensemble": {"kind": "SE", "n": 1}, "seed": 3},
     "unknown-field", "unknown fields ['seed'] for compare-oracle"),
    ("entry-samples-unread", {"command": "suite", "experiments": [dict(_ENTRY, samples=500)]},
     "unknown-field", "experiment 0 'r1': series-vs-oracle-ratio takes no ['samples']"),
    # a suite takes a list of experiments and nothing else
    ("suite-no-experiments", {"command": "suite", "samples": 500},
     "bad-suite", "scripts/configs/suite_acceptance.json"),
    ("suite-experiments-string", {"command": "suite", "experiments": "suite_acceptance.json"},
     "bad-suite", "scripts/configs/suite_acceptance.json"),
    ("pfaffian-ensemble-t-bar",
     {"command": "compare-oracle", "ensemble": {"kind": "SE", "n": 1, "t_bar": [0.3]}},
     "unknown-field", "unknown SE ensemble fields ['t_bar']"),
    ("ginue-alpha",
     {"command": "suite", "experiments": [dict(_BIMOMENT, ensemble={"kind": "GinUE", "n": 2,
                                                                    "alpha": 0.5})]},
     "unknown-field", "experiment 0 'b': unknown GinUE ensemble fields ['alpha']"),
    ("ginue-s",
     {"command": "suite", "experiments": [dict(_BIMOMENT, ensemble={"kind": "GinUE", "n": 2,
                                                                    "s": [0.0]})]},
     "unknown-field", "experiment 0 'b': unknown GinUE ensemble fields ['s']"),
    *((case_id, {"command": "suite", "experiments": [{"name": "ref", "comparison": comparison,
                                                      "ensemble": ensemble}]},
       "bad-ensemble", "experiment 0 'ref': the ") for case_id, comparison, ensemble in
      _REFERENCE_MISFITS),
)]


@pytest.mark.parametrize("config, code, named", _BAD_CONFIGS)
def test_bad_config_fails_in_the_parser(config, code, named):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(config))
    assert err.value.code == code
    assert named in str(err.value)


@pytest.mark.parametrize("config, code, named", _BAD_CONFIGS)
def test_bad_config_exits_2_before_any_output(tmp_path, capsys, config, code, named):
    out = tmp_path / "out"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(config, output=str(out))))
    assert main([config["command"], "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error [{code}]:") and "Traceback" not in err
    assert not out.exists()


def test_malformed_param_exits_2_with_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "discrete.json"
    path.write_text(json.dumps({"command": "discrete-check", "ensemble": {"kind": "OE", "n": 1},
                                "trials": "x"}))
    assert main(["discrete-check", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "'discrete-check'" in err and "trials" in err
    assert not out.exists()


_COUPLING = st.lists(st.floats(-0.2, 0.2), max_size=2)


@st.composite
def _accepted_space(draw):
    """A config over the space the parser accepts: every command that runs an ensemble or a
    group, every kind, n <= 2, L in [-2, 2], short t, short s on the Pfaffian kinds, and as
    many points as the charge."""
    command = draw(st.sampled_from(["kernel-check", "compare-oracle", "discrete-check",
                                    "hirota-check", "group-integral", "partition-function",
                                    "moments-dump"]))
    if command == "group-integral":
        return {"command": command, "group": draw(st.sampled_from(["orthogonal", "symplectic"])),
                "size": draw(st.integers(1, 4)), "t": draw(_COUPLING),
                "samples": draw(st.integers(1, 2000))}
    ensemble = {"kind": draw(st.sampled_from(sorted(moments.KINDS))), "n": draw(st.integers(0, 2)),
                "L": draw(st.integers(-2, 2)), "t": draw(_COUPLING)}
    if ensemble["kind"] != "GinUE":    # the complex ensemble reads no s
        ensemble["s"] = draw(st.one_of(st.just([]),
                                       st.floats(-0.5, 0.5).map(lambda s2: [0.0, s2])))
    config = {"command": command, "ensemble": ensemble}
    if command == "kernel-check":
        charge = EnsembleSpec(ensemble["kind"], ensemble["n"]).n_eff
        points = st.lists(st.floats(-0.15, 0.15), min_size=charge, max_size=charge, unique=True)
        config.update(p=draw(points), p_ref=draw(points))
    return config


def _runs_to_a_finite_or_an_errored_verdict(config):
    """The parser refuses `config` before its output directory exists, or every verdict of
    the run has a finite margin or names its error."""
    with tempfile.TemporaryDirectory() as tmp:
        out, path = Path(tmp) / "out", Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main([config["command"], "--config", str(path), "--out", str(out)])
        if rc == 2:
            assert not out.exists()
            return
        assert rc in (0, 1) and out.is_dir()
        if config["command"] in ("partition-function", "moments-dump"):
            return
        for verdict in json.loads((out / "verdicts.json").read_text())["verdicts"]:
            margin = verdict["margin"]
            assert (isinstance(margin, (int, float)) and math.isfinite(margin)
                    or verdict.get("error")), verdict


@settings(max_examples=200, deadline=None, derandomize=True)
@example({"command": "kernel-check", "ensemble": {"kind": "SE", "n": 1, "L": 0, "t": [], "s": []},
          "p": [0.09, 0.016], "p_ref": [-0.089, -0.136]})   # a pole inside the support
@given(_accepted_space())
def test_every_config_runs_to_a_finite_or_an_errored_verdict(config):
    _runs_to_a_finite_or_an_errored_verdict(config)


@pytest.mark.parametrize("config", [
    # two kernel points 1e-100 apart: the Pfaffian of (p_b - p_a) K* cancels to 0
    pytest.param({"command": "kernel-check", "ensemble": {"kind": "SE", "n": 2},
                  "p": [0.0, 0.0625, 0.03125, 1e-100], "p_ref": [0.08, -0.06, 0.03, -0.09]},
                 id="kernel-points-nearly-coincide"),
    # a point at -2.2e-308 next to 0: 1 / Delta(p) overflows
    pytest.param({"command": "kernel-check", "ensemble": {"kind": "SE", "n": 2},
                  "p": [-2.2e-308, 0.0, 0.06, -0.06], "p_ref": [0.08, -0.06, 0.03, -0.09]},
                 id="kernel-prefactor-overflows"),
    # a tiny s_2 puts line nodes near 0, where the negative powers overflow
    pytest.param({"command": "moments-dump", "ensemble": {"kind": "SE", "n": 2, "L": -1,
                                                          "s": [0.0, 1e-250]}},
                 id="moments-dump-tiny-s2"),
    pytest.param({"command": "partition-function", "ensemble": {"kind": "SE", "n": 2, "L": -1,
                                                                "s": [0.0, 1e-250]}},
                 id="partition-function-tiny-s2"),
    # tables past moments.MAX_TABLE_SIZE rows, where the s = 0 closed forms overflow Gamma
    pytest.param({"command": "compare-oracle", "ensemble": {"kind": "SE", "n": 1, "t": [0.1]},
                  "cutoff": 200}, id="compare-oracle-table-past-the-closed-forms"),
    # sum n t_n s_n = 720 > 709: the exp of the normalization c(t, s) overflows
    pytest.param({"command": "compare-oracle", "ensemble": {"kind": "OE", "n": 1, "t": [12],
                                                            "s": [60, 10]}},
                 id="c-factor-overflows"),
])
def test_configs_found_by_random_runs_end_in_a_finite_or_an_errored_verdict(config):
    # random runs of the property test's strategy found these, or sizes and couplings past
    # its range; each once ended in a traceback, a RuntimeWarning, or a margin of inf with
    # no error
    _runs_to_a_finite_or_an_errored_verdict(config)


def test_seed_option_is_the_config_seed(tmp_path):
    config = {"command": "discrete-check", "ensemble": {"kind": "OE", "n": 1},
              "trials": 3, "tolerance": 1e-10}
    blobs = []
    for name, seed, argv in (("flag", 42, ["--seed", "7"]), ("config", 7, [])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(config, seed=seed)))
        out = tmp_path / name
        assert main(["discrete-check", "--config", str(path), "--out", str(out)] + argv) == 0
        blobs.append((out / "verdicts.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["config"]["seed"] == 7


def test_seed_option_on_a_command_that_reads_no_seed_exits_2(tmp_path, capsys):
    path, out = tmp_path / "compare.json", tmp_path / "out"
    path.write_text(json.dumps({"command": "compare-oracle", "ensemble": {"kind": "SE", "n": 1}}))
    assert main(["compare-oracle", "--config", str(path), "--out", str(out), "--seed", "7"]) == 2
    assert "unknown fields ['seed'] for compare-oracle" in capsys.readouterr().err
    assert not out.exists()


def test_spec_alpha_beta_range():
    with pytest.raises(ValueError, match="alpha"):
        EnsembleSpec("GinOE", 1, alpha=1.5)
    with pytest.raises(ValueError, match="beta"):
        EnsembleSpec("GinOE", 1, beta=-0.1)


def test_moments_dump(tmp_path):
    config = {"command": "moments-dump", "ensemble": {"kind": "GinSE", "n": 1}, "size": 5}
    assert parse_config(json.dumps(config)).fmt == "csv"
    cfg = parse_config(json.dumps(dict(config, format="csv")))
    rc = run_config(cfg, tmp_path)
    assert rc == 0
    rows = (tmp_path / "moments.csv").read_text().splitlines()
    assert rows[0].startswith("n,m,a_re,a_im")
    assert len(rows) == 1 + 25
    assert (tmp_path / "border.csv").exists()


def test_moments_dump_default_size_covers_the_series_at_negative_L(tmp_path):
    ensemble = {"kind": "SE", "n": 1, "L": -1, "s": [0.0, 0.4]}
    cfg = parse_config(json.dumps({"command": "moments-dump", "ensemble": ensemble,
                                   "cutoff": 10, "format": "csv"}))
    assert run_config(cfg, tmp_path) == 0
    rows = (tmp_path / "moments.csv").read_text().splitlines()
    # the series at that cutoff reads 12 rows from index -1 (charge 2)
    size = required_table_size(2, -1, 10)
    assert size == 12
    assert len(rows) == 1 + size * size
    assert rows[1].startswith("-1,-1,")


def test_verdicts_identical_across_blas_thread_counts(tmp_path, gate_config):
    # moment tables are BLAS products: the GinSE and erfc-weighted GinOE plane
    # tables (the GinOE ones at L = 0 and 1), the OE line table and the GinUE
    # bimoments; the SE line and GinSE plane kernel matrices are batched matrix
    # products; the Haar power sums of O3 and Sp2 come from eigenangle draws on
    # the batch axis
    names = ("ratio-GinSE-N2-L0-tA", "ratio-GinSE-N2-L1-tA", "ratio-GinOE-N2-L0-tA",
             "ratio-GinOE-N2-L1-tA", "ratio-OE-N2-L0-tA", "bimoment-GinUE-N2", "group-O3",
             "group-Sp2", "kernel-SE-N2", "kernel-GinSE-N1")

    # the gate's entries of those names, the ratios at cutoff 8 and the groups at 4000 samples
    smaller = {"series-vs-oracle-ratio": {"cutoff": 8}, "group-series-vs-mc": {"samples": 4000}}
    nodes = [dict(node, **smaller.get(node["comparison"], {}))
             for node in gate_config.raw["experiments"] if node["name"] in names]
    nodes.append({"name": "kernel-GinSE-N1", "comparison": "kernel-vs-oracle", "tolerance": 1e-4,
                  "ensemble": {"kind": "GinSE", "n": 1, "t": [0.2]}})
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
