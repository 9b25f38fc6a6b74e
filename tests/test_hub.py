import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pftau import hub, moments, oracle, quad, skewlin
from pftau.cli import parse_config
from pftau.hub import Experiment, bkp_normalization, ratio_experiments, run_experiment, run_suite
from pftau.moments import EnsembleSpec
from pftau.partitions import Partition
from pftau.symfun import ZERO_SEQ, CouplingSeq, c_factor
from pftau.tauseries import WaveReport, group_series, required_table_size


def test_bkp_normalization_single_location():
    spec = EnsembleSpec("OE", 3, 1, CouplingSeq.of(0.2, 0.1), CouplingSeq.of(0.0, 0.4))
    norm = bkp_normalization(spec)
    assert norm == pytest.approx((-1.0) ** 3 * c_factor(spec.t, spec.s))
    even = EnsembleSpec("SE", 1, 1)   # charge 2: sign is +1
    assert bkp_normalization(even) == 1.0


def test_series_vs_oracle_verdict_survives_an_overflowing_normalization():
    # sum n t_n s_n = 720 > 709: c(t, s) overflows, but the ratio never reads it, so the
    # verdict keeps its finite margin and records the normalization as +inf
    spec = EnsembleSpec("OE", 1, 0, CouplingSeq.of(12.0), CouplingSeq.of(60.0, 10.0))
    assert bkp_normalization(spec) == math.inf
    v = run_experiment(Experiment("c-overflow", "series-vs-oracle-ratio", spec=spec, cutoff=10))
    assert v.error is None and not v.passed
    assert math.isfinite(v.margin) and v.margin > 1.0
    assert v.details["bkp_normalization"] == math.inf


def test_series_vs_oracle_verdict_and_reporting():
    e = Experiment("demo", "series-vs-oracle-ratio",
                   spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.3)),
                   tolerance=1e-5, cutoff=12)
    v = run_experiment(e)
    assert v.passed and v.margin < 1e-8
    assert "bkp_normalization" in v.details
    assert v.details["imag_ratio"] < 1e-10


@pytest.mark.parametrize("s, series_built", [(ZERO_SEQ, 1), (CouplingSeq.of(0.0, 0.4), 2)],
                         ids=["zero-s", "nonzero-s"])
def test_series_ratio_shares_the_coefficient_table_when_s_is_zero(monkeypatch, s, series_built):
    # the numerator and the t = 0, s = 0 denominator share one coefficient stack
    # through the series memo exactly when s = 0
    moments.clear_cache()
    spec = EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.3), s)
    series_terms = hub.ts.series_terms
    built = []
    monkeypatch.setattr(hub.ts, "series_terms",
                        lambda *args: built.append(args) or series_terms(*args))
    ratio, _ = hub._series_ratio(spec, 12)
    assert len(built) == series_built
    tau_series = hub.ts.tau_series
    num = tau_series(spec, 12).evaluate(spec.t)
    den = tau_series(replace(spec, t=ZERO_SEQ, s=ZERO_SEQ), 12).evaluate(ZERO_SEQ)
    assert ratio == num / den


def test_degenerate_base_falls_back():
    # OE with N=1, L=1 has a vanishing undeformed partition function
    e = Experiment("deg", "series-vs-oracle-ratio",
                   spec=EnsembleSpec("OE", 1, 1, CouplingSeq.of(0.3)),
                   tolerance=1e-4, cutoff=12)
    v = run_experiment(e)
    assert v.passed
    assert v.details["base_t"] != ()


def test_unknown_comparison_is_a_failed_verdict():
    v = run_experiment(Experiment("bogus", "no-such-kind"))
    assert not v.passed and "unknown comparison" in v.error


@pytest.mark.parametrize("comparison", ["series-vs-oracle-ratio", "kernel-vs-oracle"])
def test_missing_ensemble_in_code_is_an_errored_verdict(comparison):
    v = run_experiment(Experiment("bare", comparison))
    assert not v.passed and v.margin == math.inf
    assert v.error == f"ConfigError: {comparison} needs an ensemble"


@pytest.mark.parametrize("params", [(("trials", "x"),), (("trials", 2.5),), (("bogus", 1),)])
def test_bad_param_in_code_is_an_errored_verdict(params):
    v = run_experiment(Experiment("d", "discrete-exact", spec=EnsembleSpec("OE", 1),
                                  params=params))
    assert not v.passed and v.error.startswith("ConfigError:")
    assert params[0][0] in v.error


@pytest.mark.parametrize("comparison", sorted(hub.COMPARISONS))
def test_every_declared_default_passes_its_own_check(comparison):
    for key, (check, default) in hub.COMPARISONS[comparison].params.items():
        assert check(default, key) == default


def test_the_readme_parameter_table_is_the_declared_parameters():
    # each row of the README table "command | comparison | parameters" names as `name`: the
    # parameters that `COMPARISONS` declares for its comparisons, or starts with "none"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | comparison | parameters: type, default |\n|---|---|---|\n")
    assert len(table) == 2
    rows = {}
    for line in table[1].splitlines():
        if not line.startswith("|"):
            break
        _, _, comparisons, params, _ = line.split("|")
        named = set(re.findall(r"`(\w+)`:", params))
        assert named or params.strip().startswith("none"), line
        for comparison in re.findall(r"`([\w-]+)`", comparisons):
            assert comparison not in rows, comparison
            rows[comparison] = named
    assert rows == {c: set(comparison.params) for c, comparison in hub.COMPARISONS.items()}


# one small experiment of each comparison kind, at its default params
_SMALL = {e.comparison: e for e in (
    Experiment("ratio", "series-vs-oracle-ratio", spec=EnsembleSpec("SE", 1, 0, hub.T_A),
               tolerance=1e-4, cutoff=8),
    Experiment("anchor", "closed-form-anchor", spec=EnsembleSpec("SE", 1, 0, hub.T_A),
               tolerance=1e-4, cutoff=8),
    Experiment("reality", "reality", spec=EnsembleSpec("OE", 2, 0, hub.T_B), tolerance=1e-8,
               cutoff=8),
    Experiment("structure", "ginse-structure", spec=EnsembleSpec("GinSE", 2), tolerance=1e-6),
    Experiment("kernel", "kernel-vs-oracle", spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2)),
               tolerance=1e-4),
    Experiment("hirota", "hirota-decay", spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2))),
    Experiment("group", "group-series-vs-mc", cutoff=8, samples=2000, seed=5),
    Experiment("discrete", "discrete-exact", spec=EnsembleSpec("GinOE", 1), tolerance=1e-10,
               seed=5),
    Experiment("wave", "wave-poly", spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2)),
               tolerance=1e-4, cutoff=12),
    Experiment("bimoment", "bimoment-vs-direct",
               spec=EnsembleSpec("GinUE", 2, 0, CouplingSeq.of(0.2), t_bar=CouplingSeq.of(0.2))),
)}
# a value of every experiment field, each unlike its value in `_SMALL`
_OTHER_FIELDS = {"ensemble": EnsembleSpec("OE", 1, 0, hub.T_A), "tolerance": 0.5, "cutoff": 6,
                 "samples": 1500, "seed": 7}


@pytest.mark.parametrize("comparison", sorted(hub.COMPARISONS))
def test_a_comparison_reads_no_field_outside_its_declaration(comparison):
    # the parser refuses every field that a comparison does not declare, so a field it
    # reads without declaring it could not be set; changing all the others moves no bit
    e = _SMALL[comparison]
    unread = {"spec" if key == "ensemble" else key: value for key, value in _OTHER_FIELDS.items()
              if key not in hub.COMPARISONS[comparison].reads}
    assert all(getattr(e, key) != value for key, value in unread.items())
    moments.clear_cache()
    v = run_experiment(e)
    moments.clear_cache()
    w = run_experiment(replace(e, **unread))
    assert v.error is None
    assert (w.row(), w.details) == (v.row(), v.details)


def test_validation_failure_becomes_verdict():
    e = Experiment("reject", "series-vs-oracle-ratio",
                   spec=EnsembleSpec("GinSE", 1, 0, CouplingSeq.of(0.1),
                                     CouplingSeq.of(0.0, 0.4)))
    v = run_experiment(e)
    assert not v.passed
    assert "ValidationError" in v.error


def test_suite_determinism():
    exps = [Experiment("d1", "discrete-exact", spec=EnsembleSpec("OE", 1),
                       tolerance=1e-10, seed=5, params=(("trials", 6),)),
            Experiment("g1", "group-series-vs-mc", cutoff=6, samples=4000, seed=5,
                       params=(("group", "orthogonal"), ("size", 3), ("t", (0.2,)),
                               ("predicates", (((2,), 1.0),))))]
    a = run_suite(exps)
    b = run_suite(exps)
    assert [(v.name, v.passed, v.margin) for v in a] == [(v.name, v.passed, v.margin) for v in b]


def test_kernel_experiment_records_variant():
    e = Experiment("kern", "kernel-vs-oracle",
                   spec=EnsembleSpec("OE", 2, 0, CouplingSeq.of(0.2)),
                   tolerance=1e-4,
                   params=(("p", (0.1, -0.1)), ("p_ref", (0.08, -0.06))))
    v = run_experiment(e)
    assert v.passed
    q, q_ref = v.details["quotients"]
    # at charge 2 both quotients are 2^{-N/2} = 1/2, and the margin is their deviation
    assert q == pytest.approx(0.5, rel=1e-9) and q_ref == pytest.approx(0.5, rel=1e-9)
    assert v.margin == abs(q / q_ref - 1.0)


def test_kernel_check_degenerate_variant_emits_no_warning():
    # odd L with a two-term t: the identity holds without a floating-point warning
    e = Experiment("kern", "kernel-vs-oracle",
                   spec=EnsembleSpec("OE", 2, 1, CouplingSeq.of(0.1, -0.05)),
                   tolerance=1e-4, params=(("p", (0.1, -0.1)), ("p_ref", (0.08, -0.06))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = run_experiment(e)
    assert v.error is None
    assert v.passed and v.margin < 1e-12


@pytest.mark.parametrize("kind,n", [("GinSE", 1), ("GinOE", 2)])
@pytest.mark.parametrize("L,t", [(0, (0.2,)), (1, (0.1, -0.05))])
def test_ginibre_kernel_identity(kind, n, L, t):
    # det(1 - p X)^{-1} holds z and zbar of a pair once each, (1 - p z)^{-1} (1 - p zbar)^{-1},
    # in both families, and the GinOE pair block carries 2 Im z; at N = 1 the quaternion
    # pair reads the same with the factor squared, which charge 4 tells apart
    e = Experiment("kern", "kernel-vs-oracle", spec=EnsembleSpec(kind, n, L, CouplingSeq(t)),
                   tolerance=1e-4, params=(("p", (0.1, -0.1)), ("p_ref", (0.08, -0.06))))
    v = run_experiment(e)
    assert v.error is None
    assert v.passed and v.margin < 1e-12


@pytest.mark.parametrize("L", [0, 1])
@pytest.mark.parametrize("kind,n,alpha,beta", [("GinOE", 2, 0.3, 0.5), ("GinOE", 2, 1.0, 0.0),
                                               ("GinSE", 1, 0.3, 0.5), ("OE", 2, 0.4, None),
                                               ("SE", 1, 0.4, None), ("GinOE", 2, 1.0, 1e-5),
                                               ("GinOE", 2, 1.0, 1e-8), ("OE", 2, 1.0, 1e-5),
                                               ("OE", 2, 1.0, 1e-8)])
def test_kernel_identity_at_explicit_mixes(kind, n, alpha, beta, L):
    # the kernel weighs its line and pair blocks by (alpha, beta), as the
    # oracle weighs its sectors; with beta = 0 the line block is not built, and
    # as beta -> 0 the identity holds on the pair block alone
    spec = EnsembleSpec(kind, n, L, CouplingSeq.of(0.2), alpha=alpha, beta=beta)
    e = Experiment("kern", "kernel-vs-oracle", spec=spec, tolerance=1e-4,
                   params=(("p", (0.1, -0.1)), ("p_ref", (0.08, -0.06))))
    v = run_experiment(e)
    assert v.error is None
    assert v.passed and v.margin < 1e-12


# charge 4 with 4 points, where the prefactor 1 / Delta(p) and the quotient 2^{-N/2} show
_FOUR_POINTS = (("p", tuple(0.6 * x for x in (0.1, -0.1, 0.05, -0.07))),
                ("p_ref", (0.08, -0.06, 0.03, -0.09)))


@pytest.mark.parametrize("kind,n,L", [("OE", 4, 0), ("OE", 4, 1), ("SE", 2, 0), ("GinOE", 4, 0)])
def test_kernel_identity_at_charge_4(kind, n, L):
    e = Experiment("kern", "kernel-vs-oracle", spec=EnsembleSpec(kind, n, L, CouplingSeq.of(0.1)),
                   tolerance=1e-4, params=_FOUR_POINTS)
    v = run_experiment(e)
    assert v.error is None
    assert v.passed and v.margin < 1e-9
    assert v.details["quotients"][0] == pytest.approx(0.25, rel=1e-9)


def test_ginse_kernel_identity_at_charge_4():
    e = Experiment("kern", "kernel-vs-oracle",
                   spec=EnsembleSpec("GinSE", 2, 0, CouplingSeq.of(0.1)),
                   tolerance=1e-4, params=_FOUR_POINTS)
    v = run_experiment(e)
    assert v.error is None
    assert v.passed and v.margin < 1e-9
    assert v.details["quotients"][0] == pytest.approx(0.25, rel=1e-9)


def test_kernel_pole_inside_the_support_is_an_errored_verdict():
    # p_ref = -0.136 puts a pole at distance 7.4, inside the oracle's support at SE N = 1
    e = Experiment("kern", "kernel-vs-oracle", spec=EnsembleSpec("SE", 1, 0), tolerance=1e-4,
                   params=(("p", (0.09, 0.016)), ("p_ref", (-0.089, -0.136))))
    v = run_experiment(e)
    assert not v.passed and v.margin == math.inf
    assert v.error.startswith("QuadratureError:") and "pole at distance 7.35" in v.error
    assert v.details == {}


@pytest.mark.parametrize("spec,params,named", [
    (EnsembleSpec("GinUE", 2), (), "no kernel for kind 'GinUE'"),
    (EnsembleSpec("OE", 4), (), "p must hold as many points as the charge 4, got 2"),
    (EnsembleSpec("SE", 1), _FOUR_POINTS, "p must hold as many points as the charge 2, got 4"),
], ids=["GinUE", "OE-N4", "SE-N1"])
def test_kernel_experiment_off_its_domain_is_an_errored_verdict(spec, params, named):
    v = run_experiment(Experiment("kern", "kernel-vs-oracle", spec=spec, params=params))
    assert not v.passed and v.margin == math.inf
    assert v.error.startswith("ConfigError:") and named in v.error


# (comparison, spec) pairs outside the domain of the comparison's reference, each of which
# ran to a false FAIL before its `fits` check refused it, and pairs inside it
_T02 = CouplingSeq.of(0.2)
_REFERENCE_MISFITS = {
    "closed-form-anchor": {
        "OE-N1": EnsembleSpec("OE", 1, 0, hub.T_A),
        "SE-t2": EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.3, 0.1)),
        "SE-N2": EnsembleSpec("SE", 2, 0, hub.T_A), "SE-L1": EnsembleSpec("SE", 1, 1, hub.T_A),
        "SE-sNZ": EnsembleSpec("SE", 1, 0, hub.T_A, hub.S_NZ),
        "GinSE-N2": EnsembleSpec("GinSE", 2, 0, hub.T_A),
        "SE-N0": EnsembleSpec("SE", 0, 0, hub.T_A)},
    "ginse-structure": {
        "OE-N2": EnsembleSpec("OE", 2), "SE-N2": EnsembleSpec("SE", 2),
        "GinOE-N2": EnsembleSpec("GinOE", 2),
        "GinSE-mixed": EnsembleSpec("GinSE", 2, alpha=0.5, beta=0.5)},
    **{comparison: {"GinUE-N2": EnsembleSpec("GinUE", 2)}
       for comparison in ("series-vs-oracle-ratio", "reality", "wave-poly", "hirota-decay",
                          "discrete-exact")},
    # the direct oracle is for N = 2, and Z(0) vanishes by rotation unless L2 = -L
    "bimoment-vs-direct": {"OE-N2": EnsembleSpec("OE", 2), **{
        label: EnsembleSpec("GinUE", n, L, _T02, L2=L2, t_bar=_T02)
        for label, n, L, L2 in (("GinUE-N3", 3, 0, 0), ("GinUE-L1-L2=0", 2, 1, 0),
                                ("GinUE-L1-L2=1", 2, 1, 1), ("GinUE-L2-L2=0", 2, 2, 0))}}}
_REFERENCE_FITS = {
    "closed-form-anchor": {
        "GinSE-N1": EnsembleSpec("GinSE", 1, 0, hub.T_A),
        "GinSE-mixed": EnsembleSpec("GinSE", 1, 0, hub.T_A, alpha=0.3, beta=0.5),
        "SE-mixed": EnsembleSpec("SE", 1, 0, hub.T_A, alpha=0.7, beta=0.2),
        "SE-t0": EnsembleSpec("SE", 1, 0)},
    "ginse-structure": {"GinSE-N2-L0": EnsembleSpec("GinSE", 2),
                        "GinSE-N2-L1": EnsembleSpec("GinSE", 2, 1)},
    "bimoment-vs-direct": {"GinUE-L0-L2=0": EnsembleSpec("GinUE", 2, 0, _T02, t_bar=_T02),
                           "GinUE-L1-L2=-1": EnsembleSpec("GinUE", 2, 1, _T02, L2=-1,
                                                          t_bar=_T02)}}
# the tolerance and cutoff of the gate's experiment of each comparison
_GATE_FIELDS = {"closed-form-anchor": {"tolerance": 1e-6, "cutoff": 12},
                "ginse-structure": {"tolerance": 1e-6}, "bimoment-vs-direct": {"tolerance": 1e-5}}


def _cases(table):
    return [pytest.param(c, spec, id=f"{c}-{label}")
            for c, specs in table.items() for label, spec in specs.items()]


@pytest.mark.parametrize("comparison, spec", _cases(_REFERENCE_MISFITS))
def test_reference_outside_its_domain_is_an_errored_verdict(comparison, spec):
    v = run_experiment(Experiment("ref", comparison, spec=spec,
                                  **_GATE_FIELDS.get(comparison, {})))
    assert not v.passed and v.margin == math.inf
    named = ("holds for a symplectic kind" if comparison in ("closed-form-anchor",
                                                             "ginse-structure")
             else "the bimoment ratios hold for GinUE with n = 2 and L2 = -L only, got "
             f"{spec.kind} n = {spec.n}, (L, L2) = ({spec.L}, {spec.L2})"
             if comparison == "bimoment-vs-direct"
             else "the moment tables serve OE, SE, GinOE, GinSE only, got GinUE")
    assert v.error.startswith("ConfigError:") and named in v.error


@pytest.mark.parametrize("comparison, spec", _cases(_REFERENCE_FITS))
def test_reference_inside_its_domain_passes(comparison, spec):
    v = run_experiment(Experiment("ref", comparison, spec=spec, **_GATE_FIELDS[comparison]))
    assert v.error is None and v.passed and v.margin < 1e-10


def test_vanishing_partition_function_gives_a_failed_verdict():
    # OE N=1 L=1: Z(0) = int x e^{-x^2/2} dx = 0 on both routes, so the ratio
    # at t = 0 over the fallback base is 0 / 0
    v = run_experiment(Experiment("z0", "series-vs-oracle-ratio", spec=EnsembleSpec("OE", 1, 1),
                                  tolerance=1e-4, cutoff=12))
    assert not v.passed and v.margin == math.inf
    assert v.error.startswith("ZeroDivisionError")


def test_hirota_experiment_shape():
    e = Experiment("hir", "hirota-decay", spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2)))
    v = run_experiment(e)
    assert v.passed
    assert len(v.details["residuals"]) == len(hub.HIROTA_CUTOFFS) == 4
    assert all(f >= hub.HIROTA_MIN_FACTOR for f in v.details["decay_factors"])
    assert (v.details["alpha"], v.details["beta"], v.details["cutoffs"]) == (
        hub.HIROTA_ALPHA, hub.HIROTA_BETA, list(hub.HIROTA_CUTOFFS))


def test_ratio_verdicts_do_not_depend_on_run_order():
    exps = ratio_experiments(cutoff=12)
    moments.clear_cache()
    forward = run_suite(exps)
    moments.clear_cache()
    backward = run_suite(exps[::-1])[::-1]
    assert [(v.row(), v.details) for v in forward] == [(v.row(), v.details) for v in backward]


def test_ratio_experiment_list_covers_spec_grid():
    exps = ratio_experiments()
    names = {e.name for e in exps}
    assert len(exps) == 4 * 2 * 2 * 2 + 2
    assert "ratio-GinOE-N2-L1-tB" in names
    assert "ratio-SE-N1-L0-sNZ" in names


def test_acceptance_experiment_names_unique():
    # CI compares a shipped config's verdicts with another run's by name, so a name that a
    # suite repeats would hide a verdict
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    suites = {p.stem: parse_config(p.read_text()) for p in sorted(configs.glob("*.json"))}
    suites = {stem: cfg for stem, cfg in suites.items() if cfg.command == "suite"}
    assert {"suite_acceptance", "suite_kernel_charge4"} <= set(suites)
    for stem, cfg in suites.items():
        names = [e.name for e in cfg.experiments]
        assert len(set(names)) == len(names), stem


def test_gate_ratio_entries_are_the_benchmark_ratio_list(gate_experiments):
    # the benchmark's tau-series workload runs `ratio_experiments(cutoff=20)`, a copy of the
    # gate's series-vs-oracle ratios; the two copies may not drift apart
    gate = [replace(e, cutoff=20) for e in gate_experiments.values()
            if e.comparison == "series-vs-oracle-ratio"]
    assert len(gate) == 34
    assert gate == ratio_experiments(cutoff=20)


def test_wave_experiment_with_s_side():
    e = Experiment("wave-s", "wave-poly",
                   spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2), CouplingSeq.of(0.0, 0.4)),
                   tolerance=1e-4, cutoff=12)
    v = run_experiment(e)
    assert v.passed
    # both wave constructions are polynomials of the charge degree, and the
    # verdict asserts the s-side fit too
    assert v.details["fit_deviation_s_side"] < 1e-8
    assert v.margin < 1e-8
    assert "two_sided_gap" not in v.details


def test_degenerate_base_n3():
    v = run_experiment(Experiment("n3", "series-vs-oracle-ratio",
                                  spec=EnsembleSpec("GinOE", 3, 1, CouplingSeq.of(0.2)),
                                  tolerance=1e-4, cutoff=12))
    assert v.passed
    assert v.details["base_t"] == (0.05,)


def test_unconverged_oracle_fails_the_verdict(monkeypatch):
    # an oracle whose value drifts with the quadrature level never converges;
    # an empty table cache, so no memoized oracle value stands in for it
    monkeypatch.setattr(moments, "_SECTOR_CACHE", {})
    monkeypatch.setattr(oracle, "_eigen_value_at_level",
                        lambda spec, level, *args, **kwargs: (1.0 + 0.1 * level, 1.0))
    v = run_experiment(Experiment("drift", "series-vs-oracle-ratio",
                                  spec=EnsembleSpec("OE", 1, 0, CouplingSeq.of(0.3)),
                                  tolerance=1e-4, cutoff=6))
    assert not v.passed
    assert v.error.startswith("QuadratureError")


@pytest.mark.parametrize("seed", [1, 4])
def test_discrete_oe_at_suite_seeds(seed):
    # these seeds drew atoms whose orth moment core came out not quite skew
    v = run_experiment(Experiment("discrete-OE", "discrete-exact", spec=EnsembleSpec("OE", 1),
                                  tolerance=1e-10, seed=seed, params=(("trials", 50),)))
    assert v.error is None
    assert v.passed and v.margin < 1e-13


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: discrete-SE loses digits in the "
                                        "float atomic table when an atom sits near 0 at L = 2")
@pytest.mark.parametrize("seed", [2, 11, 12, 15, 18, 19])
def test_discrete_se_at_suite_seeds(seed):
    v = run_experiment(Experiment("discrete-SE", "discrete-exact", spec=EnsembleSpec("SE", 1),
                                  tolerance=1e-10, seed=seed, params=(("trials", 50),)))
    assert v.error is None
    assert v.passed


@pytest.mark.parametrize("kind", ["OE", "SE", "GinOE", "GinSE"])
def test_discrete_exact_checks_the_ensemble_mix(monkeypatch, kind):
    checked = []
    consistency = oracle.discrete_consistency
    monkeypatch.setattr(oracle, "discrete_consistency",
                        lambda trials: checked.extend(spec for spec, _, _ in trials)
                        or consistency(trials))
    spec = EnsembleSpec(kind, 1, alpha=0.3, beta=0.5)
    v = run_experiment(Experiment(f"discrete-{kind}", "discrete-exact", spec=spec,
                                  tolerance=1e-10, params=(("trials", 50),)))
    assert v.error is None and v.passed
    assert len(checked) == 50
    expected = {(kind, (0.3, 0.5), CouplingSeq.of(0.07, -0.03))}
    assert {(c.kind, c.mix, c.t) for c in checked} == expected


@pytest.mark.parametrize("seed", [42, 2, 11, 12, 15, 18, 19])
@pytest.mark.parametrize("kind", ["OE", "SE", "GinOE", "GinSE"])
def test_discrete_batch_is_each_trial_alone_bit_for_bit(kind, seed):
    # the gate's seed and the six seeds of the discrete-SE defect: batching neither
    # moves a bit nor hides a digit that a trial alone loses
    e = Experiment(f"discrete-{kind}", "discrete-exact", spec=EnsembleSpec(kind, 1), seed=seed,
                   params=(("trials", 50),))
    trials = hub._discrete_trials(e, hub.resolve_params(e.comparison, e.params, e.spec))
    batched = oracle.discrete_consistency(trials)
    alone = [oracle.discrete_consistency([trial])[0] for trial in trials]
    assert len(batched) == len(alone) == 50
    assert np.array(batched, dtype=complex).tobytes() == np.array(alone, dtype=complex).tobytes()


@pytest.mark.parametrize("kind", ["OE", "SE", "GinOE", "GinSE"])
def test_discrete_builds_one_atomic_stack_per_size_and_one_elimination_per_charge(
        kind, monkeypatch, gate_experiments):
    # the gate's trials span nine (n, L) specs, three charges and five (OE, GinOE) or seven
    # (SE, GinSE) table sizes; every trial's tables come from the one stack of its size,
    # and its coefficients from the one elimination of its charge, in float64 for every
    # kind, pair atoms or not
    e = gate_experiments[f"discrete-{kind}"]
    trials = hub._discrete_trials(e, hub.resolve_params(e.comparison, e.params, e.spec))
    stacks, eliminations = [], []
    atomic_pair, series_terms = moments.atomic_pair, oracle.series_terms
    monkeypatch.setattr(moments, "atomic_pair", lambda spec, measures, size: stacks.append(
        (size, len(measures))) or atomic_pair(spec, measures, size))
    monkeypatch.setattr(oracle, "series_terms", lambda pair, charge, L, cutoff: eliminations.append(
        (charge, len(L), pair.a_matrix.dtype)) or series_terms(pair, charge, L, cutoff))
    oracle.discrete_consistency(trials)
    sizes = [required_table_size(spec.n_eff, spec.L, oracle.SERIES_CUTOFF)
             for spec, _, _ in trials]
    charges = [spec.n_eff for spec, _, _ in trials]
    assert len({(spec.n, spec.L) for spec, _, _ in trials}) == 9
    assert sorted(stacks) == sorted((size, sizes.count(size)) for size in set(sizes))
    assert len(stacks) == (5 if e.spec.family == "orth" else 7)
    assert sorted(eliminations) == sorted((c, charges.count(c), np.dtype(np.float64))
                                          for c in set(charges))
    assert len(eliminations) == 3


def test_every_production_pfaffian_is_real(monkeypatch, gate_experiments):
    # the Pfaffian experiments of the shipped suites eliminate float64 tables only: the
    # gate's discrete and kernel entries, and the charge-4 kernel suite's GinOE and GinSE
    dtypes, minors = [], skewlin._minors
    monkeypatch.setattr(skewlin, "_minors", lambda table, scale, rows: dtypes.append(
        table.dtype) or minors(table, scale, rows))
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    charge4 = parse_config((configs / "suite_kernel_charge4.json").read_text()).experiments
    charge4 = {e.name: e for e in charge4}
    experiments = [e for name, e in gate_experiments.items()
                   if name.startswith(("discrete-", "kernel-"))]
    assert len(experiments) == 6
    for e in experiments + [charge4["kernel4-GinOE-N4-L0"], charge4["kernel4-GinSE-N2-L0"]]:
        dtypes.clear()
        assert run_experiment(e).passed, e.name
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}, e.name


def _gate_group_experiment(gate_experiments, name, **changes):
    """The gate's group experiment `name`, with `changes`, and its resolved params."""
    e = replace(gate_experiments[name], **changes)
    return e, hub.resolve_params(e.comparison, e.params, e.spec)


def _bessel_i(nu, x):
    return math.fsum((x / 2) ** (2 * k + nu) / (math.factorial(k) * math.factorial(k + nu))
                     for k in range(40))


# exact Haar averages of exp(t Tr g) at the gate's t = (0.2,): the Weyl integrals
# over Sp(2) = SU(2) and over both components of O(3)
T_GROUP = 0.2
EXACT_EXP_TRACE = {
    "group-Sp2": math.fsum(T_GROUP ** (2 * k) / (math.factorial(k) * math.factorial(k + 1))
                           for k in range(40)),
    "group-O3": (_bessel_i(0, 2 * T_GROUP) * math.cosh(T_GROUP)
                 - _bessel_i(1, 2 * T_GROUP) * math.sinh(T_GROUP)),
}


@pytest.mark.parametrize("name", ["group-O3", "group-Sp2"])
def test_group_experiment_draws_one_haar_batch(monkeypatch, gate_experiments, name):
    # the predicates and the series check average over one batch at the experiment's
    # seed, and each estimate is the one its payload gets alone
    e, p = _gate_group_experiment(gate_experiments, name, samples=3001)
    group, t = (p["group"], p["size"]), CouplingSeq(p["t"])
    preds = [("schur", Partition(lam)) for lam, _ in p["predicates"]]
    draw, calls = oracle.haar_expectation_mc, []

    def recording(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(oracle, "haar_expectation_mc", recording)
    v = run_experiment(e)
    assert v.error is None
    assert calls == [(group, preds + [("exp_trace", t)], 3001, e.seed)]
    for pred, record in zip(preds, v.details["predicate"], strict=True):
        [alone] = draw(group, [pred], 3001, e.seed)
        assert (record["mc"], record["stderr"]) == (alone.value, alone.error_estimate)
    [alone] = draw(group, [("exp_trace", t)], 3001, e.seed)
    assert (v.details["series_vs_mc"]["mc"], v.details["series_vs_mc"]["stderr"]) == (
        alone.value, alone.error_estimate)
    assert v.details["haar_batch"] == {"seed": e.seed, "samples": 3001,
                                       "shards": oracle.HAAR_SHARDS}


@pytest.mark.parametrize("name", ["group-O3", "group-Sp2"])
def test_gate_series_payload_against_the_exact_haar_average(gate_experiments, name):
    e, p = _gate_group_experiment(gate_experiments, name)
    exact = EXACT_EXP_TRACE[name]
    group, t = (p["group"], p["size"]), CouplingSeq(p["t"])
    assert t == CouplingSeq.of(T_GROUP)
    for cutoff in (12, 30):
        assert group_series(*group, t, cutoff) == pytest.approx(exact, rel=1e-14, abs=0)
    mc = run_experiment(e).details["series_vs_mc"]
    assert abs(mc["mc"] - exact) <= 3 * mc["stderr"]


@pytest.mark.parametrize("offset,passes", [(2.0 ** -52, True), (1e-6, False)])
def test_zero_variance_predicate_has_a_stderr_floor(monkeypatch, offset, passes):
    # det g = 1 on every Sp(2) sample: the predicate's stderr is rounding noise
    def fake_mc(group, payloads, samples, seed):
        return [oracle.OracleResult(1.0 + offset, 5.7e-19, "mc") if kind == "schur"
                else oracle.OracleResult(1.5, 1e-3, "mc") for kind, _ in payloads]

    monkeypatch.setattr(oracle, "haar_expectation_mc", fake_mc)
    monkeypatch.setattr(hub.ts, "group_series", lambda group, n, t, cutoff: 1.5)
    v = run_experiment(Experiment("sp2", "group-series-vs-mc", cutoff=8, samples=1000,
                                  params=(("group", "symplectic"), ("size", 2), ("t", (0.2,)),
                                          ("predicates", (((1, 1), 1.0),)))))
    assert v.error is None
    assert v.passed is passes
    assert v.details["predicate"][0]["sigmas"] == pytest.approx(offset / 1e-12)


@pytest.mark.parametrize("hi,lo,passes", [(5.7e-16, 4.3e-16, True), (1e-8, 1e-9, False)])
def test_wave_order_check_has_a_rounding_floor(monkeypatch, hi, lo, passes):
    # at the rounding floor the order of the two fit deviations is noise
    def fake_check(spec, cutoff, points, s_ratio_fn=None):
        return WaveReport(1, tuple(points), hi if cutoff == 12 else lo, None)

    monkeypatch.setattr(hub.ts, "wave_polynomial_check", fake_check)
    v = run_experiment(Experiment("wave", "wave-poly",
                                  spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2)),
                                  tolerance=1e-4, cutoff=12))
    assert v.error is None
    assert v.passed is passes


@pytest.mark.parametrize("name", ["ginse-moment-structure", "ratio-GinSE-N2-L1-tB",
                                  "ratio-GinOE-N2-L1-tB", "hirota-GinOE", "ratio-SE-N1-L0-sNZ",
                                  "bimoment-GinUE-N2"])
def test_converged_tables_hold_on_the_next_finer_grid(monkeypatch, gate_experiments, name):
    # A false-convergence guard: every table and oracle value of a gate experiment
    # (sector tables, with s != 0 on the SE line, eigenvalue oracles over the pair
    # tables, GinUE bimoments and two-point sum) agrees with its own build one level
    # finer than the level it returned, to within its own rel_tol.  The GinSE structure
    # check and the GinOE Hirota check read only s = 0 tables, all in closed form, and so
    # no quadrature at all; the GinSE and GinOE pair quadratures stay guarded through the
    # oracles of ratio-GinSE-N2-L1-tB and ratio-GinOE-N2-L1-tB.
    calls = []

    def recording(build, rel_tol, **options):
        levels = []
        value, residual = quad.converge(lambda lvl: levels.append(lvl) or build(lvl),
                                        rel_tol, **options)
        calls.append((build, rel_tol, options.get("zero_floor", 0.0), levels[-1], value))
        return value, residual

    monkeypatch.setattr(moments, "converge", recording)
    monkeypatch.setattr(oracle, "converge", recording)
    e = gate_experiments[name]
    moments.clear_cache()
    try:
        run_experiment(e)
    finally:
        moments.clear_cache()
    assert bool(calls) is (name not in ("ginse-moment-structure", "hirota-GinOE"))
    for build, rel_tol, zero_floor, level, value in calls:
        finer = build(level + 1)
        delta = float(np.max(np.abs(finer - value)))
        scale = float(np.max(np.abs(finer)))
        assert delta <= rel_tol * scale or (scale < zero_floor and delta < zero_floor), \
            (name, level, delta / scale, rel_tol)
