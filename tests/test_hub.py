import math
import warnings
from dataclasses import replace

import pytest

from pftau import hub, moments, oracle
from pftau.hub import (Experiment, acceptance_experiments, bkp_normalization,
                       ratio_experiments, run_experiment, run_suite)
from pftau.moments import EnsembleSpec
from pftau.symfun import ZERO_SEQ, CouplingSeq, c_factor
from pftau.tauseries import WaveReport


def test_bkp_normalization_single_location():
    spec = EnsembleSpec("OE", 3, 1, CouplingSeq.of(0.2, 0.1), CouplingSeq.of(0.0, 0.4))
    norm = bkp_normalization(spec)
    assert norm == pytest.approx((-1.0) ** 3 * c_factor(spec.t, spec.s))
    even = EnsembleSpec("SE", 1, 1)   # charge 2: sign is +1
    assert bkp_normalization(even) == 1.0


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
    spec = EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.3), s)
    tau_series = hub.ts.tau_series
    built = []
    monkeypatch.setattr(hub.ts, "tau_series",
                        lambda spec, cutoff: built.append(spec) or tau_series(spec, cutoff))
    ratio, _ = hub._series_ratio(spec, 12)
    assert len(built) == series_built
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
    assert v.details["validating_variant"] == "abs"
    assert not v.details["variants"]["sgn"]["validates"]


def test_kernel_check_degenerate_variant_emits_no_warning():
    # the sgn kernel's Pfaffian is 0 at the first point set: its quotient is
    # infinite, and its deviation must come out inf without a division warning
    e = Experiment("kern", "kernel-vs-oracle",
                   spec=EnsembleSpec("OE", 2, 1, CouplingSeq.of(0.1, -0.05)),
                   tolerance=1e-4, params=(("p", (0.1, -0.1)), ("p_ref", (0.08, -0.06))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = run_experiment(e)
    assert v.error is None
    assert v.passed and v.margin < 1e-12
    assert v.details["validating_variant"] == "abs"
    sgn = v.details["variants"]["sgn"]
    assert not sgn["validates"] and sgn["deviation"] == math.inf


@pytest.mark.parametrize("kind,n", [("GinSE", 1), ("GinOE", 2)])
@pytest.mark.parametrize("L,t", [(0, (0.2,)), (1, (0.1, -0.05))])
def test_ginibre_kernel_identity(kind, n, L, t):
    # the quaternion pair carries det(1 - p X)^{-1} squared, and the GinOE pair
    # block 2 Im z; with either wrong the two point sets disagree at 1e-2
    e = Experiment("kern", "kernel-vs-oracle", spec=EnsembleSpec(kind, n, L, CouplingSeq(t)),
                   tolerance=1e-4, params=(("p", (0.1, -0.1)), ("p_ref", (0.08, -0.06))))
    v = run_experiment(e)
    assert v.error is None
    assert v.passed and v.margin < 1e-12
    assert v.details["validating_variant"] == "abs"
    if kind == "GinOE":
        assert not v.details["variants"]["sgn"]["validates"]


def test_hirota_experiment_shape():
    e = Experiment("hir", "hirota-decay", spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2)),
                   params=(("alpha", 8.0), ("beta", 10.0), ("cutoffs", (8, 10, 12)),
                           ("min_factor", 2.0)))
    v = run_experiment(e)
    assert v.passed
    assert len(v.details["residuals"]) == 3
    assert all(f >= 2.0 for f in v.details["decay_factors"])


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
    exps = acceptance_experiments()
    names = [e.name for e in exps]
    assert len(set(names)) == len(names)


def test_wave_experiment_with_s_side():
    e = Experiment("wave-s", "wave-poly",
                   spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2), CouplingSeq.of(0.0, 0.4)),
                   tolerance=1e-4, cutoff=12, params=(("points", (2.0, 3.0, 5.0)),))
    v = run_experiment(e)
    assert v.passed
    # both wave constructions are polynomials of the charge degree; their
    # literal pointwise equality is only reported
    assert v.details["fit_deviation_s_side"] < 1e-8
    assert v.details["two_sided_gap"] is not None


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
                        lambda spec, level, *args, **kwargs: 1.0 + 0.1 * level)
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


@pytest.mark.parametrize("kind", ["OE", "SE", "GinOE", "GinSE"])
def test_discrete_exact_checks_the_ensemble_mix(monkeypatch, kind):
    checked = []
    consistency = oracle.discrete_consistency
    monkeypatch.setattr(oracle, "discrete_consistency",
                        lambda spec, *atoms: checked.append(spec) or consistency(spec, *atoms))
    spec = EnsembleSpec(kind, 1, alpha=0.3, beta=0.5)
    v = run_experiment(Experiment(f"discrete-{kind}", "discrete-exact", spec=spec,
                                  tolerance=1e-10, params=(("trials", 50),)))
    assert v.error is None and v.passed
    assert len(checked) == 50
    expected = {(kind, (0.3, 0.5), CouplingSeq.of(0.07, -0.03))}
    assert {(c.kind, c.mix, c.t) for c in checked} == expected


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
        return WaveReport(1, tuple(points), hi if cutoff == 12 else lo, None, None)

    monkeypatch.setattr(hub.ts, "wave_polynomial_check", fake_check)
    v = run_experiment(Experiment("wave", "wave-poly",
                                  spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2)),
                                  tolerance=1e-4, cutoff=12))
    assert v.error is None
    assert v.passed is passes
