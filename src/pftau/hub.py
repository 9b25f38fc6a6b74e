"""End-to-end comparison pipelines with pass/fail verdicts.

Every experiment is reproducible from its dataclass: fixed seeds, fixed
cutoffs, deterministic quadrature.  Ratio comparisons divide out all
absorbed normalization constants; the 2-BKP dressing (-1)^(N L) c(t,s),
which relates a partition function to its tau-function normalization, is
computed in exactly one place here and reported alongside the verdicts
(the moment-level series needs no such factor against the eigenvalue
integral; the discrete-exact experiments certify that).
"""
from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import oracle as orc
from . import tauseries as ts
from .moments import (KINDS, EnsembleSpec, complex_bimoment_matrix, kernel_matrix,
                      kernel_prefactor, moment_pair)
from .partitions import Partition
from .quad import QuadratureError
from .skewlin import pfaffian
from .symfun import CouplingSeq, ZERO_SEQ, c_factor

FALLBACK_BASE = CouplingSeq.of(0.05)
# absolute floors below which two numbers are rounding noise
MC_STDERR_FLOOR = 1e-12
WAVE_FIT_FLOOR = 64 * np.finfo(float).eps


class ConfigError(ValueError):
    """A rejected configuration or parameter; `code` names the kind of fault."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def read_number(value, key: str, kind=float, admissible=lambda v: True):
    """`value` as `kind`: an int field reads JSON integers only, a float field any finite
    number, and neither reads a bool; ConfigError where it is malformed or not admissible."""
    if (isinstance(value, bool) or not isinstance(value, (int, kind))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError("bad-number", f"malformed {key}: {value!r}")
    if not admissible(kind(value)):
        raise ConfigError("bad-number", f"{key} out of range: {value!r}")
    return kind(value)


@dataclass(frozen=True)
class Experiment:
    name: str
    comparison: str
    spec: EnsembleSpec | None = None
    tolerance: float = 1e-5
    cutoff: int = 10
    samples: int = 100000
    seed: int = 42
    params: tuple = ()


@dataclass
class Verdict:
    name: str
    comparison: str
    passed: bool
    margin: float
    tolerance: float
    details: dict = field(default_factory=dict)
    error: str | None = None

    def __post_init__(self):
        # comparisons on NumPy floats give np.bool_, which JSON cannot carry
        self.passed = bool(self.passed)

    def row(self) -> dict:
        out = {"name": self.name, "comparison": self.comparison, "pass": self.passed,
               "margin": self.margin, "tolerance": self.tolerance}
        if self.error:
            out["error"] = self.error
        return out


def bkp_normalization(spec: EnsembleSpec) -> float:
    """(-1)^(N L) c(t,s): the dressing between J_N and its 2-BKP tau, a signed
    infinity where the exp in c overflows."""
    sign = -1.0 if (spec.n_eff * spec.L) % 2 else 1.0
    try:
        return sign * c_factor(spec.t, spec.s)
    except OverflowError:
        return sign * math.inf


def _series_ratio(spec: EnsembleSpec, cutoff: int) -> tuple[complex, dict]:
    tau1 = ts.tau_series(spec, cutoff)
    tau0 = ts.tau_series(replace(spec, t=ZERO_SEQ, s=ZERO_SEQ), cutoff)
    num = tau1.evaluate(spec.t)
    den = tau0.evaluate(ZERO_SEQ)
    base = ZERO_SEQ
    scale = float(np.max(np.abs(tau0.terms)))
    if abs(den) <= 1e-10 * max(scale, 1e-300):
        base = FALLBACK_BASE
        den = tau0.evaluate(base)
    details = {"series_num": num, "series_den": den, "base_t": base.values,
               "imag_ratio": abs(num.imag) / max(abs(num.real), 1e-300)}
    return num / den, details


def series_oracle_ratios(spec: EnsembleSpec, cutoff: int) -> tuple[complex, complex, dict]:
    """Z(t) / Z(base) by the Schur series and by the eigenvalue oracle, and the details of
    both; the base is t = 0 with s dropped, or FALLBACK_BASE where the series vanishes there."""
    r_series, det = _series_ratio(spec, cutoff)
    top = orc.eigen_integral(spec)
    bot = orc.eigen_integral(replace(spec, t=CouplingSeq(det["base_t"]), s=ZERO_SEQ))
    det.update(oracle_num=top.value, oracle_den=bot.value,
               oracle_err=top.error_estimate + bot.error_estimate)
    return r_series, top.value / bot.value, det


def _run_series_vs_oracle(e: Experiment, p: dict) -> Verdict:
    spec = e.spec
    r_series, r_oracle, det = series_oracle_ratios(spec, e.cutoff)
    det["bkp_normalization"] = bkp_normalization(spec)
    margin = abs(r_series / r_oracle - 1.0)
    det.update(ratio_series=r_series, ratio_oracle=r_oracle)
    return Verdict(e.name, e.comparison, margin < e.tolerance, margin, e.tolerance, det)


def _run_anchor(e: Experiment, p: dict) -> Verdict:
    spec = e.spec
    r_series, det = _series_ratio(spec, e.cutoff)
    t1 = float(spec.t.entry(1).real)
    target = math.exp(t1 * t1)
    det["closed_form"] = target
    margin = abs(complex(r_series).real / target - 1.0)
    return Verdict(e.name, e.comparison, margin < e.tolerance, margin, e.tolerance, det)


def _run_reality(e: Experiment, p: dict) -> Verdict:
    spec = e.spec
    tau = ts.tau_series(spec, e.cutoff)
    worst = 0.0
    for tv in (spec.t, ZERO_SEQ, FALLBACK_BASE):
        val = tau.evaluate(tv)
        if abs(val) > 1e-250:
            worst = max(worst, abs(val.imag) / abs(val))
    return Verdict(e.name, e.comparison, worst <= e.tolerance, worst, e.tolerance,
                   {"worst_imag_fraction": worst})


# the structure check reads the table up to a[5, 6]
GINSE_STRUCTURE_SIZE = 8


def _run_ginse_structure(e: Experiment, p: dict) -> Verdict:
    size = GINSE_STRUCTURE_SIZE
    pair = moment_pair(replace(e.spec, t=ZERO_SEQ, s=ZERO_SEQ), size)
    a = pair.a_matrix
    mx = float(np.max(np.abs(a)))
    off = a.copy()
    for m in range(size - 1):
        off[m, m + 1] = 0.0
        off[m + 1, m] = 0.0
    off_frac = float(np.max(np.abs(off))) / mx
    ratios = [a[m, m + 1] / a[m - 1, m] for m in range(1, 6)]
    ratio_err = max(abs(r / (m + 1) - 1.0) for m, r in enumerate(ratios, start=1))
    passed = off_frac < 1e-9 and ratio_err < e.tolerance
    return Verdict(e.name, e.comparison, passed, max(off_frac, ratio_err), e.tolerance,
                   {"off_superdiagonal_fraction": off_frac, "ratios": ratios})


def _run_kernel(e: Experiment, p: dict) -> Verdict:
    spec = e.spec
    quotients = []   # lhs / rhs at each point set
    for pts in (p["p"], p["p_ref"]):
        pts = np.asarray(pts, dtype=float)
        prefactor = kernel_prefactor(pts)
        lhs = orc.det_average_lhs(spec, pts).value
        pf = pfaffian(kernel_matrix(spec, pts))
        if pf == 0:
            # (p_b - p_a) K* carries Delta(p), which nearly coincident points cancel
            gap = float(np.min(np.diff(np.sort(pts))))
            raise ValueError(f"the kernel Pfaffian Pf[(p_b - p_a) K*] cancels to 0 at the "
                             f"points {tuple(pts.tolist())}, two of them {gap:.3g} apart")
        quotients.append(lhs / (prefactor * pf))
    q, q_ref = quotients
    finite = np.isfinite(abs(q)) and np.isfinite(abs(q_ref)) and q_ref != 0
    margin = abs(q / q_ref - 1.0) if finite else math.inf
    passed = bool(finite and abs(q) > 1e-10 and margin < e.tolerance)
    return Verdict(e.name, e.comparison, passed, margin, e.tolerance, {"quotients": quotients})


# the two shift points of the difference identity, the cutoffs its residual decays over, and the
# factor each step must shrink it by; the verdict only echoes the tolerance
HIROTA_ALPHA, HIROTA_BETA = 8.0, 10.0
HIROTA_CUTOFFS = (8, 10, 12, 14)
HIROTA_MIN_FACTOR = 2.0


def _run_hirota(e: Experiment, p: dict) -> Verdict:
    spec = e.spec
    charges = [spec.n_eff + d for d in (-1, 0, 1, 2)]
    rels = [ts.hirota_residual(ts.tau_charge_family(spec, charges, w), spec.t,
                               HIROTA_ALPHA, HIROTA_BETA).relative for w in HIROTA_CUTOFFS]
    factors = [rels[i] / max(rels[i + 1], 1e-300) for i in range(len(rels) - 1)]
    monotone = all(rels[i + 1] < rels[i] for i in range(len(rels) - 1))
    passed = monotone and all(f >= HIROTA_MIN_FACTOR for f in factors)
    return Verdict(e.name, e.comparison, passed, min(factors), e.tolerance,
                   {"residuals": rels, "decay_factors": factors, "alpha": HIROTA_ALPHA,
                    "beta": HIROTA_BETA, "cutoffs": list(HIROTA_CUTOFFS)})


def _run_group_integral(e: Experiment, p: dict) -> Verdict:
    group, size, predicates = p["group"], p["size"], p["predicates"]
    t = CouplingSeq(p["t"])
    details: dict = {"predicate": [], "series_vs_mc": None,
                     "haar_batch": {"seed": e.seed, "samples": e.samples,
                                    "shards": orc.HAAR_SHARDS}}
    worst = 0.0
    # one Haar draw serves every predicate and the series check
    *results, mc = orc.haar_expectation_mc(
        (group, size), [("schur", Partition(lam_parts)) for lam_parts, _ in predicates]
        + [("exp_trace", t)], e.samples, e.seed)
    for (lam_parts, expected), res in zip(predicates, results):
        sigmas = _z_score(res, expected)
        details["predicate"].append({"lambda": lam_parts, "expected": expected,
                                     "mc": res.value, "stderr": res.error_estimate,
                                     "sigmas": sigmas})
        worst = max(worst, sigmas / 4.0)
    series = ts.group_series(group, size, t, e.cutoff)
    sigmas = _z_score(mc, series)
    details["series_vs_mc"] = {"series": series, "mc": mc.value,
                               "stderr": mc.error_estimate, "sigmas": sigmas}
    worst = max(worst, sigmas / 3.0)
    return Verdict(e.name, e.comparison, worst <= 1.0, worst, 1.0, details)


def _z_score(mc: orc.OracleResult, expected) -> float:
    """|mc - expected| in standard errors.  A predicate constant on the group
    (det g = 1 on Sp) has a stderr of rounding noise, hence the floor."""
    return abs(mc.value - expected) / max(mc.error_estimate, MC_STDERR_FLOOR)


# the couplings of every discrete-exact trial
DISCRETE_T = CouplingSeq.of(0.07, -0.03)


def _discrete_trials(e: Experiment, p: dict) -> list:
    """The (spec, real_atoms, pair_atoms) of every trial of a discrete-exact experiment
    with the resolved params `p`, drawn in trial order from its seed."""
    rng = np.random.default_rng(e.seed)
    trials = []
    for trial in range(p["trials"]):
        n = 1 + trial % 3
        L = int(rng.integers(0, 3))
        n_atoms = int(rng.integers(max(2, n), 7))
        # wide separation keeps the confluent Vandermonde factors away from
        # the cancellation floor of the Pfaffian side
        xs = _separated(rng, n_atoms, gap=0.3)
        reals = list(zip(xs, rng.uniform(0.3, 1.2, size=n_atoms)))
        pairs = None
        if e.spec.mix[0] != 0.0:
            res = _separated(rng, 4, lo=-1.2, hi=1.2, gap=0.3)
            pairs = [(complex(a, b), w) for a, b, w in
                     zip(res, rng.uniform(0.2, 1.0, size=4), rng.uniform(0.3, 1.2, size=4))]
        trials.append((replace(e.spec, n=n, L=L, t=DISCRETE_T), reals, pairs))
    return trials


def _run_discrete(e: Experiment, p: dict) -> Verdict:
    # the worst deviation folds the trials in order from 0, so a NaN one is passed over
    worst = max([0.0] + [abs(lhs - rhs) / scale
                         for lhs, rhs, scale in orc.discrete_consistency(_discrete_trials(e, p))])
    return Verdict(e.name, e.comparison, worst < e.tolerance, worst, e.tolerance,
                   {"trials": p["trials"], "worst_rel": worst})


def _separated(rng, count, lo=-1.4, hi=1.4, gap=0.05):
    """Sorted random points with guaranteed pairwise separation."""
    slack = (hi - lo) - gap * (count - 1)
    if slack <= 0:
        raise ValueError("separation gap does not fit the interval")
    u = np.sort(rng.uniform(0.0, slack, size=count))
    return (lo + u + gap * np.arange(count)).tolist()


# the spectral points the wave function is fitted at
WAVE_POINTS = (2.0, 3.0, 5.0)


def _run_wave(e: Experiment, p: dict) -> Verdict:
    spec = e.spec
    rep_hi = ts.wave_polynomial_check(spec, e.cutoff, WAVE_POINTS, s_ratio_fn=_s_ratio_fn(spec))
    # the lower cutoff it is compared with: four below, at least 6
    rep_lo = ts.wave_polynomial_check(spec, max(6, e.cutoff - 4), WAVE_POINTS)
    margin = max(rep_hi.fit_deviation_t, rep_hi.fit_deviation_s or 0.0)   # s side if any
    # both t-side deviations can sit at the rounding floor, where their order is noise
    passed = (margin < e.tolerance
              and rep_hi.fit_deviation_t <= max(rep_lo.fit_deviation_t, WAVE_FIT_FLOOR))
    details = {"fit_deviation": rep_hi.fit_deviation_t,
               "fit_deviation_lower_cutoff": rep_lo.fit_deviation_t,
               "fit_deviation_s_side": rep_hi.fit_deviation_s}
    return Verdict(e.name, e.comparison, passed, margin, e.tolerance, details)


def _s_ratio_fn(spec: EnsembleSpec):
    if (not spec.s.top_index() or spec.n > orc.EIGEN_MAX_N
            or spec.family not in ("orth", "sympl")):
        return None
    base = orc.eigen_integral(spec).value

    def ratio(lam: float) -> complex:
        # exact insertion prod_i (1 - lam/x_i) over the eigenvalues; the s-coupling keeps
        # the origin out of play, so the inverse powers are integrable
        return orc.eigen_integral(spec, 1e-9, lambda x: 1.0 - lam / x).value / base

    return ratio


def _run_bimoment(e: Experiment, p: dict) -> Verdict:
    spec = e.spec
    spec0 = replace(spec, t=ZERO_SEQ, t_bar=ZERO_SEQ)
    m1 = complex_bimoment_matrix(spec, spec.n)
    m0 = complex_bimoment_matrix(spec0, spec.n)
    r_det = np.linalg.det(m1) / np.linalg.det(m0)
    d1 = orc.ginue_two_point(spec)
    d0 = orc.ginue_two_point(spec0)
    r_direct = d1.value / d0.value
    margin = abs(r_det / r_direct - 1.0)
    return Verdict(e.name, e.comparison, margin < e.tolerance, margin, e.tolerance,
                   {"det_ratio": r_det, "direct_ratio": r_direct})


def _at_least(kind, least):
    """The check of a number of `kind` no smaller than `least`."""
    return lambda value, key: read_number(value, key, kind, lambda v: v >= least)


def array_of(item, least_len=0):
    """The check of an array of at least `least_len` entries, each read by `item`."""
    def check(value, key):
        if not isinstance(value, (list, tuple)) or len(value) < least_len:
            raise ConfigError("bad-value", f"{key} must be an array of length >= {least_len}, "
                              f"got {value!r}")
        return tuple(item(v, key) for v in value)
    return check


def _group(value, key):
    if value not in ("orthogonal", "symplectic"):
        raise ConfigError("bad-value", f"{key} must be orthogonal or symplectic, got {value!r}")
    return value


def _predicate(value, key):
    """One [partition parts, expected Haar average] pair."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError("bad-value", f"{key} entries must be [parts, value], got {value!r}")
    parts = array_of(_at_least(int, 0))(value[0], key)
    try:
        Partition(parts)
    except ValueError as exc:
        raise ConfigError("bad-value", f"{key} entry {value!r}: {exc}") from exc
    return parts, read_number(value[1], key)


def _kernel_points(value, key):
    """The points of a kernel Pfaffian: an even number of them, no two equal."""
    points = array_of(read_number, 2)(value, key)
    if len(points) % 2 or len(set(points)) != len(points):
        raise ConfigError("bad-value", f"{key} must be an even number of distinct points, "
                          f"got {value!r}")
    return points


def _group_fits(params: dict, spec) -> None:
    """A compact symplectic group acts on an even dimension."""
    if params["group"] == "symplectic" and params["size"] % 2:
        raise ConfigError("bad-value", "size of the symplectic group "
                          f"must be even, got {params['size']}")


_PFAFFIAN_KINDS = ", ".join(kind for kind, (family, _) in KINDS.items() if family != "unitary")


def _pfaffian_fits(params: dict, spec: EnsembleSpec) -> None:
    """The moment tables serve the Pfaffian kinds only."""
    if spec.family == "unitary":
        raise ConfigError("bad-ensemble", f"the moment tables serve {_PFAFFIAN_KINDS} only, "
                          f"got {spec.kind}")


def _bimoment_fits(params: dict, spec: EnsembleSpec) -> None:
    """The direct two-point oracle is for GinUE with n = 2; Z(0) vanishes by rotation unless
    L2 = -L, and with it the ratios that the verdict compares."""
    if spec.kind != "GinUE" or spec.n != 2 or spec.L2 != -spec.L:
        raise ConfigError("bad-ensemble", "the bimoment ratios hold for GinUE with n = 2 and "
                          f"L2 = -L only, got {spec.kind} n = {spec.n}, (L, L2) = "
                          f"({spec.L}, {spec.L2})")


def _kernel_fits(params: dict, spec: EnsembleSpec) -> None:
    """The kernel identity holds for a Pfaffian kind, with one point per unit of charge."""
    if spec.family == "unitary":
        raise ConfigError("bad-ensemble", f"no kernel for kind {spec.kind!r}")
    for key in ("p", "p_ref"):
        if len(params[key]) != spec.n_eff:
            raise ConfigError("bad-value", f"{key} must hold as many points as "
                              f"the charge {spec.n_eff}, got {len(params[key])}")


def _anchor_fits(params: dict, spec: EnsembleSpec) -> None:
    """exp(t1^2) is Z(t)/Z(0) of one symplectic pair at L = 0, s = 0, t = (t1,), any mix."""
    if (spec.family != "sympl" or spec.n != 1 or spec.L != 0 or spec.s.top_index()
            or spec.t.top_index() > 1):
        raise ConfigError("bad-ensemble", "the closed form exp(t1^2) holds for a symplectic "
                          "kind with n = 1, L = 0, s = 0 and t = (t1,) only, got "
                          f"{spec.kind} n = {spec.n}, L = {spec.L}, s = {spec.s.values}, "
                          f"t = {spec.t.values}")


def _ginse_structure_fits(params: dict, spec: EnsembleSpec) -> None:
    """The superdiagonal rule is that of the pure quaternion half-plane table."""
    alpha, beta = spec.mix
    if spec.family != "sympl" or beta != 0.0 or alpha == 0.0:
        raise ConfigError("bad-ensemble", "the superdiagonal rule holds for a symplectic kind "
                          f"with beta = 0 and alpha != 0 only, got {spec.kind} with "
                          f"(alpha, beta) = ({alpha}, {beta})")


class Comparison(NamedTuple):
    """A comparison kind: `run(e, params)` reads no `Experiment` field outside `reads`; `params`
    is {param: (check(value, key), default)}; `fits(params, spec)` refuses misfits."""
    run: Callable
    reads: frozenset
    params: dict = {}
    fits: Callable = lambda params, spec: None


# the experiment fields that a series, an ensemble alone, and a Haar Monte Carlo read
_SERIES = frozenset({"ensemble", "tolerance", "cutoff"})
_SPEC = frozenset({"ensemble", "tolerance"})
_HAAR = frozenset({"cutoff", "samples", "seed"})
COMPARISONS = {
    "series-vs-oracle-ratio": Comparison(_run_series_vs_oracle, _SERIES, fits=_pfaffian_fits),
    "closed-form-anchor": Comparison(_run_anchor, _SERIES, fits=_anchor_fits),
    "reality": Comparison(_run_reality, _SERIES, fits=_pfaffian_fits),
    "ginse-structure": Comparison(_run_ginse_structure, _SPEC, fits=_ginse_structure_fits),
    "kernel-vs-oracle": Comparison(_run_kernel, _SPEC, {
        "p": (_kernel_points, (0.1, -0.1)), "p_ref": (_kernel_points, (0.08, -0.06))},
        _kernel_fits),
    "hirota-decay": Comparison(_run_hirota, _SPEC, fits=_pfaffian_fits),
    # a Monte Carlo z-score has its own bound, and a group no ensemble
    "group-series-vs-mc": Comparison(_run_group_integral, _HAAR, {
        "group": (_group, "orthogonal"), "size": (_at_least(int, 1), 3),
        "t": (array_of(read_number), (0.2,)), "predicates": (array_of(_predicate), ())},
        _group_fits),
    "discrete-exact": Comparison(_run_discrete, _SPEC | {"seed"},
                                 {"trials": (_at_least(int, 1), 50)}, _pfaffian_fits),
    "wave-poly": Comparison(_run_wave, _SERIES, fits=_pfaffian_fits),
    "bimoment-vs-direct": Comparison(_run_bimoment, _SPEC, fits=_bimoment_fits),
}


def resolve_params(comparison: str, params, spec: EnsembleSpec | None) -> dict:
    """Every param that `comparison` declares, checked where `params` sets it, else its default,
    and fitted to `spec`; ConfigError on an unknown comparison, a missing `spec` it reads, or an
    undeclared, malformed or unfitting param."""
    if comparison not in COMPARISONS:
        raise ConfigError("unknown-comparison", f"unknown comparison kind {comparison!r}")
    if spec is None and "ensemble" in COMPARISONS[comparison].reads:
        raise ConfigError("missing-ensemble", f"{comparison} needs an ensemble")
    declared, given = COMPARISONS[comparison].params, dict(params)
    unknown = sorted(set(given) - set(declared))
    if unknown:
        raise ConfigError("unknown-field", f"{comparison} has no params {unknown}")
    resolved = {k: check(given[k], k) if k in given else default
                for k, (check, default) in declared.items()}
    COMPARISONS[comparison].fits(resolved, spec)
    return resolved


def run_experiment(e: Experiment) -> Verdict:
    try:
        # an unknown kind, a bad param, or one that misfits the ensemble: an error verdict
        params = resolve_params(e.comparison, e.params, e.spec)
        return COMPARISONS[e.comparison].run(e, params)
    except (QuadratureError, ValueError, ArithmeticError) as exc:
        return Verdict(e.name, e.comparison, False, math.inf, e.tolerance,
                       error=f"{type(exc).__name__}: {exc}")


def run_suite(experiments) -> list[Verdict]:
    return [run_experiment(e) for e in experiments]


# ---------------------------------------------------------------------------
# the gate's 34 series-vs-oracle ratios, a copy of those in scripts/configs/suite_acceptance.json
# kept for the benchmark's tau-series workload, which runs them at cutoff 20

T_A = CouplingSeq.of(0.3)
T_B = CouplingSeq.of(0.1, -0.05)
S_NZ = CouplingSeq.of(0.0, 0.4)


def ratio_experiments(cutoff: int = 12) -> list[Experiment]:
    out = [Experiment(f"ratio-{kind}-N{n}-L{L}-{label}", "series-vs-oracle-ratio",
                      spec=EnsembleSpec(kind, n, L, t), tolerance=1e-4, cutoff=cutoff)
           for kind in ("OE", "SE", "GinSE", "GinOE") for n in (1, 2) for L in (0, 1)
           for label, t in (("tA", T_A), ("tB", T_B))]
    return out + [Experiment(f"ratio-{kind}-N1-L0-sNZ", "series-vs-oracle-ratio",
                             spec=EnsembleSpec(kind, 1, 0, T_A, S_NZ), tolerance=1e-3,
                             cutoff=cutoff) for kind in ("OE", "SE")]
