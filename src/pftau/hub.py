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
from .moments import (EnsembleSpec, complex_bimoment_matrix, kernel_matrix, kernel_prefactor,
                      moment_pair)
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
    """(-1)^(N L) c(t,s): the dressing between J_N and its 2-BKP tau."""
    sign = -1.0 if (spec.n_eff * spec.L) % 2 else 1.0
    return sign * c_factor(spec.t, spec.s)


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


def _run_ginse_structure(e: Experiment, p: dict) -> Verdict:
    size = p["size"]
    pair = moment_pair(replace(e.spec, t=ZERO_SEQ, s=ZERO_SEQ), size)
    a = pair.a_matrix.real
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
    quotients: dict = {}   # variant -> the quotient lhs / rhs at each point set
    for pts in (p["p"], p["p_ref"]):
        pts = np.asarray(pts, dtype=float)
        prefactor = kernel_prefactor(pts)
        lhs = orc.det_average_lhs(spec, pts).value
        for variant, k in kernel_matrix(spec, pts).items():
            pf = pfaffian(k)
            if pf == 0 and variant == "abs":
                # (p_b - p_a) K* carries Delta(p), which nearly coincident points cancel
                gap = float(np.min(np.diff(np.sort(pts))))
                raise ValueError(f"the kernel Pfaffian Pf[(p_b - p_a) K*] cancels to 0 at the "
                                 f"points {tuple(pts.tolist())}, two of them {gap:.3g} apart")
            rhs = prefactor * pf
            with np.errstate(divide="ignore", invalid="ignore"):
                quotients.setdefault(variant, []).append(
                    lhs / rhs if rhs != 0 else complex(math.inf))
    variants = {}
    for variant, (const, q_ref) in quotients.items():
        # a zero Pfaffian gave an infinite quotient above: no deviation
        finite = np.isfinite(abs(const)) and np.isfinite(abs(q_ref)) and q_ref != 0
        dev = abs(const / q_ref - 1.0) if finite else math.inf
        variants[variant] = {"validates": bool(finite and abs(const) > 1e-10 and dev < e.tolerance),
                             "deviation": dev, "constant": const}
    # exactly one variant must validate; a failing verdict reads the last variant's deviation
    valid = [v for v, out in variants.items() if out["validates"]]
    passed = len(valid) == 1
    margin = variants["abs" if "abs" in valid else list(variants)[-1]]["deviation"]
    chosen = valid[0] if passed else ("ambiguous" if len(variants) > 1 else "none")
    return Verdict(e.name, e.comparison, passed, margin, e.tolerance,
                   {"variants": variants, "validating_variant": chosen})


def _run_hirota(e: Experiment, p: dict) -> Verdict:
    spec = e.spec
    alpha, beta, cutoffs, min_factor = p["alpha"], p["beta"], p["cutoffs"], p["min_factor"]
    charges = [spec.n_eff + d for d in (-1, 0, 1, 2)]
    rels = [ts.hirota_residual(ts.tau_charge_family(spec, charges, w), spec.t,
                               alpha, beta).relative for w in cutoffs]
    factors = [rels[i] / max(rels[i + 1], 1e-300) for i in range(len(rels) - 1)]
    monotone = all(rels[i + 1] < rels[i] for i in range(len(rels) - 1))
    passed = monotone and all(f >= min_factor for f in factors)
    return Verdict(e.name, e.comparison, passed, min(factors), e.tolerance,
                   {"residuals": rels, "decay_factors": factors,
                    "alpha": alpha, "beta": beta, "cutoffs": list(cutoffs)})


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


def _discrete_trials(e: Experiment, p: dict) -> list:
    """The (spec, real_atoms, pair_atoms) of every trial of a discrete-exact experiment
    with the resolved params `p`, drawn in trial order from its seed."""
    rng = np.random.default_rng(e.seed)
    t = CouplingSeq(p["t"])
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
        trials.append((replace(e.spec, n=n, L=L, t=t), reals, pairs))
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


def _run_wave(e: Experiment, p: dict) -> Verdict:
    spec = e.spec
    points, cut_lo = p["points"], p["cutoff_low"]
    cut_lo = max(6, e.cutoff - 4) if cut_lo is None else cut_lo
    rep_hi = ts.wave_polynomial_check(spec, e.cutoff, points, s_ratio_fn=_s_ratio_fn(spec))
    rep_lo = ts.wave_polynomial_check(spec, cut_lo, points)
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


def _group_fits(params: dict, spec, names: dict) -> None:
    """A compact symplectic group acts on an even dimension."""
    if params["group"] == "symplectic" and params["size"] % 2:
        raise ConfigError("bad-value", f"{names.get('size', 'size')} of the symplectic group "
                          f"must be even, got {params['size']}")


def _kernel_fits(params: dict, spec: EnsembleSpec, names: dict) -> None:
    """The kernel identity holds for a Pfaffian kind, with one point per unit of charge."""
    if spec.family == "unitary":
        raise ConfigError("bad-ensemble", f"no kernel for kind {spec.kind!r}")
    for key in ("p", "p_ref"):
        if len(params[key]) != spec.n_eff:
            raise ConfigError("bad-value", f"{names.get(key, key)} must hold as many points as "
                              f"the charge {spec.n_eff}, got {len(params[key])}")


class Comparison(NamedTuple):
    """A comparison kind: `run(e, params)` reads no `Experiment` field outside `reads`; `params`
    is {param: (check(value, key), default)}; `fits(params, spec, names)` refuses misfits."""
    run: Callable
    reads: frozenset
    params: dict = {}
    fits: Callable = lambda params, spec, names: None


# the experiment fields that a series, an ensemble alone, and a Haar Monte Carlo read
_SERIES = frozenset({"ensemble", "tolerance", "cutoff"})
_SPEC = frozenset({"ensemble", "tolerance"})
_HAAR = frozenset({"cutoff", "samples", "seed"})
COMPARISONS = {
    "series-vs-oracle-ratio": Comparison(_run_series_vs_oracle, _SERIES),
    "closed-form-anchor": Comparison(_run_anchor, _SERIES),
    "reality": Comparison(_run_reality, _SERIES),
    # the structure check reads the table up to a[5, 6]
    "ginse-structure": Comparison(_run_ginse_structure, _SPEC, {"size": (_at_least(int, 7), 8)}),
    "kernel-vs-oracle": Comparison(_run_kernel, _SPEC, {
        "p": (_kernel_points, (0.1, -0.1)), "p_ref": (_kernel_points, (0.08, -0.06))},
        _kernel_fits),
    # min_factor judges the decay; the verdict only echoes the tolerance
    "hirota-decay": Comparison(_run_hirota, _SPEC, {
        "alpha": (read_number, 8.0), "beta": (read_number, 10.0), "min_factor": (read_number, 2.0),
        "cutoffs": (array_of(_at_least(int, 0), 2), (8, 10, 12, 14))}),
    # a Monte Carlo z-score has its own bound, and a group no ensemble
    "group-series-vs-mc": Comparison(_run_group_integral, _HAAR, {
        "group": (_group, "orthogonal"), "size": (_at_least(int, 1), 3),
        "t": (array_of(read_number), (0.2,)), "predicates": (array_of(_predicate), ())},
        _group_fits),
    "discrete-exact": Comparison(_run_discrete, _SPEC | {"seed"}, {
        "trials": (_at_least(int, 1), 50), "t": (array_of(read_number), (0.07, -0.03))}),
    # cutoff_low None: four below the cutoff, at least 6
    "wave-poly": Comparison(_run_wave, _SERIES, {
        "points": (array_of(read_number, 1), (2.0, 3.0, 5.0)),
        "cutoff_low": (_at_least(int, 0), None)}),
    "bimoment-vs-direct": Comparison(_run_bimoment, _SPEC),
}


def resolve_params(comparison: str, params, spec: EnsembleSpec | None, names=None) -> dict:
    """Every param that `comparison` declares, checked where `params` sets it, else its default,
    and fitted to `spec`; ConfigError on an unknown comparison, a missing `spec` it reads, or an
    undeclared, malformed or unfitting param, which it names by `names.get(param, param)`."""
    if comparison not in COMPARISONS:
        raise ConfigError("unknown-comparison", f"unknown comparison kind {comparison!r}")
    if spec is None and "ensemble" in COMPARISONS[comparison].reads:
        raise ConfigError("missing-ensemble", f"{comparison} needs an ensemble")
    declared, given, names = COMPARISONS[comparison].params, dict(params), names or {}
    unknown = sorted(set(given) - set(declared))
    if unknown:
        raise ConfigError("unknown-field", f"{comparison} has no params {unknown}")
    resolved = {k: check(given[k], names.get(k, k)) if k in given else default
                for k, (check, default) in declared.items()}
    COMPARISONS[comparison].fits(resolved, spec, names)
    return resolved


def run_experiment(e: Experiment) -> Verdict:
    try:
        # an unknown kind, a bad param, or one that misfits the ensemble: an error verdict
        params = resolve_params(e.comparison, e.params, e.spec)
        return COMPARISONS[e.comparison].run(e, params)
    except (QuadratureError, ValueError, ZeroDivisionError) as exc:
        return Verdict(e.name, e.comparison, False, math.inf, e.tolerance,
                       error=f"{type(exc).__name__}: {exc}")


def run_suite(experiments) -> list[Verdict]:
    return [run_experiment(e) for e in experiments]


# ---------------------------------------------------------------------------
# the canonical desk-scale suite

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


def acceptance_experiments(samples: int = 100000, seed: int = 42) -> list[Experiment]:
    """The named desk-scale suite behind the acceptance gate; every param left out is
    at its default in `COMPARISONS`."""
    t02 = CouplingSeq.of(0.2)
    exps = [Experiment("ginse-moment-structure", "ginse-structure",
                       spec=EnsembleSpec("GinSE", 2), tolerance=1e-6),
            *ratio_experiments(cutoff=12),
            Experiment("anchor-SE-N1-exp", "closed-form-anchor",
                       spec=EnsembleSpec("SE", 1, 0, T_A), tolerance=1e-6, cutoff=12)]
    exps += [Experiment(f"discrete-{kind}", "discrete-exact", spec=EnsembleSpec(kind, 1),
                        tolerance=1e-10, seed=seed) for kind in ("OE", "SE", "GinOE", "GinSE")]
    exps += [Experiment(f"kernel-{kind}-N2", "kernel-vs-oracle", spec=EnsembleSpec(kind, n, 0, t02),
                        tolerance=1e-4) for kind, n in (("SE", 1), ("OE", 2))]
    exps += [Experiment("group-O3", "group-series-vs-mc", cutoff=8, samples=samples, seed=seed,
                        params=(("predicates", (((2,), 1.0), ((1,), 0.0), ((1, 1), 0.0))),)),
             Experiment("group-Sp2", "group-series-vs-mc", cutoff=8, samples=samples,
                        seed=seed + 7, params=(("group", "symplectic"), ("size", 2), (
                            "predicates", (((1, 1), 1.0), ((2,), 0.0), ((1,), 0.0))))),
             Experiment("hirota-SE", "hirota-decay", spec=EnsembleSpec("SE", 1, 0, t02)),
             Experiment("hirota-GinOE", "hirota-decay",
                        spec=EnsembleSpec("GinOE", 2, 0, CouplingSeq.of(0.1))),
             Experiment("bimoment-GinUE-N2", "bimoment-vs-direct",
                        spec=EnsembleSpec("GinUE", 2, 0, t02, t_bar=t02), tolerance=1e-5)]
    exps += [Experiment(f"reality-{kind}-N{n}", "reality", spec=EnsembleSpec(kind, n, 0, T_B),
                        tolerance=1e-8, cutoff=10)
             for kind, n in (("OE", 2), ("SE", 1), ("GinSE", 1), ("GinOE", 2))]
    exps.append(Experiment("wave-SE-N1", "wave-poly", spec=EnsembleSpec("SE", 1, 0, t02),
                           tolerance=1e-4, cutoff=12))
    return exps
