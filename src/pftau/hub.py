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
from dataclasses import dataclass, field, replace

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

    def param(self, key):
        """The checked value of parameter `key`, or its default in `COMPARISONS`;
        KeyError where the comparison declares no `key`."""
        return resolve_params(self.comparison, self.params)[key]


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


def _run_series_vs_oracle(e: Experiment) -> Verdict:
    spec = e.spec
    r_series, r_oracle, det = series_oracle_ratios(spec, e.cutoff)
    det["bkp_normalization"] = bkp_normalization(spec)
    margin = abs(r_series / r_oracle - 1.0)
    det.update(ratio_series=r_series, ratio_oracle=r_oracle)
    return Verdict(e.name, e.comparison, margin < e.tolerance, margin, e.tolerance, det)


def _run_anchor(e: Experiment) -> Verdict:
    spec = e.spec
    r_series, det = _series_ratio(spec, e.cutoff)
    t1 = float(spec.t.entry(1).real)
    target = math.exp(t1 * t1)
    det["closed_form"] = target
    margin = abs(complex(r_series).real / target - 1.0)
    return Verdict(e.name, e.comparison, margin < e.tolerance, margin, e.tolerance, det)


def _run_reality(e: Experiment) -> Verdict:
    spec = e.spec
    tau = ts.tau_series(spec, e.cutoff)
    worst = 0.0
    for tv in (spec.t, ZERO_SEQ, FALLBACK_BASE):
        val = tau.evaluate(tv)
        if abs(val) > 1e-250:
            worst = max(worst, abs(val.imag) / abs(val))
    return Verdict(e.name, e.comparison, worst <= e.tolerance, worst, e.tolerance,
                   {"worst_imag_fraction": worst})


def _run_ginse_structure(e: Experiment) -> Verdict:
    size = e.param("size")
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


def _run_kernel(e: Experiment) -> Verdict:
    spec = e.spec
    quotients: dict = {}   # variant -> the quotient lhs / rhs at each point set
    for pts in (e.param("p"), e.param("p_ref")):
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


def _run_hirota(e: Experiment) -> Verdict:
    spec = e.spec
    alpha, beta, cutoffs = e.param("alpha"), e.param("beta"), e.param("cutoffs")
    min_factor = e.param("min_factor")
    charges = [spec.n_eff + d for d in (-1, 0, 1, 2)]
    rels = [ts.hirota_residual(ts.tau_charge_family(spec, charges, w), spec.L, spec.t,
                               alpha, beta).relative for w in cutoffs]
    factors = [rels[i] / max(rels[i + 1], 1e-300) for i in range(len(rels) - 1)]
    monotone = all(rels[i + 1] < rels[i] for i in range(len(rels) - 1))
    passed = monotone and all(f >= min_factor for f in factors)
    return Verdict(e.name, e.comparison, passed, min(factors), e.tolerance,
                   {"residuals": rels, "decay_factors": factors,
                    "alpha": alpha, "beta": beta, "cutoffs": list(cutoffs)})


def _run_group_integral(e: Experiment) -> Verdict:
    group, size, predicates = e.param("group"), e.param("size"), e.param("predicates")
    t = CouplingSeq(e.param("t"))
    details: dict = {"predicate": [], "series_vs_mc": None}
    worst = 0.0
    # one Haar draw serves every predicate; the series check draws its own
    results = orc.haar_expectation_mc(
        (group, size), [("schur", Partition(lam_parts)) for lam_parts, _ in predicates],
        e.samples, e.seed)
    for (lam_parts, expected), res in zip(predicates, results):
        sigmas = _z_score(res, expected)
        details["predicate"].append({"lambda": lam_parts, "expected": expected,
                                     "mc": res.value, "stderr": res.error_estimate,
                                     "sigmas": sigmas})
        worst = max(worst, sigmas / 4.0)
    series = ts.group_series(group, size, t, e.cutoff)
    [mc] = orc.haar_expectation_mc((group, size), [("exp_trace", t)], e.samples, e.seed + 1)
    sigmas = _z_score(mc, series)
    details["series_vs_mc"] = {"series": series, "mc": mc.value,
                               "stderr": mc.error_estimate, "sigmas": sigmas}
    worst = max(worst, sigmas / 3.0)
    return Verdict(e.name, e.comparison, worst <= 1.0, worst, 1.0, details)


def _z_score(mc: orc.OracleResult, expected) -> float:
    """|mc - expected| in standard errors.  A predicate constant on the group
    (det g = 1 on Sp) has a stderr of rounding noise, hence the floor."""
    return abs(mc.value - expected) / max(mc.error_estimate, MC_STDERR_FLOOR)


def _discrete_trials(e: Experiment) -> list:
    """The (spec, real_atoms, pair_atoms) of every trial of a discrete-exact experiment,
    drawn in trial order from its seed."""
    rng = np.random.default_rng(e.seed)
    t = CouplingSeq(e.param("t"))
    trials = []
    for trial in range(e.param("trials")):
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


def _run_discrete(e: Experiment) -> Verdict:
    # the worst deviation folds the trials in order from 0, so a NaN one is passed over
    worst = max([0.0] + [abs(lhs - rhs) / scale
                         for lhs, rhs, scale in orc.discrete_consistency(_discrete_trials(e))])
    return Verdict(e.name, e.comparison, worst < e.tolerance, worst, e.tolerance,
                   {"trials": e.param("trials"), "worst_rel": worst})


def _separated(rng, count, lo=-1.4, hi=1.4, gap=0.05):
    """Sorted random points with guaranteed pairwise separation."""
    slack = (hi - lo) - gap * (count - 1)
    if slack <= 0:
        raise ValueError("separation gap does not fit the interval")
    u = np.sort(rng.uniform(0.0, slack, size=count))
    return (lo + u + gap * np.arange(count)).tolist()


def _run_wave(e: Experiment) -> Verdict:
    spec = e.spec
    points, cut_lo = e.param("points"), e.param("cutoff_low")
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


def _run_bimoment(e: Experiment) -> Verdict:
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


def _group_size(params: dict, names: dict) -> None:
    """A compact symplectic group acts on an even dimension."""
    if params["group"] == "symplectic" and params["size"] % 2:
        raise ConfigError("bad-value", f"{names.get('size', 'size')} of the symplectic group "
                          f"must be even, got {params['size']}")


# comparison kind -> (runner, {parameter: (check(value, key) -> value, default)})
COMPARISONS = {
    "series-vs-oracle-ratio": (_run_series_vs_oracle, {}),
    "closed-form-anchor": (_run_anchor, {}),
    "reality": (_run_reality, {}),
    # the structure check reads the table up to a[5, 6]
    "ginse-structure": (_run_ginse_structure, {"size": (_at_least(int, 7), 8)}),
    "kernel-vs-oracle": (_run_kernel, {"p": (_kernel_points, (0.1, -0.1)),
                                       "p_ref": (_kernel_points, (0.08, -0.06))}),
    "hirota-decay": (_run_hirota, {
        "alpha": (read_number, 8.0), "beta": (read_number, 10.0), "min_factor": (read_number, 2.0),
        "cutoffs": (array_of(_at_least(int, 0), 2), (8, 10, 12, 14))}),
    "group-series-vs-mc": (_run_group_integral, {
        "group": (_group, "orthogonal"), "size": (_at_least(int, 1), 3),
        "t": (array_of(read_number), (0.2,)), "predicates": (array_of(_predicate), ())}),
    "discrete-exact": (_run_discrete, {"trials": (_at_least(int, 1), 50),
                                       "t": (array_of(read_number), (0.07, -0.03))}),
    # cutoff_low None: four below the cutoff, at least 6
    "wave-poly": (_run_wave, {"points": (array_of(read_number, 1), (2.0, 3.0, 5.0)),
                              "cutoff_low": (_at_least(int, 0), None)}),
    "bimoment-vs-direct": (_run_bimoment, {}),
}
# comparison kind -> check(params, names) of parameters whose domains depend on each other
JOINT_CHECKS = {"group-series-vs-mc": _group_size}
# comparison kind -> the experiment fields its verdict never reads, which no config may set:
# a Monte Carlo z-score has its own bound
IGNORED_FIELDS = {"group-series-vs-mc": {"ensemble", "tolerance"}}


def resolve_params(comparison: str, params, names=None) -> dict:
    """Every parameter that `comparison` declares: checked where `params` sets it, its
    default where not.  ConfigError on an unknown comparison or an undeclared or malformed
    parameter, which it names by `names.get(parameter, parameter)`."""
    if comparison not in COMPARISONS:
        raise ConfigError("unknown-comparison", f"unknown comparison kind {comparison!r}")
    declared, given, names = COMPARISONS[comparison][1], dict(params), names or {}
    unknown = sorted(set(given) - set(declared))
    if unknown:
        raise ConfigError("unknown-field", f"{comparison} has no params {unknown}")
    resolved = {k: check(given[k], names.get(k, k)) if k in given else default
                for k, (check, default) in declared.items()}
    if comparison in JOINT_CHECKS:
        JOINT_CHECKS[comparison](resolved, names)
    return resolved


def check_ensemble(comparison: str, spec: EnsembleSpec, params: dict, names=None) -> None:
    """ConfigError where the resolved `params` of `comparison` do not fit the ensemble `spec`:
    the kernel identity holds for a Pfaffian kind, with one point per unit of charge."""
    if comparison != "kernel-vs-oracle":
        return
    if spec.family == "unitary":
        raise ConfigError("bad-ensemble", f"no kernel for kind {spec.kind!r}")
    for key in ("p", "p_ref"):
        if len(params[key]) != spec.n_eff:
            raise ConfigError("bad-value", f"{(names or {}).get(key, key)} must hold as many "
                              f"points as the charge {spec.n_eff}, got {len(params[key])}")


def run_experiment(e: Experiment) -> Verdict:
    try:
        # a bad param, or one that does not fit the ensemble, gives an error verdict
        check_ensemble(e.comparison, e.spec, resolve_params(e.comparison, e.params))
        return COMPARISONS[e.comparison][0](e)
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
