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
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle as orc
from . import tauseries as ts
from .moments import (EnsembleSpec, complex_bimoment_matrix, kernel_matrix,
                      kernel_prefactor, moment_pair)
from .partitions import Partition
from .quad import QuadratureError, ValidationError
from .skewlin import pfaffian
from .symfun import CouplingSeq, ZERO_SEQ, c_factor

FALLBACK_BASE = CouplingSeq.of(0.05)
# absolute floors below which two numbers are rounding noise
MC_STDERR_FLOOR = 1e-12
WAVE_FIT_FLOOR = 64 * np.finfo(float).eps


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

    def opt(self, key, default=None):
        return dict(self.params).get(key, default)


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
    # the coefficients never see t, so with s = 0 the denominator shares them
    if spec.s == ZERO_SEQ:
        tau0 = tau1
    else:
        tau0 = ts.tau_series(replace(spec, t=ZERO_SEQ, s=ZERO_SEQ), cutoff)
    num = tau1.evaluate(spec.t)
    den = tau0.evaluate(ZERO_SEQ)
    base = ZERO_SEQ
    scale = max(abs(v) for v in tau0.terms.values())
    if abs(den) <= 1e-10 * max(scale, 1e-300):
        base = FALLBACK_BASE
        den = tau0.evaluate(base)
    details = {"series_num": num, "series_den": den, "base_t": base.values,
               "imag_ratio": abs(num.imag) / max(abs(num.real), 1e-300)}
    return num / den, details


def _oracle_ratio(spec: EnsembleSpec, base: CouplingSeq) -> tuple[complex, dict]:
    spec0 = replace(spec, t=base, s=ZERO_SEQ)
    top = orc.eigen_integral(spec)
    bot = orc.eigen_integral(spec0)
    return top.value / bot.value, {"oracle_num": top.value, "oracle_den": bot.value,
                                   "oracle_err": top.error_estimate + bot.error_estimate}


def _run_series_vs_oracle(e: Experiment) -> Verdict:
    spec = e.spec
    r_series, det = _series_ratio(spec, e.cutoff)
    r_oracle, det2 = _oracle_ratio(spec, CouplingSeq(det["base_t"]))
    det.update(det2)
    det["bkp_normalization"] = bkp_normalization(spec)
    margin = abs(r_series / r_oracle - 1.0)
    det["ratio_series"] = r_series
    det["ratio_oracle"] = r_oracle
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
    size = e.opt("size", 8)
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
    p = np.asarray(e.opt("p", (0.1, -0.1)), dtype=float)
    p_ref = np.asarray(e.opt("p_ref", (0.08, -0.06)), dtype=float)
    power = 2 if spec.family == "sympl" else 1
    has_real_block = spec.kind in ("OE", "GinOE")   # only those have an |x-y| vs sgn choice
    variants = ("abs", "sgn") if has_real_block else ("abs",)
    details: dict = {}
    outcomes = {}
    for variant in variants:
        try:
            qs = []
            for pts in (p, p_ref):
                km = kernel_matrix(spec, pts, variant=variant)
                rhs = kernel_prefactor(pts, spec.L) * pfaffian(km.k)
                lhs = orc.det_average_lhs(spec, pts, insert_power=power).value
                with np.errstate(divide="ignore", invalid="ignore"):
                    qs.append(lhs / rhs if rhs != 0 else complex(math.inf))
            const = qs[0]
            # a zero Pfaffian gave an infinite quotient above: no deviation
            finite = all(np.isfinite(abs(q)) for q in qs) and qs[1] != 0
            dev = abs(qs[0] / qs[1] - 1.0) if finite else math.inf
            outcomes[variant] = (bool(finite and abs(const) > 1e-10 and dev < e.tolerance),
                                 dev, const)
        except (ZeroDivisionError, FloatingPointError, QuadratureError) as exc:
            outcomes[variant] = (False, math.inf, str(exc))
    details["variants"] = {k: {"validates": v[0], "deviation": v[1], "constant": v[2]}
                           for k, v in outcomes.items()}
    ok_abs, dev_abs, _ = outcomes["abs"]
    if has_real_block:
        ok_sgn = outcomes["sgn"][0]
        details["validating_variant"] = "abs" if ok_abs and not ok_sgn else (
            "sgn" if ok_sgn and not ok_abs else "ambiguous")
        passed = ok_abs != ok_sgn   # exactly one variant must validate
        margin = dev_abs if ok_abs else outcomes["sgn"][1]
    else:
        details["validating_variant"] = "abs" if ok_abs else "none"
        passed = ok_abs
        margin = dev_abs
    return Verdict(e.name, e.comparison, passed, margin, e.tolerance, details)


def _run_hirota(e: Experiment) -> Verdict:
    spec = e.spec
    alpha = e.opt("alpha", 8.0)
    beta = e.opt("beta", 10.0)
    cutoffs = e.opt("cutoffs", (8, 10, 12, 14))
    min_factor = e.opt("min_factor", 2.0)
    charge = spec.n_eff
    charges = [charge - 1, charge, charge + 1, charge + 2]
    rels = []
    for w in cutoffs:
        fam = ts.tau_charge_family(spec, charges, w)
        rels.append(ts.hirota_residual(fam, spec.L, spec.t, alpha, beta).relative)
    factors = [rels[i] / max(rels[i + 1], 1e-300) for i in range(len(rels) - 1)]
    monotone = all(rels[i + 1] < rels[i] for i in range(len(rels) - 1))
    passed = monotone and all(f >= min_factor for f in factors)
    return Verdict(e.name, e.comparison, passed, min(factors), e.tolerance,
                   {"residuals": rels, "decay_factors": factors,
                    "alpha": alpha, "beta": beta, "cutoffs": list(cutoffs)})


def _run_group_integral(e: Experiment) -> Verdict:
    group = e.opt("group", "orthogonal")
    size = e.opt("size", 3)
    t = CouplingSeq(e.opt("t", (0.2,)))
    predicates = e.opt("predicates", ())
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


def _run_discrete(e: Experiment) -> Verdict:
    kind = e.spec.kind
    trials = e.opt("trials", 50)
    rng = np.random.default_rng(e.seed)
    worst = 0.0
    t = CouplingSeq(e.opt("t", (0.07, -0.03)))
    for trial in range(trials):
        n = 1 + trial % 3
        L = int(rng.integers(0, 3))
        n_atoms = int(rng.integers(max(2, n), 7))
        # wide separation keeps the confluent Vandermonde factors away from
        # the cancellation floor of the Pfaffian side
        xs = _separated(rng, n_atoms, gap=0.3)
        reals = list(zip(xs, rng.uniform(0.3, 1.2, size=n_atoms)))
        pairs = None
        if kind in ("GinOE", "GinSE"):
            res = _separated(rng, 4, lo=-1.2, hi=1.2, gap=0.3)
            pairs = [(complex(a, b), w) for a, b, w in
                     zip(res, rng.uniform(0.2, 1.0, size=4), rng.uniform(0.3, 1.2, size=4))]
        lhs, rhs, scale = orc.discrete_consistency(kind, reals, n, L, t,
                                                   pair_atoms=pairs, with_scale=True)
        worst = max(worst, abs(lhs - rhs) / scale)
    return Verdict(e.name, e.comparison, worst < e.tolerance, worst, e.tolerance,
                   {"trials": trials, "worst_rel": worst})


def _separated(rng, count, lo=-1.4, hi=1.4, gap=0.05):
    """Sorted random points with guaranteed pairwise separation."""
    slack = (hi - lo) - gap * (count - 1)
    if slack <= 0:
        raise ValueError("separation gap does not fit the interval")
    u = np.sort(rng.uniform(0.0, slack, size=count))
    return (lo + u + gap * np.arange(count)).tolist()


def _run_wave(e: Experiment) -> Verdict:
    spec = e.spec
    points = e.opt("points", (2.0, 3.0, 5.0))
    cut_lo = e.opt("cutoff_low", max(6, e.cutoff - 4))
    rep_hi = ts.wave_polynomial_check(spec, e.cutoff, points, s_ratio_fn=_s_ratio_fn(spec))
    rep_lo = ts.wave_polynomial_check(spec, cut_lo, points)
    # both deviations can sit at the rounding floor, where their order is noise
    passed = (rep_hi.fit_deviation_t < e.tolerance
              and rep_hi.fit_deviation_t <= max(rep_lo.fit_deviation_t, WAVE_FIT_FLOOR))
    details = {"fit_deviation": rep_hi.fit_deviation_t,
               "fit_deviation_lower_cutoff": rep_lo.fit_deviation_t,
               "fit_deviation_s_side": rep_hi.fit_deviation_s,
               "two_sided_gap": rep_hi.two_sided_gap}
    return Verdict(e.name, e.comparison, passed, rep_hi.fit_deviation_t, e.tolerance, details)


def _s_ratio_fn(spec: EnsembleSpec):
    if not spec.s.top_index() or spec.n > 3 or spec.family not in ("orth", "sympl"):
        return None
    base = orc.eigen_integral(spec).value
    power = 2 if spec.family == "sympl" else 1

    def ratio(lam: float) -> complex:
        # exact insertion prod_i (1 - lam/x_i)^power; the s-coupling keeps
        # the origin out of play, so the inverse powers are integrable
        def extra_real(x):
            return (1.0 - lam / x) ** power

        def extra_pair(z):
            return ((1.0 - lam / z) * (1.0 - lam / np.conj(z))) ** power

        return orc.eigen_integral(spec, 1e-9, extra_real, extra_pair).value / base

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


_RUNNERS = {
    "series-vs-oracle-ratio": _run_series_vs_oracle,
    "closed-form-anchor": _run_anchor,
    "reality": _run_reality,
    "ginse-structure": _run_ginse_structure,
    "kernel-vs-oracle": _run_kernel,
    "hirota-decay": _run_hirota,
    "group-series-vs-mc": _run_group_integral,
    "discrete-exact": _run_discrete,
    "wave-poly": _run_wave,
    "bimoment-vs-direct": _run_bimoment,
}


def run_experiment(e: Experiment) -> Verdict:
    runner = _RUNNERS.get(e.comparison)
    if runner is None:
        return Verdict(e.name, e.comparison, False, math.inf, e.tolerance,
                       error=f"unknown comparison kind {e.comparison!r}")
    try:
        return runner(e)
    except (ValidationError, QuadratureError, ValueError) as exc:
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
    out = []
    for kind in ("OE", "SE", "GinSE", "GinOE"):
        for n in (1, 2):
            for L in (0, 1):
                for label, t in (("tA", T_A), ("tB", T_B)):
                    out.append(Experiment(
                        name=f"ratio-{kind}-N{n}-L{L}-{label}",
                        comparison="series-vs-oracle-ratio",
                        spec=EnsembleSpec(kind, n, L, t),
                        tolerance=1e-4, cutoff=cutoff))
    for kind in ("OE", "SE"):
        out.append(Experiment(
            name=f"ratio-{kind}-N1-L0-sNZ", comparison="series-vs-oracle-ratio",
            spec=EnsembleSpec(kind, 1, 0, T_A, S_NZ), tolerance=1e-3, cutoff=cutoff))
    return out


def acceptance_experiments(samples: int = 100000, seed: int = 42) -> list[Experiment]:
    """The named desk-scale suite behind the acceptance gate."""
    exps: list[Experiment] = [
        Experiment("ginse-moment-structure", "ginse-structure",
                   spec=EnsembleSpec("GinSE", 2), tolerance=1e-6, params=(("size", 8),)),
    ]
    exps += ratio_experiments(cutoff=12)
    exps.append(Experiment("anchor-SE-N1-exp", "closed-form-anchor",
                           spec=EnsembleSpec("SE", 1, 0, T_A), tolerance=1e-6, cutoff=12))
    for kind in ("OE", "SE", "GinOE", "GinSE"):
        exps.append(Experiment(f"discrete-{kind}", "discrete-exact",
                               spec=EnsembleSpec(kind, 1), tolerance=1e-10,
                               seed=seed, params=(("trials", 50),)))
    for kind in ("SE", "OE"):
        exps.append(Experiment(f"kernel-{kind}-N2", "kernel-vs-oracle",
                               spec=EnsembleSpec(kind, 2 if kind == "OE" else 1, 0, CouplingSeq.of(0.2)),
                               tolerance=1e-4,
                               params=(("p", (0.1, -0.1)), ("p_ref", (0.08, -0.06)))))
    exps.append(Experiment("group-O3", "group-series-vs-mc", cutoff=8, samples=samples,
                           seed=seed,
                           params=(("group", "orthogonal"), ("size", 3), ("t", (0.2,)),
                                   ("predicates", (((2,), 1.0), ((1,), 0.0), ((1, 1), 0.0))))))
    exps.append(Experiment("group-Sp2", "group-series-vs-mc", cutoff=8, samples=samples,
                           seed=seed + 7,
                           params=(("group", "symplectic"), ("size", 2), ("t", (0.2,)),
                                   ("predicates", (((1, 1), 1.0), ((2,), 0.0), ((1,), 0.0))))))
    exps.append(Experiment("hirota-SE", "hirota-decay", spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2)),
                           params=(("alpha", 8.0), ("beta", 10.0), ("min_factor", 2.0))))
    exps.append(Experiment("hirota-GinOE", "hirota-decay",
                           spec=EnsembleSpec("GinOE", 2, 0, CouplingSeq.of(0.1)),
                           params=(("alpha", 8.0), ("beta", 10.0), ("min_factor", 2.0))))
    exps.append(Experiment("bimoment-GinUE-N2", "bimoment-vs-direct",
                           spec=EnsembleSpec("GinUE", 2, 0, CouplingSeq.of(0.2),
                                             t_bar=CouplingSeq.of(0.2)),
                           tolerance=1e-5))
    for kind, n in (("OE", 2), ("SE", 1), ("GinSE", 1), ("GinOE", 2)):
        exps.append(Experiment(f"reality-{kind}-N{n}", "reality",
                               spec=EnsembleSpec(kind, n, 0, T_B), tolerance=1e-8, cutoff=10))
    exps.append(Experiment("wave-SE-N1", "wave-poly", spec=EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2)),
                           tolerance=1e-4, cutoff=12, params=(("points", (2.0, 3.0, 5.0)),)))
    return exps
