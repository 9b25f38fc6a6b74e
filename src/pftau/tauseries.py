"""Truncated Schur-series tau functions, group-integral series, bilinear
difference residuals, and wave-function polynomiality checks.

A series value is sum_lambda Abar_{h(lambda)}(L) s_lambda(t) over partitions
of weight <= cutoff and length <= charge.  With the moment conventions of
`moments`, this equals the plain eigenvalue integral times the fixed
constant sqrt(2)^(charge mod 2) (the border normalization); all
deformation-ratio comparisons are insensitive to it.

The residual check covers the four-term difference form of the bilinear
identity only; the contour-integral form needs residue extraction in an
auxiliary variable and is out of scope here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .moments import EnsembleSpec, memo, moment_pair, sympl_border_moments
from .partitions import (Partition, _frozen, conjugate, enumerate_partitions,
                         is_even_partition, partition_table)
from .skewlin import SkewPair, abar
from .symfun import CouplingSeq, ZERO_SEQ, hseq, miwa_shift, schur_from_h


@dataclass
class TauApprox:
    """Truncated tau series: `terms[k]` is the Pfaffian coefficient of `lams[k]`,
    for every partition of weight <= cutoff and length <= charge in canonical
    order, the order of `partitions.partition_table(cutoff, charge)`.  `terms`
    is made read-only, so one series can serve every caller of a pass."""

    charge: int
    L: int
    cutoff: int
    terms: np.ndarray
    lams: list = field(init=False)

    def __post_init__(self):
        _frozen(self.terms)
        self.lams = enumerate_partitions(self.cutoff, self.charge)

    def term_values(self, t: CouplingSeq) -> np.ndarray:
        """coefficient * s_lambda(t) of every term."""
        return self.terms * schur_values(self.cutoff, self.charge, t)

    def evaluate(self, t: CouplingSeq) -> complex:
        """Compensated sum of the term values (fsum of a list: the same correctly
        rounded sum, without a NumPy scalar per term)."""
        vals = self.term_values(t)
        return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))


def schur_values(cutoff: int, charge: int, t: CouplingSeq) -> np.ndarray:
    """s_lambda(t) of every partition of `partition_table(cutoff, charge)`, in its order.

    One Jacobi-Trudi stack per length group over one h table.  The read-only
    result is memoized per (cutoff, charge, t) in the in-memory table cache, so
    every series of one pass at that point shares it and `moments.clear_cache()`
    forgets it; it is never written to disk.
    """
    def build():
        h = hseq(cutoff + charge + 1, t)
        table = partition_table(cutoff, charge)
        out = np.empty(len(table.shifted), dtype=h.dtype)
        for pos, parts in table.groups:
            out[pos] = schur_from_h(parts, h)
        return out

    return memo(("schur_values", cutoff, charge, t), build)


def series_terms(pair: SkewPair, charge: int, L: int | np.ndarray, cutoff: int) -> np.ndarray:
    """Coefficient of every partition, in canonical order, from one Pfaffian stack; a stack
    of pairs may take one offset L per pair (see `skewlin.abar`)."""
    return abar(partition_table(cutoff, charge).shifted, L, pair)


def required_table_size(charge: int, L: int, cutoff: int) -> int:
    """Rows of a moment table that runs from index min(0, L) to the top index
    cutoff + charge - 1 + L that the series reads."""
    return cutoff + charge + max(0, L)


def tau_series(spec: EnsembleSpec, cutoff: int) -> TauApprox:
    """Schur-series approximation of the ensemble partition function: the one-charge
    `tau_charge_family` at the spec's charge, even on the symplectic kinds, whose border is
    thus the paper's.  t never enters the moment pair, so the series is memoized per (spec
    at t = 0, cutoff): every t of one spec shares it, and `moments.clear_cache()` forgets it."""
    spec.validate().require()   # t is not in the key, so a hit must not skip its check
    return memo(("tau_series", replace(spec, t=ZERO_SEQ), cutoff),
                lambda: tau_charge_family(spec, [spec.n_eff], cutoff)[spec.n_eff])


def tau_charge_family(spec: EnsembleSpec, charges, cutoff: int) -> dict:
    """Tau series at several charges over one moment pair.

    For the symplectic-family kinds the paper's border vector vanishes, which
    makes every odd-charge member identically zero and the four-term
    difference identity vacuous; the family used for residual checks grafts
    the plain single-moment border onto the same skew matrix (any border
    yields a valid family, and even charges are untouched by it).
    """
    charges = sorted(set(int(c) for c in charges))
    if min(charges) < 0:
        raise ValueError("charges must be nonnegative")
    size = required_table_size(max(charges), spec.L, cutoff)
    pair = moment_pair(spec, size)
    if spec.family == "sympl" and any(c % 2 for c in charges):
        pair = SkewPair(pair.a_matrix, sympl_border_moments(spec.s, pair.index_base, size),
                        index_base=pair.index_base)
    return {c: TauApprox(c, spec.L, cutoff, series_terms(pair, c, spec.L, cutoff))
            for c in charges}


def group_series(group: str, n: int, t: CouplingSeq, cutoff: int) -> float:
    """Truncated character expansion of the Haar average of exp(sum t_m Tr g^m).

    orthogonal: partitions with every part even, length <= n;
    symplectic: partitions whose conjugate has every part even, length <= n
    (pass the matrix size 2n for Sp(2n)).
    """
    if group not in ("orthogonal", "symplectic"):
        raise ValueError(f"unknown group {group!r}")

    def keep(lam: Partition) -> bool:
        return is_even_partition(lam if group == "orthogonal" else conjugate(lam))

    kept = [k for k, lam in enumerate(enumerate_partitions(cutoff, n)) if lam.weight and keep(lam)]
    return math.fsum([1.0] + np.real(schur_values(cutoff, n, t)[kept]).tolist())


@dataclass
class HirotaReport:
    residual: complex
    scale: float
    charge: int

    @property
    def relative(self) -> float:
        return abs(self.residual) / max(self.scale, 1e-300)


def hirota_residual(family: dict, t: CouplingSeq, alpha: float, beta: float) -> HirotaReport:
    """LHS - RHS of the four-term difference bilinear identity at charge N.

    family maps charges N-1..N+2 to TauApprox objects built at the same
    (L, s); alpha and beta are the two shift points (distinct, nonzero).
    """
    if alpha == beta:
        raise ValueError("Hirota shift points must be distinct")
    if alpha == 0 or beta == 0:
        raise ValueError("Hirota shift points must be nonzero")
    charges = sorted(family)
    if len(charges) != 4 or charges != list(range(charges[0], charges[0] + 4)):
        raise ValueError("family must cover four consecutive charges")
    n = charges[1]
    cutoff = family[n].cutoff
    if len(levels := {tau.L for tau in family.values()}) != 1:
        raise ValueError(f"family members were built at L = {sorted(levels)}, not at one L")

    order = cutoff + charges[-1] + 1

    def sh(seq: CouplingSeq, *points: float) -> CouplingSeq:
        out = seq
        for p in points:
            out = miwa_shift(out, [(-1.0, 1.0 / p)], order=order)
        return out

    t_a = sh(t, alpha)
    t_b = sh(t, beta)
    t_ab = sh(t, alpha, beta)
    term1 = -beta / (alpha - beta) * family[n].evaluate(t_b) * family[n + 1].evaluate(t_a)
    term2 = -alpha / (beta - alpha) * family[n].evaluate(t_a) * family[n + 1].evaluate(t_b)
    term3 = (1.0 / (alpha * beta)) * family[n + 2].evaluate(t_ab) * family[n - 1].evaluate(t)
    rhs = family[n + 1].evaluate(t_ab) * family[n].evaluate(t)
    residual = term1 + term2 + term3 - rhs
    scale = max(abs(term1), abs(term2), abs(term3), abs(rhs))
    return HirotaReport(residual, scale, n)


@dataclass
class WaveReport:
    degree: int
    points: tuple
    fit_deviation_t: float
    fit_deviation_s: float | None


def _poly_fit_deviation(xs: np.ndarray, ys: np.ndarray, degree: int) -> float:
    coeffs = np.polynomial.polynomial.polyfit(xs, ys, degree)
    fit = np.polynomial.polynomial.polyval(xs, coeffs)
    return float(np.max(np.abs(ys - fit)) / max(np.max(np.abs(ys)), 1e-300))


def _augment_points(points, degree: int) -> np.ndarray:
    pts = sorted(float(p) for p in points)
    extra = [math.sqrt(pts[i] * pts[i + 1]) for i in range(len(pts) - 1) if pts[i] * pts[i + 1] > 0]
    pts = sorted(set(pts + extra + [1.5 * pts[-1]]))
    k = 1
    while len(pts) < degree + 3:
        pts.append(pts[-1] * (1.0 + 0.25 * k))
        k += 1
    return np.array(pts)


def wave_polynomial_check(spec: EnsembleSpec, cutoff: int, points,
                          s_ratio_fn=None) -> WaveReport:
    """Fit lambda^charge * tau(t - [1/lambda]) / tau(t) by a degree-charge polynomial.

    `s_ratio_fn(lambda)`, when given, supplies the s-side construction
    tau(t, s + [lambda]) / tau(t, s), a same-degree polynomial on the
    restricted ensemble; its fit quality is reported too.
    """
    charge = spec.n_eff
    if charge == 0:
        return WaveReport(0, tuple(points), 0.0, None)
    base_tau = tau_series(spec, cutoff)
    tau0 = base_tau.evaluate(spec.t)
    if abs(tau0) < 1e-12:
        raise ValueError("tau vanishes at base point")
    xs = _augment_points(points, charge)
    vals_t = []
    for lam in xs:
        tsh = miwa_shift(spec.t, [(1.0, 1.0 / lam)], order=cutoff + charge)
        vals_t.append(lam ** charge * base_tau.evaluate(tsh) / tau0)
    vals_t = np.array([complex(v).real for v in vals_t])
    dev_t = _poly_fit_deviation(xs, vals_t, charge)

    dev_s = None
    if s_ratio_fn is not None:
        vals_s = np.array([complex(s_ratio_fn(lam)).real for lam in xs])
        dev_s = _poly_fit_deviation(xs, vals_s, charge)
    return WaveReport(charge, tuple(float(x) for x in xs), dev_t, dev_s)
