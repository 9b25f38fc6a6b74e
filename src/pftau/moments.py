"""Skew moment pairs (A, a), kernel matrices, and complex bimoments.

The moment tables never see the t-couplings: t enters through the Schur
series (and through kernel/oracle weights).  The s-couplings, the matrix
half-width and the quadrature level fully determine a table, which makes
them cacheable.

Sector conventions, fixed once here and mirrored exactly by the oracle
module (see `oracle.discrete_consistency` for the finite proof):

* real orthogonal sector   R[n,m] = sgn-weighted double moment, already skew;
* orthogonal border        a[n] = sqrt(2) * single moment with its Gaussian;
* symplectic line sector   A[n,m] = (n-m)/2 * single moment of x^(n+m-1);
* quaternion half-plane    A = (raw - raw^T)/2 with the literal (z - zbar)
                           inside raw, which lands on real entries;
* real-Ginibre half-plane  C = (raw - raw^T)/(2i): the erfc-weighted raw
                           moments have an imaginary skew part, and dividing
                           by i is what matches the positive (|Delta|-style)
                           eigenvalue sectors and keeps tau values real.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .quad import (LinePanels, QuadratureError, converge, half_plane_grid, full_plane_grid,
                   gaussian_halfwidth, real_line_breakpoints, erfc_vec, polar_gram,
                   power_table)
from .skewlin import SkewPair
from .symfun import CouplingSeq, ZERO_SEQ, potential

# family and default (alpha, beta) mix of every ensemble kind
KINDS = {"OE": ("orth", (0.0, 1.0)), "SE": ("sympl", (0.0, 1.0)),
         "GinOE": ("orth", (1.0, 1.0)), "GinSE": ("sympl", (1.0, 0.0)),
         "GinUE": ("unitary", (0.0, 0.0))}
# (gauss, mult) of one eigenvalue weight e^{-gauss x^2 + mult (V(x,t) - V(1/x,s))}:
# a real eigenvalue of each family, and a conjugate pair, whose weight is
# e^{2 Re V} times e^{-|z|^2} (GinSE) or erfc(sqrt(2) Im z) e^{-Re z^2} <= e^{-|z|^2} (GinOE)
WEIGHT_CONSTANTS = {"orth": (0.5, 1.0), "sympl": (1.0, 2.0), "pair": (1.0, 2.0)}

# Part of every table key, in memory and on disk.  Bump it whenever a change
# moves the numbers a table holds: its quadrature rule, level schedule or
# tolerance, its sector convention, or its layout.  Entries stored under any
# other value are never served.
TABLE_ALGORITHM = "tables-4"
TABLE_BUILDS = 0
_SECTOR_CACHE: dict = {}
_DISK_CACHE = None


def clear_cache() -> None:
    _SECTOR_CACHE.clear()


def set_disk_cache(store) -> None:
    """Install a persistent table store (see cli.MomentCache); None disables."""
    global _DISK_CACHE
    _DISK_CACHE = store


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Validation:
    ok: bool
    reason: str | None = None

    def require(self) -> None:
        if not self.ok:
            raise ValidationError(self.reason or "rejected deformation parameters")


@dataclass(frozen=True)
class EnsembleSpec:
    """One deformed-ensemble problem instance."""

    kind: str
    n: int
    L: int = 0
    t: CouplingSeq = ZERO_SEQ
    s: CouplingSeq = ZERO_SEQ
    alpha: float | None = None
    beta: float | None = None
    # second coupling family and determinant exponent of the complex ensemble
    L2: int = 0
    t_bar: CouplingSeq = ZERO_SEQ
    s_bar: CouplingSeq = ZERO_SEQ

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 0:
            raise ValueError("matrix size index must be >= 0")
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if v is not None and not 0.0 <= float(v) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def mix(self) -> tuple[float, float]:
        """(alpha, beta) with per-kind defaults filled in."""
        da, db = KINDS[self.kind][1]
        return (da if self.alpha is None else float(self.alpha),
                db if self.beta is None else float(self.beta))

    @property
    def family(self) -> str:
        return KINDS[self.kind][0]

    @property
    def n_eff(self) -> int:
        """Pfaffian/charge size: partitions run over length <= n_eff."""
        return 2 * self.n if self.family == "sympl" else self.n

    def validate(self) -> Validation:
        """Sufficient (not necessary) decay test for the ensemble integrals.

        Checks the leading exponent at infinity against the Gaussian, the
        behaviour at the origin produced by the s-couplings and the
        determinant power, and refuses any s-deformation of a complex sector.
        """
        if self.kind == "GinUE":
            reason = _full_plane_check(self)
        else:
            complex_sector = self.kind in ("GinOE", "GinSE") and self.mix[0] != 0
            line = WEIGHT_CONSTANTS[self.family]
            reason = (_tail_growth_check(self.t, complex_sector,
                                         *(WEIGHT_CONSTANTS["pair"] if complex_sector else line))
                      or _origin_check(self.s, self.L, complex_sector))
            if reason is None and complex_sector and self.family == "orth":
                # the real sector of the mixed ensemble keeps its own constraints
                reason = (_tail_growth_check(self.t, False, *line)
                          or _origin_check(self.s, self.L, False))
        return Validation(reason is None, reason)


def _tail_growth_check(t: CouplingSeq, complex_sector: bool, gauss0: float,
                       mult: float) -> str | None:
    if not t.is_real():
        return "deformation couplings must be real"
    k = t.top_index()
    if k == 0 or k == 1:
        return None
    t2 = mult * float(t.entry(2).real)
    # Re(t_k z^k) grows like +|t_k| r^k along some ray of a complex sector,
    # so there both signs of t_2 eat into the Gaussian.
    gauss_eff = gauss0 - (abs(t2) if complex_sector else max(t2, 0.0))
    if gauss_eff <= 0.0:
        return f"quadratic coupling t_2={t.entry(2)} overwhelms the Gaussian"
    if k == 2:
        return None
    # Degrees >= 3 are admissible in two ways: an even negative top degree
    # decays on its own on the real line, and otherwise the growing part
    # must stay far below the Gaussian out to the quadrature support
    # (which admits the small tails of truncated Miwa shifts).
    risky = []
    for n in range(3, k + 1):
        tn = float(t.entry(n).real)
        if tn == 0.0:
            continue
        if not complex_sector and n % 2 == 0 and tn < 0.0:
            continue
        risky.append(n)
    if not risky:
        return None
    radius = gaussian_halfwidth(gauss_eff, mult * abs(float(t.entry(1).real)), 6)
    growth = sum(mult * abs(float(t.entry(n).real)) * radius ** n for n in risky)
    if growth <= 0.1 * gauss_eff * radius * radius:
        return None
    kk = max(risky)
    if complex_sector:
        return f"degree-{kk} coupling outruns the Gaussian on some ray of the complex sector"
    if kk % 2 == 1:
        return f"odd top degree {kk} grows at +infinity"
    return f"positive top degree {kk} grows at infinity"


def _origin_check(s: CouplingSeq, L: int, complex_sector: bool) -> str | None:
    if not s.is_real():
        return "deformation couplings must be real"
    k = s.top_index()
    if complex_sector and k != 0:
        return ("s-deformation diverges near 0 along some phase ray of the "
                "complex sector; only s = 0 is admissible there")
    if k == 0:
        if L < 0:
            return f"L={L} puts a pole at the origin and s = 0 cannot damp it"
        return None
    if k % 2 == 1:
        return f"odd top s-index {k} blows up on one side of the origin"
    if float(s.entry(k).real) <= 0:
        return f"nonpositive top s-coefficient s_{k} blows up at the origin"
    return None


def _full_plane_check(spec: EnsembleSpec) -> str | None:
    """The GinUE weight e^{V(z,t) + V(zbar,t') - |z|^2} z^L zbar^{-L2} over the plane."""
    for name, seq in (("s", spec.s), ("s'", spec.s_bar)):
        if seq.top_index() != 0:
            return f"{name} != 0 blows up near 0 on some ray of the full plane"
    for name, seq in (("t", spec.t), ("t'", spec.t_bar)):
        k = seq.top_index()
        if k > 2:
            return f"degree-{k} {name}-coupling outruns the full-plane Gaussian"
        if k == 2 and abs(seq.entry(2)) >= 0.5:
            return f"|{name}_2| >= 1/2 overwhelms the full-plane Gaussian"
        if not seq.is_real():
            return "couplings must be real"
    if spec.L2 - spec.L >= 2:
        return "antiholomorphic determinant power too negative at the origin"
    return None


# ---------------------------------------------------------------------------
# the one-variable rules shared with the oracle module: each picks the support
# of its integrals and evaluates the weight there

def clip_support(radius: float, poles, gauss: float, lin: float, maxdeg: int,
                 need: float = 26.0) -> float:
    """Shrink a cutoff radius below the nearest pole, if the tail is negligible."""
    if not poles:
        return radius
    rp = 0.92 * min(abs(float(q)) for q in poles if q != 0)
    if rp >= radius:
        return radius
    if gauss * rp * rp - lin * rp - maxdeg * math.log1p(rp) < need:
        raise QuadratureError(
            f"pole at distance {rp / 0.92:.3g} sits inside the numerically effective support")
    return rp


def line_rule(family: str, t: CouplingSeq, s: CouplingSeq, maxdeg: int, level: int,
              poles=None) -> tuple[LinePanels, np.ndarray]:
    """Real-line panels for integrands up to degree `maxdeg`, and the weight at their nodes.

    The per-eigenvalue weight is e^{-x^2/2 + V(x,t) - V(1/x,s)} on the
    orthogonal line and e^{-x^2 + 2V(x,t) - 2V(1/x,s)} on the symplectic one.
    """
    gauss0, mult = WEIGHT_CONSTANTS[family]
    gauss = gauss0 - mult * float(t.entry(2)) if t.top_index() >= 2 else gauss0
    lin = mult * abs(float(t.entry(1))) if t.top_index() else 0.0
    deg = max(maxdeg, 2)
    halfwidth = clip_support(gaussian_halfwidth(gauss, lin, deg), poles, gauss, lin, deg)
    inner = None
    ks = s.top_index()
    if ks:
        inner = min((abs(mult * float(s.entry(ks))) / 60.0) ** (1.0 / ks), 0.3)
    lp = LinePanels(real_line_breakpoints(halfwidth, n_center=12, inner_cut=inner, level=level))
    x = lp.nodes
    e = -gauss0 * x * x
    if t.top_index():
        e = e + mult * potential(x, t)
    if s.top_index():
        e = e - mult * potential(1.0 / x, s)
    return lp, np.exp(e)


def _pair_rule(kind: str, t: CouplingSeq, s: CouplingSeq, maxdeg: int, level: int,
               poles=None) -> tuple[quad.QuadratureGrid, np.ndarray]:
    """Half-plane grid for pair integrands up to degree `maxdeg`, and the pair weight there.

    The weight of one conjugate pair (z, zbar) is e^{-|z|^2} (GinSE) or
    erfc(sqrt(2) Im z) e^{-Re z^2} (GinOE), times e^{2 Re(V(z,t) - V(1/z,s))}.
    It comes back as a real (radii, angles) array built from polar factors:
    with z = r e^{i theta} every term of the exponent is a radial vector
    times an angular one, -r^2 (or -r^2 cos 2 theta), 2 t_k r^k cos k theta
    and -2 s_k r^-k cos k theta.
    """
    if kind not in ("GinSE", "GinOE"):
        raise ValueError(f"no pair weight for kind {kind!r}")
    # uniform radial bound e^{-r^2}: direct for GinSE, via erfc(u) <= e^{-u^2} for GinOE
    gauss0, mult = WEIGHT_CONSTANTS["pair"]
    gauss = gauss0 - mult * abs(float(t.entry(2)))
    lin = mult * abs(float(t.entry(1)))
    radius = clip_support(gaussian_halfwidth(gauss, lin, maxdeg), poles, gauss, lin, maxdeg)
    grid = half_plane_grid(radius, level=level)
    r, theta = grid.radii, grid.angles
    e = np.multiply.outer(-r * r, np.ones_like(theta) if kind == "GinSE" else np.cos(2.0 * theta))
    for sign, seq, rk in ((mult, t, r), (-mult, s, 1.0 / r)):
        rpow = 1.0
        for k, v in enumerate(seq.values, start=1):
            rpow = rpow * rk
            if v != 0:
                e += np.multiply.outer(sign * float(v) * rpow, np.cos(k * theta))
    np.exp(e, out=e)
    if kind == "GinOE":
        e *= erfc_vec(np.multiply.outer(math.sqrt(2.0) * r, np.sin(theta)))
    return grid, e


def pair_moments(kind: str, t: CouplingSeq, s: CouplingSeq, exps, level: int,
                 extra=None, poles=None) -> np.ndarray:
    """T[a, b] = int z^a zbar^b W_pair(z) [extra(z)] d^2 z over the upper half-plane.

    a and b run over `exps`; W_pair is the weight of `_pair_rule`.
    """
    exps = np.asarray(exps)
    grid, w = _pair_rule(kind, t, s, 2 * int(np.max(np.abs(exps))) + 2, level, poles)
    if extra is not None:
        w = w * np.reshape(extra(grid.nodes), w.shape)
    return polar_gram(grid, w, exps, exps)


def _sector_key(name: str, s: CouplingSeq, base: int, size: int) -> tuple:
    return (TABLE_ALGORITHM, name, s.values, base, size)


def _cached_sector(name: str, s: CouplingSeq, base: int, size: int, build):
    key = _sector_key(name, s, base, size)
    hit = _SECTOR_CACHE.get(key)
    if hit is not None:
        return hit
    if _DISK_CACHE is not None:
        stored = _DISK_CACHE.load(key)
        if stored is not None:
            _SECTOR_CACHE[key] = stored
            return stored
    global TABLE_BUILDS
    TABLE_BUILDS += 1
    table, _ = converge(build, rel_tol=5e-10)
    _SECTOR_CACHE[key] = table
    if _DISK_CACHE is not None:
        _DISK_CACHE.store(key, table)
    return table


def orth_real_sector(s: CouplingSeq, base: int, size: int) -> np.ndarray:
    """R[n,m] = iint x^n y^m sgn(x-y) w0(x) w0(y); skew up to quadrature noise."""
    idx = np.arange(base, base + size)

    def build(level):
        lp, wv = line_rule("orth", ZERO_SEQ, s, int(np.max(np.abs(idx))) + 1, level)
        powers = power_table(lp.nodes, idx)
        cums = np.stack([lp.cumulative(powers[m] * wv) for m in range(size)])
        totals = np.array([lp.integrate(powers[m] * wv) for m in range(size)]).real
        inner = 2.0 * cums - totals[:, None]
        powers *= lp.weights * wv
        r = powers @ inner.T
        return (r - r.T) / 2.0

    return _cached_sector("orth_real", s, base, size, build)


def orth_border(s: CouplingSeq, base: int, size: int) -> np.ndarray:
    idx = np.arange(base, base + size)

    def build(level):
        lp, wv = line_rule("orth", ZERO_SEQ, s, int(np.max(np.abs(idx))) + 1, level)
        powers = power_table(lp.nodes, idx)
        return math.sqrt(2.0) * powers @ (lp.weights * wv)

    return _cached_sector("orth_border", s, base, size, build)


def sympl_sector(s: CouplingSeq, base: int, size: int) -> np.ndarray:
    """A[n,m] = (n-m)/2 * mu_{n+m-1} with symplectic-line single moments mu."""
    idx = np.arange(base, base + size)
    qmin, qmax = 2 * base - 1, 2 * (base + size - 1) - 1
    qs = np.arange(qmin, qmax + 1)

    def build(level):
        lp, wv = line_rule("sympl", ZERO_SEQ, s, int(max(abs(qmin), abs(qmax))) + 1, level)
        powers = power_table(lp.nodes, qs)
        mu = powers @ (lp.weights * wv)
        n = idx[:, None]
        m = idx[None, :]
        return (n - m) / 2.0 * mu[(n + m - 1) - qmin]

    return _cached_sector("sympl_line", s, base, size, build)


def sympl_border_moments(s: CouplingSeq, base: int, size: int) -> np.ndarray:
    """Plain single moments of the symplectic-line weight.

    Not an ensemble datum (that border vanishes); used to extend a
    symplectic skew matrix to odd charges so the difference bilinear
    identity has nonvacuous members.
    """
    idx = np.arange(base, base + size)

    def build(level):
        lp, wv = line_rule("sympl", ZERO_SEQ, s, int(np.max(np.abs(idx))) + 1, level)
        powers = power_table(lp.nodes, idx)
        return powers @ (lp.weights * wv)

    return _cached_sector("sympl_border", s, base, size, build).astype(complex)


def ginse_complex_sector(s: CouplingSeq, base: int, size: int) -> np.ndarray:
    idx = np.arange(base, base + size)

    def build(level):
        raw = pair_moments("GinSE", ZERO_SEQ, s, idx, level, extra=lambda z: z - np.conj(z))
        return (raw - raw.T) / 2.0
    return _cached_sector("ginse_complex", s, base, size, build)


def ginoe_complex_sector(s: CouplingSeq, base: int, size: int) -> np.ndarray:
    idx = np.arange(base, base + size)

    def build(level):
        raw = pair_moments("GinOE", ZERO_SEQ, s, idx, level)
        return (raw - raw.T) / 2.0j
    return _cached_sector("ginoe_complex", s, base, size, build)


def moment_pair(spec: EnsembleSpec, size: int, base: int | None = None) -> SkewPair:
    """The skew pair (A, a) feeding every Pfaffian coefficient of the series."""
    spec.validate().require()
    if base is None:
        base = min(0, spec.L)
    alpha, beta = spec.mix
    if spec.family == "orth":
        a_mat = np.zeros((size, size), dtype=complex)
        if beta != 0.0:
            a_mat = a_mat + beta * orth_real_sector(spec.s, base, size)
        if alpha != 0.0:
            a_mat = a_mat + alpha * ginoe_complex_sector(spec.s, base, size)
        border = beta * orth_border(spec.s, base, size).astype(complex)
    elif spec.family == "sympl":
        a_mat = np.zeros((size, size), dtype=complex)
        if beta != 0.0:
            a_mat = a_mat + beta * sympl_sector(spec.s, base, size)
        if alpha != 0.0:
            a_mat = a_mat + alpha * ginse_complex_sector(spec.s, base, size)
        border = np.zeros(size, dtype=complex)
    else:
        raise ValueError("moment_pair serves the Pfaffian ensembles, not GinUE")
    a_mat = (a_mat - a_mat.T) / 2.0
    return SkewPair(a_mat, border, index_base=base)


# ---------------------------------------------------------------------------
# kernel matrices of the determinant-average identity

@dataclass
class KernelMatrix:
    points: np.ndarray
    kstar: np.ndarray
    k: np.ndarray
    kind: str
    variant: str = "abs"


def _check_points(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if len(np.unique(p)) != len(p):
        raise ValueError("kernel points must be distinct (coincident p gives a zero prefactor)")
    return p


def kernel_matrix(spec: EnsembleSpec, p, variant: str = "abs") -> KernelMatrix:
    """K*_nm by quadrature and K_nm = (p_m - p_n) K*_nm.

    `variant` selects |x-y| (as displayed for the kernels) or sgn(x-y) in
    the real double integral; the sgn variant integrates an antisymmetric
    function and is kept only so the experiment can record that it fails.
    """
    p = _check_points(p)
    spec.validate().require()
    if spec.kind in ("OE", "GinOE"):
        kstar = _kernel_real_block(spec, p, variant)
        if spec.kind == "GinOE":
            kstar = kstar + _kernel_pair_block(spec, p)
    elif spec.kind == "GinSE":
        kstar = _kernel_pair_block(spec, p)
    elif spec.kind == "SE":
        kstar = _kernel_se(spec, p)
    else:
        raise ValueError(f"no kernel for kind {spec.kind!r}")
    kk = (p[None, :] - p[:, None]) * kstar
    return KernelMatrix(p, kstar, kk, spec.kind, variant)


def _inv_points(p: np.ndarray) -> list[float]:
    return [1.0 / float(v) for v in p if v != 0]


def _kernel_se(spec: EnsembleSpec, p: np.ndarray) -> np.ndarray:
    def build(level):
        lp, w = line_rule("sympl", spec.t, spec.s, 2 * abs(spec.L) + 4, level, _inv_points(p))
        x = lp.nodes
        inv = 1.0 / np.stack([(1.0 - x * pi) ** 2 for pi in p])
        return (inv * (w * x ** (2 * spec.L) * lp.weights)) @ inv.T

    return converge(build, rel_tol=5e-10)[0]


def _kernel_real_block(spec: EnsembleSpec, p: np.ndarray, variant: str) -> np.ndarray:
    def build(level):
        lp, w = line_rule("orth", spec.t, spec.s, abs(spec.L) + 4, level, _inv_points(p))
        x = lp.nodes
        base_vals = w * x ** spec.L
        dens = np.stack([1.0 - x * pi for pi in p])
        out = np.empty((len(p), len(p)))
        for a in range(len(p)):
            for b in range(len(p)):
                g = base_vals / (dens[a] * dens[b])
                c0 = lp.cumulative(g)
                if variant == "abs":
                    # iint |x-y| g g = 2 int g(x) [x C0(x) - C1(x)] dx
                    c1 = lp.cumulative(x * g)
                    out[a, b] = 2.0 * np.sum(lp.weights * g * (x * c0 - c1))
                else:
                    # sgn variant integrates an antisymmetric function
                    tot0 = np.sum(lp.weights * g)
                    out[a, b] = np.sum(lp.weights * g * (2.0 * c0 - tot0))
        return out

    return converge(build, rel_tol=2e-9, zero_floor=1e-10 if variant != "abs" else 0.0)[0]


def _kernel_pair_block(spec: EnsembleSpec, p: np.ndarray) -> np.ndarray:
    # GinSE: (z - zbar)^2 from Delta and the pair weight, and det(1 - p X)^{-1}
    # on a quaternion pair inserts each factor twice, as on the SE line.
    # GinOE: (z - zbar)/i = 2 Im z, the pair norm 1/(2i) times the 2 that the
    # real block's unordered double integral carries.
    quaternion = spec.kind == "GinSE"

    def build(level):
        grid, w = _pair_rule(spec.kind, spec.t, spec.s, 4 * abs(spec.L) + 6, level,
                             _inv_points(p))
        z = grid.nodes
        zb = np.conj(z)
        gap = (z - zb) ** 2 if quaternion else (z - zb) / 1j
        dens = np.stack([(1.0 - z * pi) * (1.0 - zb * pi) for pi in p])
        inv = 1.0 / (dens ** 2 if quaternion else dens)
        return (inv * (grid.weights * w.ravel() * np.abs(z) ** (2 * spec.L) * gap)) @ inv.T

    return converge(build, rel_tol=2e-9)[0]


def kernel_prefactor(p: np.ndarray, L: int) -> float:
    """prod p_i^{(L+1)(2-N)} / prod_{i>j} (p_i - p_j) of the Pfaffian identity."""
    p = np.asarray(p, dtype=float)
    n = len(p)
    num = float(np.prod(p ** ((L + 1) * (2 - n))))
    den = 1.0
    for i in range(n):
        for j in range(i):
            den *= p[i] - p[j]
    return num / den


# ---------------------------------------------------------------------------
# complex (GinUE) bimoments

def ginue_weight(spec: EnsembleSpec):
    """(log_w, gauss, lin): log_w(z) = V(z,t) + V(zbar,t') - |z|^2, the log of the
    GinUE weight of one eigenvalue, and the Gaussian and linear rates that
    bound its decay."""
    gauss = 1.0 - abs(float(spec.t.entry(2))) - abs(float(spec.t_bar.entry(2)))
    lin = abs(float(spec.t.entry(1))) + abs(float(spec.t_bar.entry(1)))

    def log_w(z):
        e = -np.abs(z) ** 2
        if spec.t.top_index():
            e = e + potential(z, spec.t)
        if spec.t_bar.top_index():
            e = e + potential(np.conj(z), spec.t_bar)
        return e

    return log_w, gauss, lin


def complex_bimoment_matrix(spec: EnsembleSpec, size: int) -> np.ndarray:
    """M_jk = int z^{j-1+L1} zbar^{k-1-L2} e^{V(z,t)+V(zbar,t') - |z|^2} d^2 z."""
    if spec.kind != "GinUE":
        raise ValueError("bimoments are specific to the complex Ginibre ensemble")
    spec.validate().require()
    jpow = np.arange(size) + spec.L
    kpow = np.arange(size) - spec.L2
    log_w, gauss, lin = ginue_weight(spec)

    def build(level):
        radius = gaussian_halfwidth(gauss, lin, 2 * size + abs(spec.L) + abs(spec.L2) + 2)
        grid = full_plane_grid(radius, level=level)
        # e stays alive through the contraction: freeing it first reorders the
        # large allocations and raised the acceptance suite's peak RSS by 2 MB
        e = log_w(grid.nodes)
        return polar_gram(grid, np.exp(e), jpow, kpow)

    return converge(build, rel_tol=2e-9)[0]
