"""Skew moment pairs (A, a), kernel matrices, and complex bimoments.

The moment tables never see the t-couplings: t enters through the Schur
series (and through kernel/oracle weights).  The sector, the s-couplings, the
index base and the size fully determine a table, which makes them cacheable.
At s = 0 every sector is a closed form of the plain Gaussian weight, so the
series route builds no quadrature there; at s != 0 a line sector converges its
quadrature build (`_cached_sector` picks by s alone).  The half-plane sectors
are closed forms only, and no pair weight takes s.

Sector conventions, each written once below and applied alike to the closed
forms, to quadrature measures and to the point masses of `atomic_pair`
(on which `oracle.discrete_consistency` checks the series identity exactly):

* real orthogonal sector   (R - R^T)/2 of the sgn-weighted double moment R;
* orthogonal border        a[n] = sqrt(2) * single moment with its Gaussian;
* symplectic line sector   A[n,m] = (n-m)/2 * single moment of x^(n+m-1);
* the half-plane sectors   B[a,b] = int g(z) Im(z^a zbar^b) W_pair(z) d^2 z over
                           Im z > 0, in real arithmetic:
  - real-Ginibre, g = 1:   (T - T^T)/(2i) of the pair table T[a,b] = int z^a zbar^b
                           W_pair; dividing by i matches the positive
                           (|Delta|-style) eigenvalue sectors and keeps tau real;
  - quaternion, g = -2 Im z: the skew part of int z^a zbar^b (z - zbar) W_pair,
                           the pair's (z - zbar) insertion;

then the (alpha, beta) mix of the real and complex sectors.  Every table of
`moment_pair`, `atomic_pair` and `kernel_matrix` is float64.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import quad
from .quad import (LinePanels, QuadratureError, converge, half_plane_grid, full_plane_grid,
                   gaussian_halfwidth, real_line_breakpoints, polar_gram, power_table)
from .skewlin import SkewPair
from .symfun import CouplingSeq, ZERO_SEQ, potential

# family and default (alpha, beta) mix of every ensemble kind: all a kind name means
KINDS = {"OE": ("orth", (0.0, 1.0)), "SE": ("sympl", (0.0, 1.0)),
         "GinOE": ("orth", (1.0, 1.0)), "GinSE": ("sympl", (1.0, 0.0)),
         "GinUE": ("unitary", (0.0, 0.0))}
# the ensemble fields that each family reads
_PFAFFIAN = ("n", "L", "t", "s", "alpha", "beta")
FAMILY_FIELDS = dict(orth=_PFAFFIAN, sympl=_PFAFFIAN, unitary=("n", "L", "L2", "t", "t_bar"))
# (gauss, mult) of one eigenvalue weight e^{-gauss x^2 + mult (V(x,t) - V(1/x,s))}, mult
# also counting the eigenvalues the point stands for: a real one of each family (doubled
# on the symplectic line), and a conjugate pair z, zbar, whose weight is e^{2 Re V} times
# e^{-|z|^2} (sympl) or erfc(sqrt(2) Im z) e^{-Re z^2} <= e^{-|z|^2} (orth)
WEIGHT_CONSTANTS = {"orth": (0.5, 1), "sympl": (1.0, 2), "pair": (1.0, 2)}

# Part of every table key, in memory and on disk.  Bump it whenever a change
# moves the numbers a table holds: its quadrature rule, level schedule or
# tolerance, its sector convention, its layout or its dtype.  Entries stored
# under any other value are never served.
TABLE_ALGORITHM = "tables-10"
TABLE_BUILDS = 0
_SECTOR_CACHE: dict = {}
_DISK_CACHE = None


def clear_cache() -> None:
    """Drop every memoized value of this process: moment tables (the disk cache keeps
    its copies), oracle values, pair tables and line integrals, erfc factors, Schur value
    tables, series coefficient tables, line rules (panels and weight values), plane
    quadrature grids and their angular tables."""
    _SECTOR_CACHE.clear()


def memo(key, build):
    """`_SECTOR_CACHE[key]`, or `build()` stored there first with its arrays made read-only.

    The one per-pass memo; `clear_cache` drops it.  `build()` returns an array, a tuple
    whose arrays are frozen alike, or an object that freezes its own (the `quad` rules
    do).  A moment table's `build` reads and fills the disk cache itself, so only tables
    ever reach the disk.
    """
    hit = _SECTOR_CACHE.get(key)
    if hit is None:
        hit = build()
        for part in hit if isinstance(hit, tuple) else (hit,):
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        _SECTOR_CACHE[key] = hit
    return hit


def _plane_grid(make, radius: float, *rule: int, level: int = 0) -> quad.QuadratureGrid:
    """`make(radius, *rule, level=level)`, a `quad` plane grid, built once per pass: the
    key is the builder and every argument it gets."""
    return memo(("plane_grid", make, radius, rule, level),
                lambda: make(radius, *rule, level=level))


def _angular_table(grid: quad.QuadratureGrid, width: int) -> np.ndarray:
    """`quad.angular_table` of the grid's domain and angle rule out to `width` rounded up to
    a multiple of 32, once per pass each; its columns do not depend on the width."""
    width = -(-width // 32) * 32
    return memo(("angular_table", grid.domain, grid.angle_rule, width),
                lambda: quad.angular_table(grid, width))


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

    @property
    def index_base(self) -> int:
        """Mode index of the first moment-table row: min(0, L), as a negative L reads below 0."""
        return min(0, self.L)

    def validate(self) -> Validation:
        """Sufficient (not necessary) decay test for the ensemble integrals.

        Checks the leading exponent at infinity against the Gaussian, the
        behaviour at the origin produced by the s-couplings and the
        determinant power, and refuses any s-deformation of a complex sector.
        """
        if self.family == "unitary":
            reason = _full_plane_check(self)
        else:
            complex_sector = self.mix[0] != 0
            line = WEIGHT_CONSTANTS[self.family]
            reason = (_tail_growth_check(self.t, complex_sector,
                                         *(WEIGHT_CONSTANTS["pair"] if complex_sector else line))
                      or _origin_check(self.s, self.L, complex_sector, line[1]))
            if reason is None and complex_sector and self.family == "orth":
                # the real sector of the mixed ensemble keeps its own constraints
                reason = (_tail_growth_check(self.t, False, *line)
                          or _origin_check(self.s, self.L, False, line[1]))
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


def _origin_check(s: CouplingSeq, L: int, complex_sector: bool, mult: float) -> str | None:
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
    # the line rules put no node below the inner cut, and there the weight reads x^-k and the
    # tables, the oracle and an inserted observable at most x^-(mult (|L| + 1)): none of
    # them may overflow, or a quadrature meets inf
    inner, deepest = _inner_cut(s, mult), max(k, mult * (abs(L) + 1))
    if deepest * math.log(1.0 / inner) >= math.log(sys.float_info.max):
        return (f"top s-coefficient s_{k}={float(s.entry(k).real):.3g} damps the origin only "
                f"below |x| ~ {inner:.3g}, where x^-{deepest} overflows")
    return None


def _inner_cut(s: CouplingSeq, mult: float) -> float | None:
    """The radius inside which the line rules put no node, where the s-term of the weight
    e^{-mult s_k x^-k}, k the top s-index, is e^-60 (0.3 at most); None for s = 0."""
    ks = s.top_index()
    if not ks:
        return None
    return min((abs(mult * float(s.entry(ks))) / 60.0) ** (1.0 / ks), 0.3)


def _full_plane_check(spec: EnsembleSpec) -> str | None:
    """The GinUE weight e^{V(z,t) + V(zbar,t') - |z|^2} z^L zbar^{-L2} over the plane."""
    if spec.s.top_index() != 0:
        return "s != 0 blows up near 0 on some ray of the full plane"
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

def clip_support(radius: float, poles, gauss: float, lin: float, maxdeg: int) -> float:
    """Shrink a cutoff radius below the nearest pole, if the tail beyond is under e^-26."""
    if not poles:
        return radius
    rp = 0.92 * min(abs(float(q)) for q in poles if q != 0)
    if rp >= radius:
        return radius
    if gauss * rp * rp - lin * rp - maxdeg * math.log1p(rp) < 26.0:
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
    inner = _inner_cut(s, mult)

    def build():
        lp = LinePanels(real_line_breakpoints(halfwidth, n_center=12, inner_cut=inner,
                                              level=level))
        x = lp.nodes
        e = -gauss0 * x * x
        if t.top_index():
            e = e + mult * potential(x, t)
        if s.top_index():
            e = e - mult * potential(1.0 / x, s)
        return lp, np.exp(e)

    # the rule depends on maxdeg and poles only through the support they resolve to
    return memo(("line_rule", family, t, s, halfwidth, inner, level), build)


def _pair_rule(family: str, t: CouplingSeq, maxdeg: int, level: int,
               poles=None) -> tuple[quad.QuadratureGrid, np.ndarray]:
    """Half-plane grid for pair integrands up to degree `maxdeg`, and the pair weight there.

    The weight of one conjugate pair (z, zbar) is e^{-|z|^2} (sympl) or
    erfc(sqrt(2) Im z) e^{-Re z^2} (orth), times e^{2 Re V(z,t)}; no s enters, as the
    validator admits only s = 0 where a pair sector is read.  It comes back as a real
    (radii, angles) array built from polar factors: with z = r e^{i theta} every term of
    the exponent is a radial vector times an angular one, -r^2 (or -r^2 cos 2 theta) and
    2 t_k r^k cos k theta.
    """
    if family not in ("sympl", "orth"):
        raise ValueError(f"no pair weight for family {family!r}")
    # uniform radial bound e^{-r^2}: direct for sympl, via erfc(u) <= e^{-u^2} for orth
    gauss0, mult = WEIGHT_CONSTANTS["pair"]
    gauss = gauss0 - mult * abs(float(t.entry(2)))
    lin = mult * abs(float(t.entry(1)))
    radius = clip_support(gaussian_halfwidth(gauss, lin, maxdeg), poles, gauss, lin, maxdeg)
    grid = _plane_grid(half_plane_grid, radius, level=level)
    r, theta = grid.radii, grid.angles
    e = np.multiply.outer(-r * r, np.ones_like(theta) if family == "sympl" else np.cos(2.0 * theta))
    rpow = 1.0
    for k, v in enumerate(t.values, start=1):
        rpow = rpow * r
        if v != 0:
            e += np.multiply.outer(mult * float(v) * rpow, np.cos(k * theta))
    np.exp(e, out=e)
    if family == "orth":
        e *= _orth_erfc(grid, radius, level)
    return grid, e


def _orth_erfc(grid: quad.QuadratureGrid, radius: float, level: int) -> np.ndarray:
    """erfc(sqrt(2) Im z) on the half-plane grid of (radius, level), memoized in memory only:
    `math.erfc` entry by entry, a scalar libm call that NumPy's SIMD dispatch does not reach."""
    return memo(("orth_erfc", radius, level), lambda: np.frompyfunc(math.erfc, 1, 1)(
        np.multiply.outer(math.sqrt(2.0) * grid.radii, np.sin(grid.angles))).astype(float))


def pair_moments(family: str, t: CouplingSeq, exps, level: int, extra=None,
                 poles=None) -> np.ndarray:
    """T[a, b] = int z^a zbar^b W_pair(z) [extra(z)] d^2 z over the upper half-plane.

    a and b run over `exps`; W_pair is the weight of `_pair_rule`.
    """
    exps = np.asarray(exps)
    grid, w = _pair_rule(family, t, 2 * int(np.max(np.abs(exps))) + 2, level, poles)
    if extra is not None:
        w = w * np.reshape(extra(grid.nodes), w.shape)
    return polar_gram(grid, w, exps, exps, _angular_table)


def _cached_sector(name: str, s: CouplingSeq, base: int, size: int, build, exact):
    """The memoized table of one sector: loaded from the disk cache, else built and stored
    there.  The one route decision, by s alone: at s = 0 it is `exact()`, the closed form,
    which starts at index base 0 as the validator does there; at s != 0 `converge(build)`,
    which only the line sectors have (the half-plane ones pass no `build`)."""
    if not s.top_index() and base != 0:
        raise ValueError(_origin_check(s, base, False, 1) or f"index base {base} at s = 0")
    key = (TABLE_ALGORITHM, name, s.values, base, size)

    def load_or_build():
        stored = None if _DISK_CACHE is None else _DISK_CACHE.load(key)
        if stored is not None:
            return stored
        global TABLE_BUILDS
        TABLE_BUILDS += 1
        table = converge(build, rel_tol=5e-10)[0] if s.top_index() else exact()
        if _DISK_CACHE is not None:
            _DISK_CACHE.store(key, table)
        return table

    return memo(key, load_or_build)


# ---------------------------------------------------------------------------
# the sector conventions of the module docstring, each read off one measure: a
# line (`quad.LinePanels`, or `_AtomicLine` for point masses) with the weight
# values `wv` at its nodes, its single moments `mu` (q -> int x^q w(x) dx), or
# pair atoms with their weights.  An `_AtomicLine` may be a stack of lines, and
# pair atoms a stack of measures, and then each convention gives a stack of
# tables, one per measure, stack axis first.  Sums over atoms are elementwise, not BLAS
# products, so an entry's bits are its own atoms', whatever the table size or BLAS kernel

def _orth_block(line, wv, idx: np.ndarray) -> np.ndarray:
    powers = power_table(line.nodes, idx)
    rows = powers * wv
    # int y^m w(y) sgn(x - y) dy at each node x, one row per m
    inner = 2.0 * line.cumulative(rows) - line.integrate(rows)[..., None]
    powers *= line.weights * wv
    # a stack's line axis, between the exponents and the nodes, goes first
    p, q = powers.swapaxes(0, -2), inner.swapaxes(0, -2)
    # panels keep @: elementwise, with LinePanels.cumulative's, tau-series peak RSS rose 9%
    r = (np.sum(p[..., :, None, :] * q[..., None, :, :], axis=-1) if isinstance(line, _AtomicLine)
         else p @ q.swapaxes(-1, -2))
    return (r - r.swapaxes(-1, -2)) / 2.0


def _orth_border(mu, idx: np.ndarray) -> np.ndarray:
    return math.sqrt(2.0) * mu(idx)


def _sympl_block(mu, idx: np.ndarray) -> np.ndarray:
    qmin = 2 * int(idx[0]) - 1
    moments = mu(np.arange(qmin, 2 * int(idx[-1])))
    n, m = idx[:, None], idx[None, :]
    return (n - m) / 2.0 * moments[..., (n + m - 1) - qmin]


def _line_moments(line, wv):
    """The single moments q -> int x^q w(x) dx of a line measure, for integer arrays q
    (of a stack of lines, one row of them per line): NumPy sums along the node axis."""
    weights = line.weights * wv
    return lambda q: np.sum(power_table(line.nodes, q) * weights, axis=-1).T


# the largest table every s = 0 closed form holds: the widest Gamma table they build is the
# GinSE pair sector's, out to Gamma(size + 1) = size!, the others reach at most
# Gamma(size + 1/2), and size! must be a finite float
MAX_TABLE_SIZE = next(n for n in range(sys.maxsize) if math.factorial(n + 1) > sys.float_info.max)


def _half_gammas(top: int) -> np.ndarray:
    """Gamma((k+1)/2) for k = 0..top: the one Gamma table of every closed form below."""
    return np.array([math.gamma((k + 1) / 2) for k in range(top + 1)])


def _gaussian_moments(gauss: float):
    """The single moments of the weight e^{-gauss x^2}, a line weight at t = s = 0:
    Gamma((q+1)/2) gauss^{-(q+1)/2} for even q >= 0, and exactly 0 for odd q (q >= -1)."""
    def mu(q):
        q = np.asarray(q)
        gammas = _half_gammas(max(int(q.max()), 0))[np.maximum(q, 0)]
        return np.where(q % 2 == 0, gammas * gauss ** (-(q + 1) / 2), 0.0)
    return mu


def _erf_sums(size: int):
    """(e, o, heads, tails, (o-1)!!) for the two sgn and erfc sectors at s = 0.

    e and o are the even and the odd indices below `size`.  With the positive terms
    t_j(e) = Gamma(j + (e+1)/2) / (2^j j!), whose sum over j >= 0 is sqrt(2 pi) (e-1)!!,
    heads[p] = sum_{j <= p} t_j and tails[p] = sum_{j >= p} t_j, one column per e.  Up to
    j = size/2 each term is read off the Gamma table; past it, it is the one before times
    (2j - 1 + e) / 4j, out to j = 2 size + 63, where every tail has converged."""
    gammas = _half_gammas(2 * size)
    e, o = np.arange(0, size, 2), np.arange(1, size, 2)
    j = np.arange(size // 2 + 1)[:, None]
    terms = gammas[2 * j + e] / np.ldexp(gammas[2 * j + 1], j)
    k = np.arange(size // 2 + 1, 2 * size + 64)[:, None]
    terms = np.vstack([terms, terms[-1] * np.cumprod((2 * k - 1 + e) / (4.0 * k), axis=0)])
    return (e, o, np.cumsum(terms, axis=0), np.cumsum(terms[::-1], axis=0)[::-1],
            np.ldexp(gammas[o], (o - 1) // 2))


def _goe_real_table(size: int) -> np.ndarray:
    """The real orthogonal sector at s = 0, R[n, m] = iint x^n y^m e^{-(x^2+y^2)/2}
    sgn(x - y) dx dy, n, m < size.  By parity R vanishes unless n + m is odd, and for even e and
    odd o, where the inner int_x^inf y^o e^{-y^2/2} dy integrates by parts down to
    e^{-x^2/2}, R[e, o] = -2 (o-1)!! heads[(o-1)/2](e) of `_erf_sums`: no entry cancels."""
    e, o, heads, _, double_fact = _erf_sums(size)
    r = np.zeros((size, size))
    r[np.ix_(e, o)] = -2.0 * double_fact * heads[(o - 1) // 2].T
    return r - r.T


def _ginoe_pair_table(size: int) -> np.ndarray:
    """The real-Ginibre half-plane sector at s = 0, C = (T - T^T) / 2i of
    T[a, b] = int_{Im z > 0} z^a zbar^b erfc(sqrt(2) Im z) e^{-Re z^2} d^2 z, a, b < size.

    Reflecting z -> -zbar and conjugating leave the weight alone, so C vanishes unless
    a + b is odd, and there C = Im T, real.  Its integration-by-parts recursion
    T[a+1, b] = a T[a-1, b] + (i/2) (c S[a, b] - M[a+b]) from T[0, 1] (c = 2 sqrt(2/pi),
    S the plain pair table and M the moments of e^{-x^2}) sums, for odd o and even e, to
    C[o, e] = -(o-1)!! heads[(o-1)/2](e) / 2 if o < e; if o > e the diagonal source adds
    the whole sum, which leaves (o-1)!! tails[(o+1)/2](e) / 2 of `_erf_sums`.  Each entry
    is thus a sum of positive terms, where the forward recursion cancels."""
    e, o, heads, tails, double_fact = _erf_sums(size)
    c = np.zeros((size, size))
    c[np.ix_(o, e)] = 0.5 * double_fact[:, None] * np.where(
        o[:, None] > e, tails[(o + 1) // 2], -heads[(o - 1) // 2])
    return c - c.T


def _pair_sector(family: str, z: np.ndarray, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """B[..., a, b] = sum of w g Im(z^a zbar^b) over the pair atoms z (Im z > 0) of weights w
    along the last axis, a, b in `idx`: the half-plane convention of the module docstring,
    g = 1 (orth) or -2 Im z (sympl).  As Im(z^a zbar^b) = Im z^a Re z^b - Re z^a Im z^b,
    B = S - S^T of one real table S."""
    pz = power_table(z, idx).swapaxes(0, -2)
    wg = w if family == "orth" else -2.0 * z.imag * w
    s = np.sum((pz.imag * wg[..., None, :])[..., :, None, :] * pz.real[..., None, :, :], axis=-1)
    return s - s.swapaxes(-1, -2)


def _ginse_pair_table(size: int) -> np.ndarray:
    """The quaternion half-plane sector at s = 0, a, b < size: with W_pair = e^{-|z|^2} the
    angular integral of Im(z^a zbar^b) Im z vanishes unless |a - b| = 1, so
    C[a, a+1] = -C[a+1, a] = Gamma(a + 2) pi / 2 and every other entry is 0."""
    c = np.zeros((size, size))
    a = np.arange(size - 1)
    c[a, a + 1] = 0.5 * _half_gammas(2 * size + 1)[2 * a + 3] * math.pi
    return c - c.T


def _mix(spec: EnsembleSpec, shape: tuple, line, pair) -> np.ndarray:
    """beta * line() + alpha * pair() of blocks of `shape`; a block of weight 0 is not built."""
    alpha, beta = spec.mix
    out = np.zeros(shape)
    if beta != 0.0:
        out = out + beta * line()
    if alpha != 0.0:
        out = out + alpha * pair()
    return out


def _mixed_pair(spec: EnsembleSpec, shape: tuple, real, pair, border) -> SkewPair:
    """Skew part of the `_mix` of real() and pair(), border beta * border() (None: zero);
    the orthogonal border is built whatever beta is."""
    a_mat = _mix(spec, shape, real, pair)
    vec = np.zeros(shape[:-1]) if border is None else spec.mix[1] * border()
    return SkewPair((a_mat - a_mat.swapaxes(-1, -2)) / 2.0, vec, index_base=spec.index_base)


def _moment_sector(name: str, family: str, convention, s: CouplingSeq, base: int, size: int,
                   top: int | None = None) -> np.ndarray:
    """convention(mu, idx) of the single moments of the family's line weight: by quadrature
    up to the power `top`, and at s = 0 of the Gaussian moments in closed form."""
    idx = np.arange(base, base + size)
    top = int(np.max(np.abs(idx))) if top is None else top   # largest |power| read
    return _cached_sector(
        name, s, base, size,
        lambda level: convention(_line_moments(*line_rule(family, ZERO_SEQ, s, top + 1, level)),
                                 idx),
        lambda: convention(_gaussian_moments(WEIGHT_CONSTANTS[family][0]), idx))


def orth_real_sector(s: CouplingSeq, base: int, size: int) -> np.ndarray:
    idx = np.arange(base, base + size)
    top = int(np.max(np.abs(idx)))   # largest |power| read
    return _cached_sector("orth_real", s, base, size, lambda level: _orth_block(
        *line_rule("orth", ZERO_SEQ, s, top + 1, level), idx), lambda: _goe_real_table(size))


def orth_border(s: CouplingSeq, base: int, size: int) -> np.ndarray:
    return _moment_sector("orth_border", "orth", _orth_border, s, base, size)


def sympl_sector(s: CouplingSeq, base: int, size: int) -> np.ndarray:
    top = max(abs(2 * base - 1), abs(2 * (base + size - 1) - 1))
    return _moment_sector("sympl_line", "sympl", _sympl_block, s, base, size, top)


def sympl_border_moments(s: CouplingSeq, base: int, size: int) -> np.ndarray:
    """Plain single moments of the symplectic-line weight.

    Not an ensemble datum (that border vanishes); used to extend a
    symplectic skew matrix to odd charges so the difference bilinear
    identity has nonvacuous members.
    """
    return _moment_sector("sympl_border", "sympl", lambda mu, idx: mu(idx), s, base, size)


def ginse_complex_sector(size: int) -> np.ndarray:
    """A closed form only: the validator admits s = 0 alone where a complex sector enters."""
    return _cached_sector("ginse_complex", ZERO_SEQ, 0, size, None, lambda: _ginse_pair_table(size))


def ginoe_complex_sector(size: int) -> np.ndarray:
    """A closed form only, as `ginse_complex_sector`."""
    return _cached_sector("ginoe_complex", ZERO_SEQ, 0, size, None, lambda: _ginoe_pair_table(size))


def moment_pair(spec: EnsembleSpec, size: int) -> SkewPair:
    """The skew pair (A, a) feeding every Pfaffian coefficient of the series."""
    spec.validate().require()
    if size > MAX_TABLE_SIZE:
        raise ValueError(f"a moment table of {size} rows is past the {MAX_TABLE_SIZE} the "
                         f"tables hold: past it the s = 0 closed forms overflow a Gamma value")
    if spec.family == "unitary":
        raise ValueError("moment_pair serves the Pfaffian ensembles, not GinUE")
    args = (spec.s, spec.index_base, size)
    orth = spec.family == "orth"
    return _mixed_pair(spec, (size, size),
                       lambda: (orth_real_sector if orth else sympl_sector)(*args),
                       lambda: (ginoe_complex_sector if orth else ginse_complex_sector)(size),
                       (lambda: orth_border(*args)) if orth else None)


class _AtomicLine:
    """Point masses as a line measure, or a stack of such lines: nodes and weights of
    shape (..., atoms).  `cumulative` at an atom sums the atoms below it plus half its own
    term, so 2 * cumulative - integrate is the sgn sum.  Both act along the last axis of
    `values`, as on `quad.LinePanels`, a stack's lines along the axis before it."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        self.nodes, self.weights = nodes, weights
        self._below = (nodes[..., :, None] > nodes[..., None, :]).astype(float)

    integrate = LinePanels.integrate

    def cumulative(self, values: np.ndarray) -> np.ndarray:
        v = self.weights * values
        return np.sum(self._below * v[..., None, :], axis=-1) + v / 2.0


def _by_count(measures, dtype, build) -> np.ndarray:
    """build(points, weights) of the measures [(point, weight)] with equal atom counts, as
    (measures, atoms) arrays of `dtype` and float, stacked back in the order of `measures`:
    every sum over atoms has the length it has for the measure alone, and so its bits."""
    counts = np.array([len(m) for m in measures])
    groups = [np.flatnonzero(counts == c) for c in np.unique(counts)]
    blocks = [build(np.array([[x for x, _ in measures[i]] for i in g], dtype=dtype),
                    np.array([[w for _, w in measures[i]] for i in g], dtype=float))
              for g in groups]
    return np.concatenate(blocks)[np.argsort(np.concatenate(groups))]


def atomic_pair(spec: EnsembleSpec, trials, size: int) -> SkewPair:
    """The (A, a) of point masses by the conventions of `moment_pair`, one per trial
    [(real_atoms, pair_atoms)] in a stack: `real_atoms` [(x, w)] stand for the weight of
    one real eigenvalue, `pair_atoms` [(z, w)], Im z > 0, for that of one conjugate pair
    (None: no atoms); the spec gives the family, mix and index base, t and s do not enter.
    The trials with equal atom counts are built as one stack of measures."""
    if spec.family == "unitary":
        raise ValueError("atomic_pair serves the Pfaffian ensembles, not GinUE")
    base = spec.index_base
    idx = np.arange(base, base + size)
    reals = [list(r or ()) for r, _ in trials]
    orth = spec.family == "orth"

    def line(block):
        return _by_count(reals, float, lambda x, w: block(_AtomicLine(x, w)))

    return _mixed_pair(spec, (len(trials), size, size),
                       lambda: line(lambda ln: _orth_block(ln, 1.0, idx) if orth
                                    else _sympl_block(_line_moments(ln, 1.0), idx)),
                       lambda: _by_count([list(p or ()) for _, p in trials], complex,
                                         lambda z, w: _pair_sector(spec.family, z, w, idx)),
                       (lambda: line(lambda ln: _orth_border(_line_moments(ln, 1.0), idx)))
                       if orth else None)


# ---------------------------------------------------------------------------
# kernel matrices of the determinant-average identity

def _check_points(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if len(np.unique(p)) != len(p):
        raise ValueError("kernel points must be distinct (coincident p gives a zero prefactor)")
    return p


def kernel_matrix(spec: EnsembleSpec, p) -> np.ndarray:
    """K with K_nm = (p_m - p_n) K*_nm by quadrature.

    K* = beta (the family's line block) + alpha (the pair block); the orthogonal line
    block integrates |x-y| (as displayed for the kernels).
    """
    p = _check_points(p)
    spec.validate().require()
    if spec.family == "unitary":
        raise ValueError(f"no kernel for kind {spec.kind!r}")
    line = _kernel_orth_line if spec.family == "orth" else _kernel_sympl_line
    gaps = p[None, :] - p[:, None]
    return gaps * _mix(spec, gaps.shape, lambda: line(spec, p),
                       lambda: _kernel_pair_block(spec, p))


def _inv_points(p: np.ndarray) -> list[float]:
    return [1.0 / float(v) for v in p if v != 0]


def _kernel_sympl_line(spec: EnsembleSpec, p: np.ndarray) -> np.ndarray:
    def build(level):
        lp, w = line_rule("sympl", spec.t, spec.s, 2 * abs(spec.L) + 4, level, _inv_points(p))
        x = lp.nodes
        inv = 1.0 / np.stack([(1.0 - x * pi) ** 2 for pi in p])
        return np.sum((inv * (w * x ** (2 * spec.L) * lp.weights))[:, None, :] * inv, axis=-1)

    return converge(build, rel_tol=5e-10)[0]


def _kernel_orth_line(spec: EnsembleSpec, p: np.ndarray) -> np.ndarray:
    def build(level):
        lp, w = line_rule("orth", spec.t, spec.s, abs(spec.L) + 4, level, _inv_points(p))
        x = lp.nodes
        dens = np.stack([1.0 - x * pi for pi in p])
        g = (w * x ** spec.L) / (dens[:, None] * dens[None, :])   # (a, b, node)
        # iint |x-y| g g = 2 int g(x) [x C0(x) - C1(x)] dx
        c0 = lp.cumulative(g)
        c1 = lp.cumulative(x * g)
        return 2.0 * np.sum(lp.weights * g * (x * c0 - c1), axis=-1)

    return converge(build, rel_tol=2e-9)[0]


def _kernel_pair_block(spec: EnsembleSpec, p: np.ndarray) -> np.ndarray:
    # det(1 - p X)^{-1} holds z and zbar once each: (1 - p z)^{-1} (1 - p zbar)^{-1} =
    # |1 - p z|^-2 per pair in both families.  The pair's own factor is (z - zbar)^2 =
    # -4 (Im z)^2 (sympl: from Delta and the pair weight) or (z - zbar)/i = 2 Im z (orth:
    # the pair norm 1/(2i) times the 2 that the line block's unordered double integral
    # carries).  All real, with x, y = Re z, Im z.
    def build(level):
        grid, w = _pair_rule(spec.family, spec.t, 4 * abs(spec.L) + 6, level, _inv_points(p))
        x, y = grid.nodes.real, grid.nodes.imag
        gap = -4.0 * y * y if spec.family == "sympl" else 2.0 * y
        inv = 1.0 / np.stack([(1.0 - pi * x) ** 2 + (pi * y) ** 2 for pi in p])
        weighted = inv * (grid.weights * w.ravel() * (x * x + y * y) ** spec.L * gap)
        return np.sum(weighted[:, None, :] * inv, axis=-1)

    return converge(build, rel_tol=2e-9)[0]


def kernel_prefactor(p: np.ndarray) -> float:
    """1 / Delta(p) = 1 / prod_{i>j} (p_i - p_j) of the Pfaffian identity, with as many
    points as the charge (Cauchy's determinant, then de Bruijn's integration).

    ValueError where it is not finite: points so close that Delta(p) underflows."""
    p = np.asarray(p, dtype=float)
    den = 1.0
    for i in range(len(p)):
        for j in range(i):
            den *= p[i] - p[j]
    with np.errstate(divide="ignore", over="ignore"):
        out = 1.0 / den
    if not np.isfinite(out):
        raise ValueError(f"kernel points {tuple(p.tolist())} nearly coincide: 1 / Delta(p) "
                         f"= 1 / {float(den):.3g} is not finite")
    return out


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
    if spec.family != "unitary":
        raise ValueError("bimoments are specific to the complex Ginibre ensemble")
    spec.validate().require()
    jpow = np.arange(size) + spec.L
    kpow = np.arange(size) - spec.L2
    log_w, gauss, lin = ginue_weight(spec)

    def build(level):
        radius = gaussian_halfwidth(gauss, lin, 2 * size + abs(spec.L) + abs(spec.L2) + 2)
        grid = _plane_grid(full_plane_grid, radius, level=level)
        return polar_gram(grid, np.exp(log_w(grid.nodes)), jpow, kpow, _angular_table)

    return converge(build, rel_tol=2e-9)[0]
