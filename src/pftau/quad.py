"""Deterministic quadrature backends: line panels, polar plane grids, supports.

Nothing here knows an ensemble kind: the eigenvalue weights, and the
validator that guards them, live with `moments.EnsembleSpec`.  Everything
here is panel Gauss-Legendre: grids are pure functions of their arguments,
each level doubles the panel count (past the half plane's cheap first
rule), and reductions run in a fixed order,
so results are reproducible bit for bit.  No Monte Carlo.
`converge` is the one refinement loop: every quadrature number either
meets its tolerance there or raises `QuadratureError`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .partitions import _frozen
from .skewlin import _cmul


class QuadratureError(RuntimeError):
    def __init__(self, message: str, best: complex = 0.0, residual: float = math.inf):
        super().__init__(message)
        self.best = best
        self.residual = residual


def converge(build, rel_tol: float, max_level: int = 5, zero_floor: float = 0.0):
    """Evaluate build(0), build(1), ... until two successive levels agree.

    Returns (value, residual) once max|cur - prev| <= rel_tol * max|cur|, or
    once both fall below `zero_floor` (a table that is zero up to noise).
    Raises QuadratureError with the finest value and its residual when no
    two levels up to `max_level` agree.
    """
    if max_level < 1:
        raise ValueError(f"converge needs max_level >= 1 to compare two levels, got {max_level}")
    prev = build(0)
    for level in range(1, max_level + 1):
        cur = build(level)
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        delta = float(np.max(np.abs(cur - prev)))
        if delta <= rel_tol * scale or (scale < zero_floor and delta < zero_floor):
            return cur, delta
        prev = cur
    raise QuadratureError(f"no convergence by level {max_level} (residual {delta:.3e})",
                          best=cur, residual=delta)


def power_table(x: np.ndarray, exponents) -> np.ndarray:
    """x**k for each integer k in `exponents` (negative allowed), one row each, of
    the shape of x.

    Running products: x^k = x^(k-1) * x upward from x^0 = 1 and
    x^-k = x^-(k-1) * (1/x) downward, so x^0, x^1 and x^-1 are exact and x^k
    is within about |k| ulps.  Complex products round each real product on
    its own (`skewlin._cmul`), so their bits do not follow NumPy's SIMD path.
    """
    ks = np.asarray(exponents, dtype=int)
    lo, hi = int(ks.min(initial=0)), int(ks.max(initial=0))
    table = np.empty((hi - lo + 1,) + x.shape, dtype=x.dtype)
    mul = _cmul if np.iscomplexobj(x) else np.multiply
    table[-lo] = 1.0
    for k in range(1, hi + 1):
        mul(table[k - 1 - lo], x, out=table[k - lo])
    if lo < 0:
        inv = 1.0 / x
        table[-lo - 1] = inv
        for k in range(2, -lo + 1):
            mul(table[1 - k - lo], inv, out=table[-k - lo])
    return table[ks - lo]


@lru_cache(maxsize=32)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = npleg.leggauss(order)
    return x, w


@lru_cache(maxsize=32)
def _cumulative_matrix(order: int) -> np.ndarray:
    """Q with (Q @ v)[j] = int_{-1}^{x_j} p(x) dx for the GL interpolant of v."""
    x, _ = _gl_rule(order)
    vand = npleg.legvander(x, order - 1)
    basis_coeffs = np.linalg.inv(vand)            # column i: Legendre coeffs of ell_i
    ci = npleg.legint(basis_coeffs, axis=0)
    at_nodes = npleg.legval(x, ci)                # shape (basis, node)
    at_left = npleg.legval(-1.0, ci)              # shape (basis,)
    return (at_nodes - at_left[:, None]).T        # shape (node, basis)


def _panel_nodes(panels: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl_rule(order)
    a = panels[:, 0][:, None]
    b = panels[:, 1][:, None]
    half = (b - a) / 2.0
    nodes = (a + b) / 2.0 + half * x[None, :]
    weights = half * w[None, :]
    return nodes.ravel(), weights.ravel()


class LinePanels:
    """Composite GL panels on a line, with spectral cumulative integration.

    Its arrays are read-only, so one rule can serve every caller of a pass."""

    def __init__(self, breakpoints: np.ndarray, order: int = 24):
        bp = np.array(breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = _frozen(bp)
        self.order = order
        self.panels = _frozen(np.column_stack([bp[:-1], bp[1:]]))
        self.nodes, self.weights = map(_frozen, _panel_nodes(self.panels, order))

    @property
    def n_panels(self) -> int:
        return len(self.panels)

    def integrate(self, values: np.ndarray):
        """The weighted sum along the last axis: a complex for one row of node
        values, an array with one sum per row for a (rows, nodes) stack."""
        total = np.sum(self.weights * values, axis=-1)
        return complex(total) if total.ndim == 0 else total

    def cumulative(self, values: np.ndarray) -> np.ndarray:
        """int_{x_min}^{x} of the panelwise interpolant, at every node, along the
        last axis: one row of node values or a (rows, nodes) stack."""
        v = np.asarray(values)
        v = v.reshape(v.shape[:-1] + (self.n_panels, self.order))
        half = (self.panels[:, 1] - self.panels[:, 0]) / 2.0
        q = _cumulative_matrix(self.order)
        # a BLAS product: elementwise, with _orth_block's on panels, tau-series peak RSS rose 9%
        local = (v @ q.T) * half[:, None]
        _, wstd = _gl_rule(self.order)
        totals = (v * wstd).sum(axis=-1) * half
        # the exclusive running sum of the panel totals; cumsum - totals rounds differently
        offsets = np.concatenate([np.zeros(totals.shape[:-1] + (1,)),
                                  np.cumsum(totals, axis=-1)[..., :-1]], axis=-1)
        return (local + offsets[..., None]).reshape(v.shape[:-2] + (-1,))


def _geometric_breakpoints(inner: float, outer: float, per_octave: int = 1) -> np.ndarray:
    n = max(int(math.ceil(math.log2(outer / inner))) * per_octave, 1)
    return inner * (outer / inner) ** (np.arange(n + 1) / n)


def real_line_breakpoints(halfwidth: float, n_center: int = 12,
                          inner_cut: float | None = None, level: int = 0) -> np.ndarray:
    """Panel breakpoints on [-R, R]; inner_cut clusters panels toward 0."""
    scale = 2 ** level
    if inner_cut is None:
        return np.linspace(-halfwidth, halfwidth, n_center * scale + 1)
    pos = _geometric_breakpoints(inner_cut, halfwidth, per_octave=scale)
    return np.concatenate([-pos[::-1], pos])


@dataclass(frozen=True)
class QuadratureGrid:
    """Polar tensor-product rule: nodes and positive weights on a plane domain.

    Node i * len(angles) + j is radii[i] e^{i angles[j]} with weight
    radial_weights[i] * angle_weights[j]; radial_weights carry the Jacobian r.
    The flat `nodes` and `weights` are formed on first use: the moment
    contractions read only the polar factors.  Every array is read-only, so one
    grid can serve every caller of a pass.  Grids of one domain and one
    `angle_rule`, (theta panels, order), have the same angles.
    """

    domain: str                       # "half-plane" | "full-plane"
    radii: np.ndarray
    radial_weights: np.ndarray
    angles: np.ndarray
    angle_weights: np.ndarray
    angle_rule: tuple

    def __post_init__(self):
        if np.any(self.radial_weights <= 0) or np.any(self.angle_weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        if self.domain == "half-plane" and (np.any(self.radii <= 0) or np.any(self.angles <= 0)
                                            or np.any(self.angles >= math.pi)):
            raise ValueError("half-plane nodes must have positive imaginary part")
        for a in (self.radii, self.radial_weights, self.angles, self.angle_weights):
            _frozen(a)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _frozen((self.radii[:, None] * np.exp(1j * self.angles[None, :])).ravel())

    @cached_property
    def weights(self) -> np.ndarray:
        return _frozen((self.radial_weights[:, None] * self.angle_weights[None, :]).ravel())


def _polar_grid(domain: str, theta_max: float, radius: float, n_r: int, r_order: int,
                n_theta: int, t_order: int, level: int) -> QuadratureGrid:
    scale = 2 ** level
    rb = np.linspace(0.0, radius, n_r * scale + 1)
    r_nodes, r_w = _panel_nodes(np.column_stack([rb[:-1], rb[1:]]), r_order)
    tb = np.linspace(0.0, theta_max, n_theta * scale + 1)
    t_nodes, t_w = _panel_nodes(np.column_stack([tb[:-1], tb[1:]]), t_order)
    return QuadratureGrid(domain, r_nodes, r_w * r_nodes, t_nodes, t_w,
                          (n_theta * scale, t_order))


def angular_table(grid: QuadratureGrid, width: int) -> np.ndarray:
    """cos and sin of k * angle for k = -width..width at the grid's angles: a
    (2, angles, 2 * width + 1) array, k in column width + k."""
    phase = np.outer(grid.angles, np.arange(-width, width + 1))
    return np.stack([np.cos(phase), np.sin(phase)])


def polar_gram(grid: QuadratureGrid, f: np.ndarray, rows, cols,
               trig=angular_table) -> np.ndarray:
    """out[n, m] = sum_p weights[p] f[p] z[p]**rows[n] conj(z[p])**cols[m].

    On a polar grid z^a zbar^b = r^(a+b) e^{i(a-b)theta}, so the sum is one
    angular product over the range of differences a - b, one radial product
    over the range of sums a + b, and a gather; no per-node power table.
    `f` is flat or (radii, angles); it is contracted with one real (angles, 2 *
    differences) operand of cosines and sines, read from `trig(grid, width)`, an
    `angular_table` out to at least the largest |a - b|, so both products stay real
    (a complex `f`: the gram of f.real plus 1j times that of f.imag).
    """
    if np.iscomplexobj(f):
        real, imag = (polar_gram(grid, part, rows, cols, trig) for part in (f.real, f.imag))
        return real + 1j * imag
    rows = np.asarray(rows)[:, None]
    cols = np.asarray(cols)[None, :]
    s_lo, s_hi = rows.min() + cols.min(), rows.max() + cols.max()
    d_lo, d_hi = rows.min() - cols.max(), rows.max() - cols.min()
    f = np.reshape(f, (len(grid.radii), len(grid.angles))) * grid.angle_weights
    radial = grid.radial_weights * power_table(grid.radii, np.arange(s_lo, s_hi + 1))
    table = trig(grid, max(-d_lo, d_hi))
    mid = table.shape[-1] // 2
    diffs = slice(mid + d_lo, mid + d_hi + 1)
    parts = radial @ (f @ np.concatenate([table[0][:, diffs], table[1][:, diffs]], axis=1))
    n = d_hi - d_lo + 1
    out = parts[:, :n] + 1j * parts[:, n:]
    return out[rows + cols - s_lo, rows - cols - d_lo]


def half_plane_grid(radius: float, level: int = 0) -> QuadratureGrid:
    """Polar tensor grid over the upper half-plane, d^2 z = dRe z dIm z.

    Level 0 is a cheap confirming rule, 3 radial and 3 angular panels of order 16
    (2304 nodes); level l >= 1 is 4 radial panels of order 20 by 3 angular ones of
    order 24 (5760 nodes), with both panel counts doubled l - 1 times.  So a table
    that `converge` accepts at level 1 is the 5760-node one."""
    if level == 0:
        return _polar_grid("half-plane", math.pi, radius, 3, 16, 3, 16, 0)
    return _polar_grid("half-plane", math.pi, radius, 4, 20, 3, 24, level - 1)


def full_plane_grid(radius: float, n_r: int = 4, r_order: int = 20,
                    n_theta: int = 4, t_order: int = 24, level: int = 0) -> QuadratureGrid:
    return _polar_grid("full-plane", 2 * math.pi, radius, n_r, r_order, n_theta, t_order, level)


def gaussian_halfwidth(gauss: float, lin: float = 0.0, maxdeg: int = 0) -> float:
    """Cutoff R with gauss*R^2 - |lin|*R - maxdeg*log(1+R) >= 42."""
    if gauss <= 0:
        raise ValueError("need a positive Gaussian coefficient")
    r = max(2.0, math.sqrt(42.0 / gauss))
    for _ in range(200):
        if gauss * r * r - abs(lin) * r - maxdeg * math.log1p(r) >= 42.0:
            return r
        r *= 1.125
    raise ValueError("runaway support radius")
