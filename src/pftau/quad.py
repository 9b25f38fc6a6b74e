"""Deterministic quadrature backends: line panels, polar plane grids, supports.

Nothing here knows an ensemble kind: the eigenvalue weights, and the
validator that guards them, live with `moments.EnsembleSpec`.  Everything
here is panel Gauss-Legendre: grids are pure functions of their arguments,
each level doubles the panel count, and reductions run in a fixed order,
so results are reproducible bit for bit.  No Monte Carlo.
`converge` is the one refinement loop: every quadrature number either
meets its tolerance there or raises `QuadratureError`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.special import erfc as erfc_vec



class QuadratureError(RuntimeError):
    def __init__(self, message: str, best: complex = 0.0, residual: float = math.inf):
        super().__init__(message)
        self.best = best
        self.residual = residual


def converge(build, rel_tol: float, max_level: int = 4, zero_floor: float = 0.0):
    """Evaluate build(0), build(1), ... until two successive levels agree.

    Returns (value, residual) once max|cur - prev| <= rel_tol * max|cur|, or
    once both fall below `zero_floor` (a table that is zero up to noise).
    Raises QuadratureError with the finest value and its residual when no
    two levels up to `max_level` agree.
    """
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
    """x**k for each integer k in `exponents` (negative allowed), one row each."""
    out = np.empty((len(exponents), len(x)), dtype=x.dtype)
    for row, k in zip(out, exponents):
        row[...] = x ** int(k)
    return out


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
    """Composite GL panels on a line, with spectral cumulative integration."""

    def __init__(self, breakpoints: np.ndarray, order: int = 24):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bp
        self.order = order
        self.panels = np.column_stack([bp[:-1], bp[1:]])
        self.nodes, self.weights = _panel_nodes(self.panels, order)

    @property
    def n_panels(self) -> int:
        return len(self.panels)

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))

    def cumulative(self, values: np.ndarray) -> np.ndarray:
        """int_{x_min}^{x} of the panelwise interpolant, at every node."""
        v = np.asarray(values).reshape(self.n_panels, self.order)
        half = (self.panels[:, 1] - self.panels[:, 0]) / 2.0
        q = _cumulative_matrix(self.order)
        local = (v @ q.T) * half[:, None]
        _, wstd = _gl_rule(self.order)
        totals = (v * wstd[None, :]).sum(axis=1) * half
        offsets = np.concatenate([[0.0], np.cumsum(totals)[:-1]])
        return (local + offsets[:, None]).ravel()


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
    """

    domain: str                       # "half-plane" | "full-plane"
    nodes: np.ndarray
    weights: np.ndarray
    radii: np.ndarray
    radial_weights: np.ndarray
    angles: np.ndarray
    angle_weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        if self.domain == "half-plane" and np.any(np.imag(self.nodes) <= 0):
            raise ValueError("half-plane nodes must have positive imaginary part")


def _polar_grid(domain: str, theta_max: float, radius: float, n_r: int, r_order: int,
                n_theta: int, t_order: int, level: int) -> QuadratureGrid:
    scale = 2 ** level
    rb = np.linspace(0.0, radius, n_r * scale + 1)
    r_nodes, r_w = _panel_nodes(np.column_stack([rb[:-1], rb[1:]]), r_order)
    tb = np.linspace(0.0, theta_max, n_theta * scale + 1)
    t_nodes, t_w = _panel_nodes(np.column_stack([tb[:-1], tb[1:]]), t_order)
    r_w = r_w * r_nodes
    z = r_nodes[:, None] * np.exp(1j * t_nodes[None, :])
    w = r_w[:, None] * t_w[None, :]
    return QuadratureGrid(domain, z.ravel(), w.ravel(), r_nodes, r_w, t_nodes, t_w)


def polar_gram(grid: QuadratureGrid, f: np.ndarray, rows, cols) -> np.ndarray:
    """out[n, m] = sum_p weights[p] f[p] z[p]**rows[n] conj(z[p])**cols[m].

    On a polar grid z^a zbar^b = r^(a+b) e^{i(a-b)theta}, so the sum is one
    angular product over the distinct differences a - b, one radial product
    over the distinct sums a + b, and a gather; no per-node power table.
    """
    rows = np.asarray(rows)[:, None]
    cols = np.asarray(cols)[None, :]
    shape = (rows.size, cols.size)
    sums, at_sum = np.unique(rows + cols, return_inverse=True)
    diffs, at_diff = np.unique(rows - cols, return_inverse=True)
    f = np.reshape(f, (len(grid.radii), len(grid.angles)))
    angular = (f * grid.angle_weights) @ np.exp(1j * np.outer(grid.angles, diffs))
    radial = (grid.radial_weights * grid.radii ** sums[:, None]) @ angular
    return radial[at_sum.reshape(shape), at_diff.reshape(shape)]


def half_plane_grid(radius: float, n_r: int = 8, r_order: int = 20,
                    n_theta: int = 6, t_order: int = 24, level: int = 0) -> QuadratureGrid:
    """Polar tensor grid over the upper half-plane; d^2 z = dRe z dIm z."""
    return _polar_grid("half-plane", math.pi, radius, n_r, r_order, n_theta, t_order, level)


def full_plane_grid(radius: float, n_r: int = 8, r_order: int = 20,
                    n_theta: int = 8, t_order: int = 24, level: int = 0) -> QuadratureGrid:
    return _polar_grid("full-plane", 2 * math.pi, radius, n_r, r_order, n_theta, t_order, level)


def gaussian_halfwidth(gauss: float, lin: float = 0.0, maxdeg: int = 0,
                       tail: float = 42.0) -> float:
    """Cutoff R with gauss*R^2 - |lin|*R - maxdeg*log(1+R) >= tail."""
    if gauss <= 0:
        raise ValueError("need a positive Gaussian coefficient")
    r = max(2.0, math.sqrt(tail / gauss))
    for _ in range(200):
        if gauss * r * r - abs(lin) * r - maxdeg * math.log1p(r) >= tail:
            return r
        r *= 1.125
    raise ValueError("runaway support radius")
