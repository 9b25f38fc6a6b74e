"""Independent ground truth: eigenvalue-space integrals, Haar Monte Carlo,
and discrete-measure identities that hold exactly.

The eigenvalue engines expand every Vandermonde factor into monomials and
reduce the sectors to products of one-eigenvalue moments (full half-plane
for conjugate pairs, nested ordered integrals for real eigenvalues), so a
three-eigenvalue integral costs a handful of one-dimensional quadratures.

Normalization: complex-pair sectors carry one fixed constant per pair
((z - zbar)/2 for the quaternion kinds, 1/(2i) for the real-Ginibre kind),
and the symplectic line carries 1/2 per doubled eigenvalue.  With those
constants the Schur/Pfaffian series of `tauseries` equals the eigenvalue
sum times sqrt(2)^(charge mod 2) -- exactly, which is what
`discrete_consistency` certifies on atomic measures.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import moments as mom
from .moments import EnsembleSpec
from .partitions import Partition, partition_table
from .quad import LinePanels, converge, full_plane_grid, gaussian_halfwidth, power_table
from .skewlin import SkewPair, abar
from .symfun import hseq, potential, schur_from_h, schur_terms

PAIR_NORM = {"GinOE": 1.0 / 2.0j, "GinSE": 0.5}


@dataclass(frozen=True)
class OracleResult:
    value: complex
    error_estimate: float
    method: str


# ---------------------------------------------------------------------------
# multivariate monomial expansion

def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


def poly_linear(nvars: int, i: int, j: int) -> dict:
    """v_i - v_j as a monomial dict."""
    ei = tuple(1 if k == i else 0 for k in range(nvars))
    ej = tuple(1 if k == j else 0 for k in range(nvars))
    return {ei: 1.0, ej: -1.0}


def poly_monomial(nvars: int, exps: dict, coeff=1.0) -> dict:
    e = tuple(exps.get(k, 0) for k in range(nvars))
    return {e: coeff}


def vandermonde_poly(nvars: int, power: int = 1) -> dict:
    out = {tuple(0 for _ in range(nvars)): 1.0}
    for i in range(nvars):
        for j in range(i + 1, nvars):
            for _ in range(power):
                out = poly_mul(out, poly_linear(nvars, i, j))
    return out


# ---------------------------------------------------------------------------
# one-eigenvalue moment engines

class OrderedLineIntegrator:
    """Nested ordered integrals int_{x_1 > ... > x_r} prod x_i^{e_i} w(x_i)."""

    def __init__(self, lp: LinePanels, wvals: np.ndarray):
        self.lp = lp
        self.w = wvals
        self._cum: dict = {(): None}

    def _cumulative(self, suffix: tuple) -> np.ndarray:
        hit = self._cum.get(suffix)
        if hit is not None or suffix == ():
            return hit
        e = suffix[0]
        inner = self._cumulative(suffix[1:])
        vals = self.lp.nodes ** e * self.w
        if inner is not None:
            vals = vals * inner
        out = self.lp.cumulative(vals)
        self._cum[suffix] = out
        return out

    def value(self, exps: tuple) -> complex:
        if not exps:
            return 1.0
        inner = self._cumulative(tuple(exps[1:]))
        vals = self.lp.nodes ** exps[0] * self.w
        if inner is not None:
            vals = vals * inner
        return self.lp.integrate(vals)


# ---------------------------------------------------------------------------
# eigenvalue integrals

# The sector polynomials depend only on (k, n_real or m, L); each is expanded
# once and kept as an item tuple, so every sum runs in the same order.
@lru_cache(maxsize=64)
def _orth_sector_poly(k: int, n_real: int, L: int) -> tuple:
    nv = 2 * k + n_real
    poly = vandermonde_poly(nv, power=1)
    # absolute powers: |z|^{2L} per pair, x^L per real
    shift = {}
    for i in range(2 * k):
        shift[i] = L
    for j in range(n_real):
        shift[2 * k + j] = L
    return tuple(poly_mul(poly, poly_monomial(nv, shift)).items())


def _sector_value_orth(k: int, n_real: int, L: int, pair_T, ordered: OrderedLineIntegrator) -> complex:
    """One (k complex pairs, n_real reals) sector of the real-matrix family."""
    norm = PAIR_NORM["GinOE"] ** k / math.factorial(k) if k else 1.0
    total = 0.0 + 0.0j
    for exps, coeff in _orth_sector_poly(k, n_real, L):
        term = coeff
        for i in range(k):
            term = term * pair_T[exps[2 * i], exps[2 * i + 1]]
        if term == 0:
            continue
        term = term * ordered.value(exps[2 * k:])
        total += term
    return total * norm


@lru_cache(maxsize=64)
def _sympl_sector_poly(k: int, m: int, L: int) -> tuple:
    nv = 2 * k + m
    poly = {tuple(0 for _ in range(nv)): 1.0}
    # pair-pair and pair-line cross factors from the confluent Vandermonde;
    # each pair carries (z - zbar) from Delta itself and (z - zbar)/2 from
    # the pair weight
    for i in range(k):
        zi, zbi = 2 * i, 2 * i + 1
        poly = poly_mul(poly, poly_linear(nv, zi, zbi))
        poly = poly_mul(poly, poly_linear(nv, zi, zbi))
        poly = poly_mul(poly, {tuple(0 for _ in range(nv)): PAIR_NORM["GinSE"]})
        poly = poly_mul(poly, poly_monomial(nv, {zi: L, zbi: L}))
        for j in range(i + 1, k):
            zj, zbj = 2 * j, 2 * j + 1
            for a, b in ((zi, zj), (zi, zbj), (zbi, zj), (zbi, zbj)):
                poly = poly_mul(poly, poly_linear(nv, a, b))
    for j in range(m):
        xj = 2 * k + j
        poly = poly_mul(poly, poly_monomial(nv, {xj: 2 * L}, 0.5))
        for i in range(k):
            for zslot in (2 * i, 2 * i + 1):
                p = poly_linear(nv, zslot, xj)
                poly = poly_mul(poly, poly_mul(p, p))
        for j2 in range(j + 1, m):
            p = poly_linear(nv, xj, 2 * k + j2)
            p2 = poly_mul(p, p)
            poly = poly_mul(poly, poly_mul(p2, p2))
    return tuple(poly.items())


def _sector_value_sympl(k: int, m: int, L: int, pair_T, mu, mu_qmin: int) -> complex:
    """k quaternion pairs and m doubled line eigenvalues (confluent factors)."""
    norm = 1.0
    if k:
        norm /= math.factorial(k)
    if m:
        norm /= math.factorial(m)
    total = 0.0 + 0.0j
    for exps, coeff in _sympl_sector_poly(k, m, L):
        term = coeff
        for i in range(k):
            term = term * pair_T[exps[2 * i], exps[2 * i + 1]]
        for j in range(m):
            term = term * mu[exps[2 * k + j] - mu_qmin]
        total += term
    return total * norm


def _mix_weight(alpha: float, beta: float, k: int, n_real_or_m: int, family: str) -> float:
    if family == "orth":
        return alpha ** k * beta ** ((n_real_or_m + 1) // 2)
    return alpha ** k * beta ** n_real_or_m


def _eigen_value_at_level(spec: EnsembleSpec, level: int, extra_real=None,
                          extra_pair=None, poles=None) -> complex:
    if spec.family not in ("orth", "sympl"):
        raise ValueError(f"no eigenvalue oracle for kind {spec.kind!r}")
    if spec.n > 3:
        raise ValueError("eigenvalue oracle implemented for N <= 3")
    alpha, beta = spec.mix
    n, L = spec.n, spec.L

    def line(maxdeg):
        lp, w = mom.line_rule(spec.family, spec.t, spec.s, maxdeg, level, poles)
        return lp, w if extra_real is None else w * extra_real(lp.nodes)

    def pair_table(kind, maxdeg):
        return mom.pair_moments(kind, spec.t, spec.s, range(maxdeg + 1), level,
                                extra_pair, poles)

    total = 0.0 + 0.0j
    if spec.family == "orth":
        maxdeg = n - 1 + abs(L) + 1
        pair_T = None
        if alpha != 0.0 and n >= 2:
            pair_T = pair_table("GinOE", maxdeg + abs(L) + 2)
        ordered = OrderedLineIntegrator(*line(maxdeg + 2))
        for k in range(0, n // 2 + 1):
            wk = _mix_weight(alpha, beta, k, n - 2 * k, "orth")
            if wk == 0.0:
                continue
            total += wk * _sector_value_orth(k, n - 2 * k, L, pair_T, ordered)
        return total
    maxdeg = 4 * n + 2 * abs(L) + 2
    pair_T = pair_table("GinSE", maxdeg) if alpha != 0.0 else None
    mu_qmin = -2 * abs(L)
    mu_qmax = maxdeg * 2
    lp, w = line(mu_qmax + 2)
    powers = power_table(lp.nodes, range(mu_qmin, mu_qmax + 1))
    mu = powers @ (lp.weights * w)
    for k in range(0, n + 1):
        wk = _mix_weight(alpha, beta, k, n - k, "sympl")
        if wk == 0.0:
            continue
        total += wk * _sector_value_sympl(k, n - k, L, pair_T, mu, mu_qmin)
    return total


def eigen_integral(spec: EnsembleSpec, rel_tol: float = 1e-9, extra_real=None,
                   extra_pair=None, poles=None) -> OracleResult:
    """Direct eigenvalue-space value of the deformed partition function.

    `extra_real(x)` and `extra_pair(z)` multiply the weight of each real
    eigenvalue and of each conjugate pair (an inserted observable); the
    quadrature supports stay clear of `poles`.  No attempt is made to match
    absorbed volume constants; use ratios.

    A plain call (no insertion, no poles) is memoized per (spec, rel_tol) in
    the in-memory table cache, so `moments.clear_cache()` forgets it; it is
    never written to disk.
    """
    spec.validate().require()
    plain = extra_real is None and extra_pair is None and poles is None
    key = ("eigen_integral", mom.TABLE_ALGORITHM, spec, rel_tol)
    hit = mom._SECTOR_CACHE.get(key) if plain else None
    if hit is not None:
        return hit
    value, err = converge(
        lambda lvl: _eigen_value_at_level(spec, lvl, extra_real, extra_pair, poles), rel_tol)
    result = OracleResult(value, err, "quadrature")
    if plain:
        mom._SECTOR_CACHE[key] = result
    return result


def det_average_lhs(spec: EnsembleSpec, p, insert_power: int = 1,
                    rel_tol: float = 1e-9) -> OracleResult:
    """Average of prod_i det(1 - p_i X)^{-r} in eigenvalue coordinates.

    r = insert_power applies per eigenvalue (for the quaternion kinds the
    full 2Nx2N determinant corresponds to r = 2).
    """
    p = np.asarray(p, dtype=float)

    def extra_real(x):
        out = np.ones_like(x)
        for pi in p:
            out = out / (1.0 - pi * x) ** insert_power
        return out

    def extra_pair(z):
        out = np.ones_like(z)
        for pi in p:
            out = out / ((1.0 - pi * z) * (1.0 - pi * np.conj(z))) ** insert_power
        return out

    # a negative power is a polynomial insertion and has no pole to dodge
    poles = [1.0 / float(pi) for pi in p if pi != 0] if insert_power > 0 else []
    return eigen_integral(spec, rel_tol, extra_real, extra_pair, poles)


# (n_r, r_order, n_theta, t_order) per level: two unrelated coarse rules give
# the error estimate, and the finest is built only when they disagree
_GINUE_RULES = ((4, 14, 4, 12), (5, 18, 5, 14), (8, 22, 8, 18))


def _pair_sum(z: np.ndarray, w: np.ndarray) -> complex:
    """sum_ij w_i w_j |z_i - z_j|^2, from the pairs i < j only.

    The diagonal term is 0 and the summand symmetric, so each row block meets
    only the columns from its own first row on: pairs inside the block count
    both ways, pairs beyond it once with weight 2.  |z_i - z_j|^2 is formed in
    real arithmetic in two reused (block, nodes) buffers that stay in cache,
    and each block is reduced by one product with the contiguous (nodes, 2)
    real and imaginary weights.
    """
    x, y = z.real, z.imag
    n = len(z)
    block = 32   # 3.2 MB of buffers at the 6300-node rule
    w_ri = np.stack([w.real, w.imag], axis=1)
    bufs = np.empty((2, min(block, n) * n))
    total = 0.0 + 0.0j
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        shape = (i1 - i0, n - i0)
        d2, dy = (buf[:shape[0] * shape[1]].reshape(shape) for buf in bufs)
        np.subtract.outer(x[i0:i1], x[i0:], out=d2)
        np.subtract.outer(y[i0:i1], y[i0:], out=dy)
        d2 *= d2
        dy *= dy
        d2 += dy
        cols = w_ri[i0:].copy()
        cols[i1 - i0:] *= 2.0
        s = d2 @ cols
        total += np.dot(w[i0:i1], s[:, 0] + 1j * s[:, 1])
    return total


def ginue_two_point(spec: EnsembleSpec, rel_tol: float = 2e-6) -> OracleResult:
    """Direct |Delta|^2-weighted two-eigenvalue quadrature over the plane."""
    if spec.kind != "GinUE" or spec.n != 2:
        raise ValueError("direct two-point oracle is for GinUE with N = 2")
    spec.validate().require()
    log_w, gauss, lin = mom.ginue_weight(spec)
    radius = gaussian_halfwidth(gauss, lin, 6)

    def evaluate(level):
        n_r, r_order, n_theta, t_order = _GINUE_RULES[level]
        grid = full_plane_grid(radius, n_r=n_r, r_order=r_order,
                               n_theta=n_theta, t_order=t_order)
        z = grid.nodes
        return _pair_sum(z, np.exp(log_w(z)) * z ** spec.L * np.conj(z) ** (-spec.L2) * grid.weights)

    value, err = converge(evaluate, rel_tol, max_level=len(_GINUE_RULES) - 1)
    return OracleResult(value, err, "quadrature")


# ---------------------------------------------------------------------------
# Haar-measure Monte Carlo

# independent seed streams per estimate; shard results reduce in a fixed order
HAAR_SHARDS = 8


def haar_orthogonal(rng: np.random.Generator, n: int, batch: int = 1) -> np.ndarray:
    """Batch of Haar orthogonal matrices: QR with positive R diagonal.

    Householder QR with the batch as the last axis, so every entry of the
    factorisation is a length-`batch` vector and a shard costs O(n^3) array
    operations, not `batch` LAPACK calls.  The reflector maps column k to
    -sign(x_0)|x| e_k (no cancellation); Q then takes the signs of diag R
    (0 counts as +1), which makes it the unique factor with R_kk > 0.
    """
    g = rng.standard_normal((batch, n, n))
    a = g.transpose(1, 2, 0).copy()          # a[i, j]: entry (i, j) of every sample
    q = np.zeros_like(a)
    q[range(n), range(n)] = 1.0
    r_diag = np.empty((n, batch))
    for k in range(n - 1):
        x = a[k:, k]
        norm = np.sqrt(np.sum(x * x, axis=0))
        r_diag[k] = np.where(x[0] < 0, norm, -norm)
        v = x.copy()
        v[0] -= r_diag[k]
        beta = 1.0 / (norm * (norm + np.abs(x[0])))   # 2 / |v|^2
        a[k:, k + 1:] -= v[:, None] * (beta * np.sum(v[:, None] * a[k:, k + 1:], axis=0))
        q[:, k:] -= (beta * np.sum(q[:, k:] * v, axis=1))[:, None] * v
    r_diag[n - 1] = a[n - 1, n - 1]
    sign = np.sign(r_diag)
    sign[sign == 0] = 1.0
    return (q * sign).transpose(2, 0, 1)


def haar_symplectic(rng: np.random.Generator, two_n: int, batch: int = 1) -> np.ndarray:
    """Batch of compact-symplectic-group elements as 2n x 2n unitaries.

    Gram-Schmidt over quaternion columns: each orthonormalized complex
    column is followed by its symplectic partner J conj(col).
    """
    if two_n % 2:
        raise ValueError("symplectic size must be even")
    n = two_n // 2
    jmat = np.zeros((two_n, two_n))
    for i in range(n):
        jmat[2 * i, 2 * i + 1] = 1.0
        jmat[2 * i + 1, 2 * i] = -1.0
    g = rng.standard_normal((batch, two_n, two_n)) + 1j * rng.standard_normal((batch, two_n, two_n))
    q = np.zeros_like(g)
    for c in range(n):
        v = g[:, :, 2 * c]
        for prev in range(2 * c):
            u = q[:, :, prev]
            v = v - u * np.sum(np.conj(u) * v, axis=1)[:, None]
        v = v / np.linalg.norm(v, axis=1)[:, None]
        q[:, :, 2 * c] = v
        # partner -J conj(v) keeps det = +1 (conjugate eigenvalue pairs)
        q[:, :, 2 * c + 1] = np.conj(v) @ jmat
    return q


def _batched_power_sums(g: np.ndarray, order: int) -> np.ndarray:
    """p[b, m-1] = Re Tr g^m of the matrix batch g, m = 1..order.

    Entrywise on the batch axis: Tr g^m = sum_ik (g^(m-1))_ik g_ki, with
    g^(m-1) built by successive products, so no eigenvalues and no small
    per-matrix kernels are needed; the first columns do not depend on `order`.
    """
    a = np.ascontiguousarray(g.transpose(1, 2, 0))   # a[i, j]: entry (i, j) per sample
    a_t = a.transpose(1, 0, 2)
    out = np.empty((g.shape[0], order))
    out[:, 0] = np.real(np.trace(a))
    cur = a
    for m in range(2, order + 1):
        out[:, m - 1] = np.real(np.sum(cur * a_t, axis=(0, 1)))
        if m < order:
            cur = np.sum(cur[:, :, None] * a, axis=1)
    return out


def _batched_schur(lam: Partition, psums: np.ndarray) -> np.ndarray:
    """s_lambda of each sample from its power sums, by Jacobi-Trudi."""
    ell = lam.length
    if ell == 0:
        return np.ones(psums.shape[0])
    return schur_from_h(np.broadcast_to(lam.parts, (psums.shape[0], ell)),
                        hseq(lam.parts[0] + ell, psums))


def _payload_order(payload) -> int:
    """Highest trace power the payload reads."""
    kind, arg = payload
    if kind == "schur":
        return max(arg.parts[0] + arg.length, 1) if arg.parts else 1
    if kind == "exp_trace":
        return max(arg.order, 1)
    raise ValueError(f"unknown payload {kind!r}")


def haar_expectation_mc(group, payloads, samples: int, seed: int) -> list[OracleResult]:
    """Monte Carlo Haar averages of s_lambda(g) or exp(sum t_m Tr g^m).

    group: ("orthogonal", N) or ("symplectic", 2n); payloads: a sequence of
    ("schur", lam) or ("exp_trace", CouplingSeq), one result each.  Every
    shard draws its Haar batch once and forms its trace power sums once, at
    the largest order any payload needs, so all payloads average over the
    same samples and each result is the one its payload gets alone.  Fixed
    seed gives bit-identical output; shard estimates reduce in a fixed order.
    """
    gname, size = group
    if samples < 1:
        raise ValueError("samples >= 1")
    orders = [_payload_order(p) for p in payloads]
    if not orders:
        return []
    seeds = np.random.SeedSequence(seed).spawn(HAAR_SHARDS)
    per = [samples // HAAR_SHARDS + (1 if i < samples % HAAR_SHARDS else 0)
           for i in range(HAAR_SHARDS)]
    vals: list[list] = [[] for _ in payloads]
    for ss, cnt in zip(seeds, per):
        if cnt == 0:
            continue
        rng = np.random.default_rng(ss)
        g = (haar_orthogonal(rng, size, cnt) if gname == "orthogonal"
             else haar_symplectic(rng, size, cnt))
        psums = _batched_power_sums(g, max(orders))
        for (kind, arg), order, out in zip(payloads, orders, vals):
            # a contiguous copy, so the products see the same array whatever
            # the other payloads asked for
            own = np.ascontiguousarray(psums[:, :order])
            if kind == "schur":
                out.append(_batched_schur(arg, own))
            else:
                coeffs = np.array([float(arg.entry(m).real) for m in range(1, order + 1)])
                out.append(np.exp(own @ coeffs))
    results = []
    for v in vals:
        v = np.concatenate(v)
        mean = float(np.mean(v))
        stderr = float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else math.inf
        results.append(OracleResult(mean, stderr, f"monte-carlo(seed={seed}, samples={samples})"))
    return results


# ---------------------------------------------------------------------------
# discrete-measure exact consistency

BORDER_NORM = math.sqrt(2.0)
# weight cutoff of the Schur sum on atomic measures; its tail is factorially small
SERIES_CUTOFF = 18


def _atomic_moments(spec: EnsembleSpec, real_atoms, pair_atoms, base: int, size: int,
                    fold_t: bool) -> SkewPair:
    idx = np.arange(base, base + size)
    alpha, beta = spec.mix
    t = spec.t
    _, vmult = mom.WEIGHT_CONSTANTS[spec.family]
    _, pmult = mom.WEIGHT_CONSTANTS["pair"]
    a_mat = np.zeros((size, size), dtype=complex)
    border = np.zeros(size, dtype=complex)
    if real_atoms:
        xs = np.array([x for x, _ in real_atoms], dtype=float)
        gs = np.array([w for _, w in real_atoms], dtype=complex)
        if fold_t and t.top_index():
            gs = gs * np.exp(vmult * np.array([potential(x, t) for x in xs]))
        px = np.stack([xs ** int(k) for k in idx])
        if spec.family == "orth":
            sgn = np.sign(xs[:, None] - xs[None, :])
            core = np.einsum("j,k,jk,nj,mk->nm", gs, gs, sgn, px, px)
            a_mat += beta * (core - core.T) / 2.0
            border += beta * BORDER_NORM * (px @ gs)
        else:
            nn = idx[:, None].astype(float)
            mm = idx[None, :].astype(float)
            qpow = np.stack([xs ** int(q) for q in range(2 * base - 1, 2 * (base + size - 1))])
            muat = qpow @ gs
            a_mat += beta * (nn - mm) / 2.0 * muat[(idx[:, None] + idx[None, :] - 1) - (2 * base - 1)]
    if pair_atoms:
        zs = np.array([z for z, _ in pair_atoms], dtype=complex)
        ws = np.array([w for _, w in pair_atoms], dtype=complex)
        if fold_t and t.top_index():
            ws = ws * np.exp(pmult * np.real(np.array([potential(z, t) for z in zs])))
        pz = np.stack([zs ** int(k) for k in idx])
        pzb = np.conj(pz)
        if spec.kind == "GinSE":
            raw = np.einsum("j,j,nj,mj->nm", ws, zs - np.conj(zs), pz, pzb)
            a_mat += alpha * (raw - raw.T) / 2.0
        elif spec.kind == "GinOE":
            raw = np.einsum("j,nj,mj->nm", ws, pz, pzb)
            a_mat += alpha * (raw - raw.T) / 2.0j
        else:
            raise ValueError(f"kind {spec.kind} takes no pair atoms")
    return SkewPair(a_mat, border, index_base=base)


def _atomic_eigensum(spec: EnsembleSpec, real_atoms, pair_atoms) -> tuple[complex, float]:
    """Ordered eigenvalue sum over atomic measures, all sectors.

    Returns (value, scale); scale is the sum of term magnitudes, the honest
    yardstick when the signed sum nearly cancels.
    """
    n, L, t = spec.n, spec.L, spec.t
    alpha, beta = spec.mix
    _, vmult = mom.WEIGHT_CONSTANTS[spec.family]
    _, pmult = mom.WEIGHT_CONSTANTS["pair"]
    reals = [(float(x), complex(w) * math.exp(vmult * potential(x, t)))
             for x, w in (real_atoms or [])]
    pairs = [(complex(z), complex(w) * np.exp(pmult * np.real(potential(z, t))))
             for z, w in (pair_atoms or [])]
    total = 0.0 + 0.0j
    scale = 0.0
    if spec.family == "orth":
        pairnorm = PAIR_NORM["GinOE"]
        for k in range(0, n // 2 + 1):
            n_real = n - 2 * k
            wk = _mix_weight(alpha, beta, k, n_real, "orth")
            if wk == 0.0 or k > len(pairs) or n_real > len(reals):
                continue
            for psub in itertools.combinations(range(len(pairs)), k):
                zsel = sorted((pairs[i] for i in psub), key=lambda zw: -zw[0].real)
                for rsub in itertools.combinations(range(len(reals)), n_real):
                    xsel = sorted((reals[i] for i in rsub), key=lambda xw: -xw[0])
                    args = []
                    for z, _ in zsel:
                        args += [z, np.conj(z)]
                    args += [x for x, _ in xsel]
                    args = np.array(args, dtype=complex)
                    vdm = np.prod([args[i] - args[j]
                                   for i in range(len(args)) for j in range(i + 1, len(args))]) \
                        if len(args) > 1 else 1.0
                    wt = np.prod([w * (z * np.conj(z)) ** L for z, w in zsel]) if zsel else 1.0
                    wt = wt * (np.prod([w * x ** L for x, w in xsel]) if xsel else 1.0)
                    term = wk * vdm * wt * pairnorm ** k
                    total += term
                    scale += abs(term)
        return complex(total), scale
    # symplectic family: k quaternion pairs + m doubled line eigenvalues
    for k in range(0, n + 1):
        m = n - k
        wk = _mix_weight(alpha, beta, k, m, "sympl")
        if wk == 0.0 or k > len(pairs) or m > len(reals):
            continue
        for psub in itertools.combinations(range(len(pairs)), k):
            zsel = [pairs[i] for i in psub]
            for rsub in itertools.combinations(range(len(reals)), m):
                xsel = [reals[i] for i in rsub]
                pts = []
                for z, _ in zsel:
                    pts += [(z, 1), (np.conj(z), 1)]
                pts += [(x, 2) for x, _ in xsel]
                vdm = 1.0 + 0.0j
                for i in range(len(pts)):
                    for j in range(i + 1, len(pts)):
                        vdm *= (pts[i][0] - pts[j][0]) ** (pts[i][1] * pts[j][1])
                wt = np.prod([w * (z * np.conj(z)) ** L * PAIR_NORM["GinSE"] * (z - np.conj(z))
                              for z, w in zsel]) if zsel else 1.0
                wt = wt * (np.prod([w * x ** (2 * L) * 0.5 for x, w in xsel]) if xsel else 1.0)
                term = wk * vdm * wt
                total += term
                scale += abs(term)
    return complex(total), scale


def discrete_consistency(spec: EnsembleSpec, real_atoms, pair_atoms=None):
    """Exact finite check of the Wick/Pfaffian identity on atomic measures.

    The atoms stand in for the eigenvalue measures of `spec`, which supplies
    the kind, n, L, t and (alpha, beta); the s-deformation has no place here.
    Returns (lhs, rhs, scale):
    lhs: the ordered eigenvalue sum with t folded into the atom weights;
    rhs: the Schur/Pfaffian series with the same atomic moments, summed in
    s_lambda(t) up to SERIES_CUTOFF, then divided by the fixed border
    constant sqrt(2)^(charge mod 2);
    scale: the larger sum of term magnitudes of the two sides, the right
    yardstick near cancellations.

    Equality certifies the moment conventions, the shifted-index bookkeeping
    and the bordered Pfaffians at once.
    """
    if spec.family == "unitary":
        raise ValueError("the atomic identity is for the Pfaffian kinds, not GinUE")
    if spec.s.top_index():
        raise ValueError("atomic measures take no s-deformation (need s = 0)")
    n_atoms = len(real_atoms or []) + len(pair_atoms or [])
    if n_atoms < 1 or len(real_atoms or []) > 8 or len(pair_atoms or []) > 8:
        raise ValueError("node count out of range (need 1 to 8 atoms per sector)")
    if spec.n > n_atoms:
        raise ValueError(f"N={spec.n} exceeds the {n_atoms} available atoms")
    lhs, scale = _atomic_eigensum(spec, real_atoms, pair_atoms)
    charge, L = spec.n_eff, spec.L
    base = min(0, L)
    size = SERIES_CUTOFF + charge + L - base + 1
    pair = _atomic_moments(spec, real_atoms, pair_atoms, base, size, fold_t=False)
    h = hseq(SERIES_CUTOFF + charge + 1, spec.t)
    table = partition_table(SERIES_CUTOFF, charge)
    terms = schur_terms(abar(table.shifted, L, pair), table.groups, h)
    border_norm = BORDER_NORM if charge % 2 else 1.0
    rhs = complex(math.fsum(terms.real), math.fsum(terms.imag)) / border_norm
    # a plain sum in canonical partition order, so the bits do not move
    series_scale = sum(abs(v) for v in terms.tolist()) / border_norm
    return lhs, rhs, max(scale, series_scale, 1e-300)
