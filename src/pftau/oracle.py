"""Independent ground truth: eigenvalue-space integrals, Haar Monte Carlo,
and discrete-measure identities that hold exactly.

The eigenvalue integral expands the Vandermonde part of each sector once,
into exact integer coefficients on int64 monomial keys, and contracts it
with one-eigenvalue moments: a half-plane table for each conjugate pair, and
per distinct row of line exponents either a product of single moments (the
symplectic line) or a nested ordered integral (the orthogonal one).  So an
integral over up to EIGEN_MAX_N = 4 eigenvalues costs a handful of
one-dimensional quadratures and one vectorised sum per sector.  The GinUE
two-point value contracts its expanded |Delta|^2 the same way, with the
full-plane moments of each rule.

Normalization: complex-pair sectors carry one fixed constant per pair
((z - zbar)/2 for the symplectic family, 1/(2i) for the orthogonal one),
and the symplectic line carries 1/2 per doubled eigenvalue.  With those
constants the Schur/Pfaffian series of `tauseries` equals the eigenvalue
sum times sqrt(2)^(charge mod 2) -- exactly, which `discrete_consistency`
certifies on atomic measures by running the production sector conventions
(`moments.atomic_pair`) and series coefficients (`tauseries.series_terms`) on
the atoms, a list of trials at a time.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import moments as mom
from .moments import EnsembleSpec
from .partitions import _frozen
from .quad import LinePanels, converge, full_plane_grid, gaussian_halfwidth, power_table
from .skewlin import SkewPair, _cmul
from .skewlin import abar  # noqa: F401  bound here too: perfbench's tracer test patches it
from .symfun import hseq, potential, schur_from_h
from .tauseries import required_table_size, schur_values, series_terms

PAIR_NORM = {"orth": 1.0 / 2.0j, "sympl": 0.5}


@dataclass(frozen=True)
class OracleResult:
    value: complex
    error_estimate: float
    method: str


# ---------------------------------------------------------------------------
# eigenvalue integrals

# The largest N the eigenvalue oracle takes.  A cost limit, not a convergence
# one: the GinSE N = 4 sector alone expands into 463k monomials.
EIGEN_MAX_N = 4


def _expand(nvars: int, factors) -> tuple[np.ndarray, np.ndarray]:
    """prod (v_a - v_b)^power over `factors` [(a, b, power)], as monomials.

    Returns (exps[term, i], coeffs[term]), both exact integers.  A monomial is
    an int64 key whose digit i, in a radix above the total degree, is the
    exponent of v_i; each factor adds power + 1 shifted copies of the keys and
    `np.unique` merges them, so the terms come out sorted by key.
    """
    radix = 1 + sum(p for _, _, p in factors)
    place = radix ** np.arange(nvars, dtype=np.int64)
    keys, coeffs = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for a, b, p in factors:
        j = np.arange(p + 1)
        binom = np.array([math.comb(p, i) * (-1) ** (p - i) for i in range(p + 1)])
        keys, inv = np.unique(np.add.outer(j * place[a] + (p - j) * place[b], keys),
                              return_inverse=True)
        merged = np.zeros(len(keys), dtype=np.int64)
        np.add.at(merged, inv.ravel(), np.multiply.outer(binom, coeffs).ravel())
        keep = merged != 0
        keys, coeffs = keys[keep], merged[keep]
    return keys[:, None] // place % radix, coeffs


def _sector_factors(family: str, k: int, m: int) -> list[tuple[int, int, int]]:
    """The Vandermonde part of one sector as factors (a, b, power) of (v_a - v_b):
    k conjugate pairs (z_i, zbar_i) in slots 2i, 2i + 1, then m line eigenvalues.

    Every two slots contribute (v_a - v_b)^(mult_a mult_b), where a line
    eigenvalue of the symplectic family is doubled (mult 2), and a quaternion
    pair carries one more (z - zbar) from its weight.
    """
    if family == "unitary":
        # |Delta|^2 = prod_{i<j} (z_i - z_j)(zbar_i - zbar_j): no line, no weighted pair
        return [(2 * i + c, 2 * j + c, 1)
                for i, j in itertools.combinations(range(k), 2) for c in (0, 1)]
    mult = [1] * (2 * k) + [mom.WEIGHT_CONSTANTS[family][1]] * m
    weighted = {(2 * i, 2 * i + 1) for i in range(k)} if family == "sympl" else set()
    return [(a, b, mult[a] * mult[b] + ((a, b) in weighted))
            for a, b in itertools.combinations(range(2 * k + m), 2)]


@lru_cache(maxsize=32)
def _sector_poly(family: str, k: int, m: int) -> tuple:
    """`_sector_factors` expanded, with no L shift: (exps, coeffs, line_rows,
    line_index), where the line exponents of term i are line_rows[line_index[i]]."""
    exps, coeffs = _expand(2 * k + m, _sector_factors(family, k, m))
    line_rows, line_index = np.unique(exps[:, 2 * k:], axis=0, return_inverse=True)
    return tuple(_frozen(a) for a in (exps, coeffs, line_rows, line_index.ravel()))


def _sector_value(family: str, k: int, m: int, shift: int, pair_T,
                  line_factor) -> tuple[complex, float]:
    """sum over the monomials of one sector: coefficient times pair_T at each
    pair's exponents plus `shift`, times `line_factor` of the line exponents
    (read only where m > 0); and the sum of those terms' magnitudes."""
    exps, terms, line_rows, line_index = _sector_poly(family, k, m)
    for i in range(k):
        terms = terms * pair_T[exps[:, 2 * i] + shift, exps[:, 2 * i + 1] + shift]
    if m:
        terms = terms * line_factor(line_rows)[line_index]
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def _ordered_integrals(lp: LinePanels, w: np.ndarray, rows: np.ndarray, memo) -> np.ndarray:
    """int_{x_1 > ... > x_r} prod x_i^{e_i} w(x_i) for each exponent row e; the inner
    cumulative integral of each exponent suffix is memo(suffix, build)."""
    def integrand(exps: tuple) -> np.ndarray:
        vals = lp.nodes ** exps[0] * w
        if len(exps) > 1:
            vals = vals * memo(exps[1:], lambda: lp.cumulative(integrand(exps[1:])))
        return vals

    return np.array([lp.integrate(integrand(tuple(e))) if e else 1.0 for e in rows.tolist()])


def _sectors(spec: EnsembleSpec):
    """(k pairs, m line eigenvalues, mix weight) of every sector the (alpha, beta)
    mix keeps: a real-family sector has m = n - 2k and weight alpha^k beta^ceil(m/2),
    a quaternion one m = n - k and weight alpha^k beta^m."""
    alpha, beta = spec.mix
    orth = spec.family == "orth"
    for k in range((spec.n // 2 if orth else spec.n) + 1):
        m = spec.n - 2 * k if orth else spec.n - k
        wk = alpha ** k * beta ** ((m + 1) // 2 if orth else m)
        if wk != 0.0:
            yield k, m, wk


def _eigen_value_at_level(spec: EnsembleSpec, level: int, insertion=None,
                          poles=None) -> tuple[complex, float]:
    """The eigenvalue sum on the quadrature rules of `level`, and the sum of the
    magnitudes of its terms, the yardstick of a value that vanishes by symmetry."""
    if spec.family not in ("orth", "sympl"):
        raise ValueError(f"no eigenvalue oracle for kind {spec.kind!r}")
    if spec.n > EIGEN_MAX_N:
        raise ValueError(f"eigenvalue oracle implemented for N <= {EIGEN_MAX_N}")
    alpha = spec.mix[0]
    n, L = spec.n, spec.L
    orth = spec.family == "orth"
    mult = mom.WEIGHT_CONSTANTS[spec.family][1]
    plain = insertion is None and poles is None

    def line(maxdeg):
        lp, w = mom.line_rule(spec.family, spec.t, spec.s, maxdeg, level, poles)
        return lp, w if insertion is None else w * insertion(lp.nodes) ** mult

    def line_memo(maxdeg):
        # memo(exponents, build) of the line integrals on the rule of `maxdeg`: a plain
        # call's are built once per pass, under all that determines them, others once a call
        if plain:
            return lambda exps, build: mom.memo(
                ("oracle_line", spec.family, spec.t, spec.s, maxdeg, level, exps), build)
        held: dict = {}

        def keep(exps, build):
            if exps not in held:
                held[exps] = build()
            return held[exps]
        return keep

    def pair_table(maxdeg):
        if plain:
            # one table per coupling and level, read by every (N, L): the degree, and with
            # it the grid radius, rounded up to a multiple of 16
            degree = -(-maxdeg // 16) * 16
            return mom.memo(("oracle_pair", spec.family, spec.t, degree, level),
                            lambda: mom.pair_moments(spec.family, spec.t, range(degree + 1),
                                                     level))
        return mom.pair_moments(spec.family, spec.t, range(maxdeg + 1), level,
                                None if insertion is None
                                else (lambda z: insertion(z) * insertion(np.conj(z))), poles)

    # absolute powers: |z|^{2L} per pair, x^L per real eigenvalue (x^{2L} per doubled one);
    # line_measure() builds the line rule and returns the line factor of `_sector_value`
    if orth:
        maxdeg = n - 1 + abs(L) + 1
        pair_T = None
        if alpha != 0.0 and n >= 2:
            pair_T = pair_table(maxdeg + abs(L) + 2)

        def line_measure():
            lp, w = line(maxdeg + 2)
            cumulatives = line_memo(maxdeg + 2)
            return lambda rows: _ordered_integrals(lp, w, rows + L, cumulatives)
    else:
        maxdeg = 4 * n + 2 * abs(L) + 2
        pair_T = pair_table(maxdeg) if alpha != 0.0 else None
        mu_qmin = -2 * abs(L)
        mu_qmax = maxdeg * 2

        def line_measure():
            mu = line_memo(mu_qmax + 2)((mu_qmin, mu_qmax), lambda: mom._line_moments(
                *line(mu_qmax + 2))(np.arange(mu_qmin, mu_qmax + 1)))
            return lambda rows: np.prod(mu[rows + 2 * L - mu_qmin], axis=1)
    pair_norm = PAIR_NORM[spec.family]
    total, abs_sum = 0.0 + 0.0j, 0.0
    line_factor = None   # built on the first sector with a line eigenvalue, if any
    for k, m, wk in _sectors(spec):
        # the symplectic line is unordered, with 1/2 per doubled eigenvalue
        norm = pair_norm ** k / math.factorial(k) * (1.0 if orth else 0.5 ** m / math.factorial(m))
        if m and line_factor is None:
            line_factor = line_measure()
        value, magnitude = _sector_value(spec.family, k, m, L, pair_T, line_factor)
        total += wk * (value * norm)
        abs_sum += abs(wk * norm) * magnitude
    return total, abs_sum


def eigen_integral(spec: EnsembleSpec, rel_tol: float = 1e-9, insertion=None,
                   poles=None) -> OracleResult:
    """Direct eigenvalue-space value of the deformed partition function.

    `insertion(x)` is a factor per eigenvalue x of the matrix (an inserted
    observable), and the multiplicities are applied here: a line eigenvalue
    takes insertion(x) ** r, r its multiplicity in `moments.WEIGHT_CONSTANTS`
    (2 on the doubled symplectic line), and a conjugate pair takes
    insertion(z) insertion(zbar), each of z and zbar once; the quadrature
    supports stay clear of `poles`.  No attempt is made to match absorbed
    volume constants; use ratios.

    A value that vanishes by symmetry (OE or GinOE at N = 3, L = 1, t = 0, where
    every sector is odd under x -> -x) is rounding noise on every level; it
    converges once two levels fall below rel_tol times the sum of its terms'
    magnitudes on the first level.

    A plain call (no insertion, no poles) is memoized per (spec, rel_tol) in
    the in-memory table cache, so `moments.clear_cache()` forgets it; it is
    never written to disk.
    """
    spec.validate().require()

    def build():
        first, abs_sum = _eigen_value_at_level(spec, 0, insertion, poles)
        value, err = converge(
            lambda lvl: _eigen_value_at_level(spec, lvl, insertion, poles)[0] if lvl else first,
            rel_tol, zero_floor=rel_tol * abs_sum)
        return OracleResult(value, err, "quadrature")

    if insertion is None and poles is None:
        return mom.memo(("eigen_integral", spec, rel_tol), build)
    return build()


def det_average_lhs(spec: EnsembleSpec, p, rel_tol: float = 1e-9) -> OracleResult:
    """Average of prod_i det(1 - p_i X)^{-1} in eigenvalue coordinates: the insertion
    prod_i (1 - p_i x)^{-1} per eigenvalue x of X, by `eigen_integral`."""
    p = np.asarray(p, dtype=float)

    def insertion(x):
        out = np.ones_like(x)
        for pi in p:
            out = out / (1.0 - pi * x)
        return out

    return eigen_integral(spec, rel_tol, insertion, [1.0 / float(pi) for pi in p if pi != 0])


# (n_r, r_order, n_theta, t_order) per level, 588 to 25344 nodes: the first two,
# unrelated rules give the value and its error estimate; each finer one runs on disagreement.
# The second, one 36-node radial panel by four 14-node angular panels, is as accurate as a
# 2688-node rule of 56 by 48 nodes at three quarters of its nodes; a t_2 != 0 weight
# needs those angular panels.  Every rule past it has more nodes than it both in radius
# and in angle, so a climb never returns a value coarser than the rule it climbed from
_GINUE_RULES = ((1, 21, 2, 14), (1, 36, 4, 14), (1, 40, 4, 16), (5, 18, 5, 14), (8, 22, 8, 18))


def _two_point_sum(z: np.ndarray, w: np.ndarray, n: int) -> complex:
    """sum over n-tuples of nodes of prod_i w_i |Delta(z)|^2, which for n = 2 is
    sum_ij w_i w_j |z_i - z_j|^2, in O(nodes): the expanded |Delta|^2 contracted with
    S[a, b] = sum_p w_p z_p^a zbar_p^b (`_sector_value`).

    Each complex product rounds its real products on their own (`_cmul`) and each S
    entry is NumPy's pairwise sum over the nodes, so no BLAS kernel sets its bits.
    """
    powers = power_table(z, range(n))
    weighted = _cmul(powers, w)
    moments = np.sum(_cmul(weighted[:, None, :], np.conj(powers)[None, :, :]), axis=-1)
    return _sector_value("unitary", n, 0, 0, moments, None)[0]


def _ginue_rule(spec: EnsembleSpec, level: int) -> tuple[np.ndarray, np.ndarray]:
    """(z, w) of the two-point oracle's rule at `level`: its nodes, and at each the weight
    e^{V(z,t) + V(zbar,t') - |z|^2} z^L zbar^(-L2) times the rule's own.

    The powers are `power_table` rows and each complex product rounds its real products
    on their own (`_cmul`), so no SIMD path of NumPy's complex multiply sets their bits.
    """
    log_w, gauss, lin = mom.ginue_weight(spec)
    grid = mom._plane_grid(full_plane_grid, gaussian_halfwidth(gauss, lin, 6),
                           *_GINUE_RULES[level])
    z = grid.nodes
    w = _cmul(np.exp(log_w(z)), power_table(z, [spec.L])[0])
    w = _cmul(w, power_table(np.conj(z), [-spec.L2])[0])
    return z, _cmul(w, grid.weights)


def ginue_two_point(spec: EnsembleSpec, rel_tol: float = 2e-6) -> OracleResult:
    """Direct |Delta|^2-weighted two-eigenvalue quadrature over the plane."""
    if spec.family != "unitary" or spec.n != 2:
        raise ValueError("direct two-point oracle is for GinUE with N = 2")
    spec.validate().require()
    # the same sum with |w| on the first rule: with L2 != -L the value vanishes by
    # rotation, and its noise is measured against this scale
    z, w = _ginue_rule(spec, 0)
    abs_sum = _two_point_sum(z, np.abs(w), spec.n).real
    first = _two_point_sum(z, w, spec.n)
    value, err = converge(lambda level: (_two_point_sum(*_ginue_rule(spec, level), spec.n)
                                         if level else first),
                          rel_tol, max_level=len(_GINUE_RULES) - 1, zero_floor=rel_tol * abs_sum)
    return OracleResult(value, err, "quadrature")


# ---------------------------------------------------------------------------
# Haar-measure Monte Carlo

# independent seed streams per estimate; their blocks' results pool in a fixed order
HAAR_SHARDS = 8
# samples per block: the kernel's arrays hold at most this many columns, so its rows stay
# in cache and no array grows with the batch
HAAR_BLOCK = 4096


def _components(group: str, size: int) -> list[tuple]:
    """(angle pairs n, a, b, fixed eigenvalues) of each connected component: its
    eigenangles have x_j = 2 cos theta_j with Weyl density |Delta(x)|^2 prod (2 - x_j)^a
    (2 + x_j)^b.  O(size) has two components, SO and O^-, and Sp(2n) one."""
    n = size // 2
    if group == "symplectic":
        return [(n, 0.5, 0.5, ())]
    if size % 2:
        return [(n, 0.5, -0.5, (1.0,)), (n, -0.5, 0.5, (-1.0,))]
    return [(n, -0.5, -0.5, ()), (n - 1, 0.5, 0.5, (1.0, -1.0))]


def _verblunsky(rng: np.random.Generator, n: int, a: float, b: float, k: int,
                batch: int) -> np.ndarray:
    """`batch` draws of the Verblunsky coefficient alpha_k, k < 2n - 1, of a component
    with n angle pairs at the density of `_components`.

    Killip-Nenciu (IMRN 2004, no. 50, Thm 2 at beta = 2): the real alpha_k = 1 - 2Y are
    independent, Y of Beta type, and alpha_{2n-1} = -1.
    """
    h = n - k / 2
    alpha = rng.beta(h + 0.5 + a + b, h - 0.5, batch) if k % 2 else rng.beta(h + a, h + b, batch)
    alpha *= -2.0    # exact, so -2Y + 1 has the bits of 1 - 2Y
    alpha += 1.0
    return alpha


def _szego(alphas: list[np.ndarray], batch: int) -> np.ndarray:
    """Ascending coefficients, one column per sample, of prod_j (z - e^{i theta_j})
    (z - e^{-i theta_j}) for `batch` samples whose rows alpha_0..alpha_{2n-2} are `alphas`:
    the Szego polynomial Phi_{2n}, Phi_{k+1} = z Phi_k - alpha_k Phi_k^*, alpha_{2n-1} = -1.
    """
    phi = np.ones((1, batch))
    for k, alpha in enumerate(alphas + [-1.0] if alphas else []):
        nxt = np.zeros((k + 2, batch))
        nxt[1:] = phi
        nxt[:-1] -= alpha * phi[::-1]
        phi = nxt
    return phi


def _newton(phi: np.ndarray, order: int) -> np.ndarray:
    """p[m-1] = sum of the m-th powers of the roots of the monic polynomials whose ascending
    coefficients are the columns of `phi`, m = 1..order; each row from the ones before it."""
    c = np.zeros((order + 1, phi.shape[1]))    # c_i: coefficient of z^(degree - i)
    top = min(order + 1, len(phi))
    c[:top] = phi[::-1][:top]
    p = np.empty((order, phi.shape[1]))
    for m in range(1, order + 1):
        p[m - 1] = -m * c[m] - sum(c[i] * p[m - 1 - i] for i in range(1, m))
    return p


def _haar_power_sums(rng: np.random.Generator, group: str, size: int, batch: int,
                     order: int) -> Iterator[np.ndarray]:
    """Yields p[m-1, b] = Re Tr g_b^m, m = 1..order, of `batch` Haar draws g_b, from their
    eigenangles alone, component by component in blocks of at most HAAR_BLOCK samples.

    The draws are those of the whole batch at once: a fair coin per sample picks the
    component on O(size), then each component draws its rows alpha_0..alpha_{2n-2} over
    all its samples in turn.  A generator's draws split over calls are those of one call,
    so only the coin counts are kept, and only the rows before a component's last are held
    whole (none at n = 1); the last is drawn a block at a time.
    """
    comps = _components(group, size)
    counts = np.zeros(len(comps), dtype=int)
    for start in range(0, batch, HAAR_BLOCK):
        pick = rng.integers(len(comps), size=min(HAAR_BLOCK, batch - start))
        counts += np.bincount(pick, minlength=len(comps))
    m = np.arange(1, order + 1)[:, None]
    for (n, a, b, fixed), count in zip(comps, counts):
        held = [_verblunsky(rng, n, a, b, k, count) for k in range(2 * n - 2)]
        shift = sum(f ** m for f in fixed)
        for start in range(0, count, HAAR_BLOCK):
            stop = min(start + HAAR_BLOCK, count)
            alphas = [row[start:stop] for row in held]
            if n:
                alphas.append(_verblunsky(rng, n, a, b, 2 * n - 2, stop - start))
            yield _newton(_szego(alphas, stop - start), order) + shift


def _payload_order(payload) -> int:
    """Highest trace power the payload reads."""
    what, arg = payload
    if what == "schur":
        return max(arg.parts[0] + arg.length, 1) if arg.parts else 1
    if what == "exp_trace":
        return max(arg.order, 1)
    raise ValueError(f"unknown payload {what!r}")


def _block_moments(v: np.ndarray) -> tuple[float, float, float, float]:
    """(count, sum, mean, M2) of one block, M2 the sum of squared deviations from its mean."""
    total = float(v.sum())
    mean = total / len(v)
    dev = v - mean
    return float(len(v)), total, mean, float((dev * dev).sum())


def _pooled(blocks: np.ndarray) -> tuple[float, float]:
    """(mean, standard error of the mean) of the samples whose blocks' `_block_moments`
    are the rows of `blocks`: mean = fsum(sums) / n, M2 = fsum(M2_b + n_b (mean_b -
    mean)^2), each sum exactly rounded."""
    counts, sums, means, m2s = blocks.T.tolist()
    n = math.fsum(counts)
    mean = math.fsum(sums) / n
    m2 = math.fsum(m2_b + n_b * (mean_b - mean) ** 2
                   for n_b, mean_b, m2_b in zip(counts, means, m2s))
    return mean, math.sqrt(m2 / (n - 1) / n)


def haar_expectation_mc(group, payloads, samples: int, seed: int) -> list[OracleResult]:
    """Monte Carlo Haar averages of s_lambda(g) or exp(sum t_m Tr g^m).

    group: ("orthogonal", N) or ("symplectic", 2n); payloads: a sequence of
    ("schur", lam) or ("exp_trace", CouplingSeq), one result each.  Every
    shard draws its Haar batch once and forms each block's trace power sums once,
    at the largest order any payload needs, so all payloads average over the
    same samples and each result is the one its payload gets alone; each block's
    h table is formed once too, at the largest order a Schur payload reads.  Every
    payload reduces each block to (count, sum, mean, M2) and the blocks pool in a
    fixed order, so memory past the Verblunsky rows `_haar_power_sums` holds is
    bounded by the block, and a fixed seed gives bit-identical output.
    """
    gname, size = group
    if gname not in ("orthogonal", "symplectic"):
        raise ValueError(f"unknown group {gname!r}")
    if size < 1:
        raise ValueError(f"group size must be >= 1, got {size}")
    if gname == "symplectic" and size % 2:
        raise ValueError(f"symplectic size must be even, got {size}")
    if samples < 2:
        # one sample has no standard error, and a z-score against none passes anything
        raise ValueError(f"samples must be >= 2, got {samples}")
    orders = [_payload_order(p) for p in payloads]
    if not orders:
        return []
    # h_0..h_k do not depend on how many power sums follow p_k: one table serves every Schur
    schur_top = max((o for (what, _), o in zip(payloads, orders) if what == "schur"), default=0)
    # exp_trace coefficients t_1..t_order; None marks a Schur payload
    coeffs = [[float(arg.entry(m).real) for m in range(1, order + 1)] if what == "exp_trace"
              else None for (what, arg), order in zip(payloads, orders)]
    seeds = np.random.SeedSequence(seed).spawn(HAAR_SHARDS)
    per = [samples // HAAR_SHARDS + (1 if i < samples % HAAR_SHARDS else 0)
           for i in range(HAAR_SHARDS)]

    def block_moments(psums) -> np.ndarray:
        h = hseq(schur_top, psums.T)
        out = []
        for (_, arg), c in zip(payloads, coeffs):
            if c is None:
                v = schur_from_h([arg.parts], h)[:, 0]
            else:
                # sum_m t_m p_m by multiply-adds in m order, so no BLAS kernel sets its bits
                v = c[0] * psums[0]
                for t_m, p_m in zip(c[1:], psums[1:]):
                    v += t_m * p_m
                np.exp(v, out=v)
            out.append(_block_moments(v))
        return np.array(out)

    # one (payloads, 4) array per block, in draw order; `map` lets go of each block's
    # arrays before the next block is drawn
    blocks = []
    for ss, cnt in zip(seeds, per):
        rng = np.random.default_rng(ss)
        blocks += map(block_moments, _haar_power_sums(rng, gname, size, cnt, max(orders)))
    method = f"monte-carlo(seed={seed}, samples={samples})"
    return [OracleResult(*_pooled(b), method) for b in np.stack(blocks, axis=1)]


# ---------------------------------------------------------------------------
# discrete-measure exact consistency

# weight cutoff of the Schur sum on atomic measures; its tail is factorially small
SERIES_CUTOFF = 18


def _atomic_eigensum(spec: EnsembleSpec, real_atoms, pair_atoms) -> tuple[complex, float]:
    """Ordered eigenvalue sum over atomic measures, all sectors.

    Returns (value, scale); scale is the sum of term magnitudes, the honest
    yardstick when the signed sum nearly cancels.
    """
    L, t = spec.L, spec.t
    _, mult = mom.WEIGHT_CONSTANTS[spec.family]
    _, pmult = mom.WEIGHT_CONSTANTS["pair"]
    # decreasing order, as the ordered sectors of the real family need; the
    # quaternion factors are even in it
    reals = sorted(((float(x), complex(w) * math.exp(mult * potential(x, t)))
                    for x, w in (real_atoms or [])), key=lambda xw: -xw[0])
    pairs = sorted(((complex(z), complex(w) * np.exp(pmult * np.real(potential(z, t))))
                    for z, w in (pair_atoms or [])), key=lambda zw: -zw[0].real)
    # per pair a norm; per real eigenvalue its multiplicity (doubled on the
    # symplectic line) and a norm of 1/2 per doubled eigenvalue
    pair_norm, real_norm = PAIR_NORM[spec.family], 1.0 / mult
    # each pair's conjugate and each atom's own factor are formed once, by the operations
    # on the operands that every term would use: the same bits, in the same order
    pairs = [(z, np.conj(z), w * (z * np.conj(z)) ** L * pair_norm) for z, w in pairs]
    reals = [(x, w * x ** (mult * L) * real_norm) for x, w in reals]
    total = 0.0 + 0.0j
    scale = 0.0
    for k, m, wk in _sectors(spec):
        if k > len(pairs) or m > len(reals):
            continue
        factors = _sector_factors(spec.family, k, m)
        for zsel in itertools.combinations(pairs, k):
            for xsel in itertools.combinations(reals, m):
                pts = [p for z, zc, _ in zsel for p in (z, zc)] + [x for x, _ in xsel]
                term = wk
                for a, b, power in factors:
                    term *= (pts[a] - pts[b]) ** power
                for atom in zsel + xsel:
                    term *= atom[-1]
                total += term
                scale += abs(term)
    return complex(total), scale


def _check_trial(spec: EnsembleSpec, real_atoms, pair_atoms) -> None:
    if spec.family == "unitary":
        raise ValueError("the atomic identity is for the Pfaffian kinds, not GinUE")
    if spec.s.top_index():
        raise ValueError("atomic measures take no s-deformation (need s = 0)")
    n_atoms = len(real_atoms or []) + len(pair_atoms or [])
    if n_atoms < 1 or len(real_atoms or []) > 8 or len(pair_atoms or []) > 8:
        raise ValueError("node count out of range (need 1 to 8 atoms per sector)")
    if spec.n > n_atoms:
        raise ValueError(f"N={spec.n} exceeds the {n_atoms} available atoms")


def discrete_consistency(trials) -> list[tuple[complex, float, float]]:
    """Exact finite check of the Wick/Pfaffian identity on atomic measures.

    Each trial (spec, real_atoms, pair_atoms) of the list `trials` is one
    check: the atoms stand in for the eigenvalue measures of `spec`, which
    supplies the kind, n, L, t and (alpha, beta); the s-deformation has no
    place here.  Returns one (lhs, rhs, scale) per trial, in order:
    lhs: the ordered eigenvalue sum with t folded into the atom weights;
    rhs: the production tau series (`moments.atomic_pair` and
    `tauseries.series_terms`) on the atomic moments, summed in s_lambda(t) up
    to SERIES_CUTOFF, then divided by the fixed border constant
    sqrt(2)^(charge mod 2);
    scale: the larger sum of term magnitudes of the two sides, the right
    yardstick near cancellations.

    The trials whose specs share the family, mix and index base share one stack of atomic
    tables (one `moments.atomic_pair` call) at the largest size any of them needs, and one
    Pfaffian elimination per charge on the rows of that stack, each read at its trial's own
    L.  Every sum over atoms is elementwise, so a table's leading block is the smaller table
    bit for bit, and the elimination judges a pivot by the member's own entries: every value
    is bit for bit the one of the trial alone.
    Equality certifies the moment conventions, the shifted-index bookkeeping
    and the bordered Pfaffians at once.
    """
    out, groups = [], {}
    for i, (spec, *atoms) in enumerate(trials):
        _check_trial(spec, *atoms)
        out.append(_atomic_eigensum(spec, *atoms))
        groups.setdefault((spec.family, spec.mix, spec.index_base), []).append(i)
    for members in groups.values():
        specs = [trials[i][0] for i in members]
        size = max(required_table_size(spec.n_eff, spec.L, SERIES_CUTOFF) for spec in specs)
        stack = mom.atomic_pair(specs[0], [trials[i][1:] for i in members], size)
        for charge in dict.fromkeys(spec.n_eff for spec in specs):
            rows = [k for k, spec in enumerate(specs) if spec.n_eff == charge]
            pair = SkewPair(stack.a_matrix[rows], stack.border[rows], stack.index_base)
            coeffs = series_terms(pair, charge, [specs[k].L for k in rows], SERIES_CUTOFF)
            border_norm = math.sqrt(2.0) ** (charge % 2)
            for k, row in zip(rows, coeffs):
                terms = row * schur_values(SERIES_CUTOFF, charge, specs[k].t)
                # a sequential sum in canonical partition order, so the bits do not move
                abs_sum = float(np.add.accumulate(np.abs(terms))[-1]) / border_norm
                lhs, scale = out[members[k]]
                rhs = math.fsum(terms.tolist()) / border_norm
                out[members[k]] = lhs, rhs, max(scale, abs_sum, 1e-300)
    return out
