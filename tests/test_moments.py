import math

import numpy as np
import pytest

from pftau import hub, moments, oracle, quad
from pftau.moments import (EnsembleSpec, ValidationError, clip_support, complex_bimoment_matrix,
                           kernel_matrix, kernel_prefactor, moment_pair)
from pftau.quad import QuadratureError, converge, erfc_vec, power_table
from pftau.symfun import CouplingSeq, ZERO_SEQ, potential
from pftau.tauseries import required_table_size

SQRT_PI = math.sqrt(math.pi)


def _skew_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a + a.T))) / float(np.max(np.abs(a)))


def test_spec_defaults_and_mix():
    assert EnsembleSpec("OE", 2).mix == (0.0, 1.0)
    assert EnsembleSpec("SE", 2).mix == (0.0, 1.0)
    assert EnsembleSpec("GinOE", 2).mix == (1.0, 1.0)
    assert EnsembleSpec("GinSE", 2).mix == (1.0, 0.0)
    assert EnsembleSpec("GinSE", 2, alpha=0.5, beta=0.25).mix == (0.5, 0.25)
    assert EnsembleSpec("SE", 3).n_eff == 6
    assert EnsembleSpec("GinOE", 3).n_eff == 3
    with pytest.raises(ValueError):
        EnsembleSpec("UE", 1)
    with pytest.raises(ValueError):
        EnsembleSpec("OE", -1)


def test_spec_validation_gate():
    bad = EnsembleSpec("OE", 1, t=CouplingSeq.of(0, 0, 0.2))
    with pytest.raises(ValidationError):
        moment_pair(bad, 4)


def test_ginse_structure_closed_form():
    pair = moment_pair(EnsembleSpec("GinSE", 2), 8)
    a = pair.a_matrix.real
    mx = np.max(np.abs(a))
    for m in range(7):
        assert a[m, m + 1] == pytest.approx(math.pi * math.factorial(m + 1) / 2, rel=1e-9)
    off = a.copy()
    for m in range(7):
        off[m, m + 1] = off[m + 1, m] = 0.0
    assert np.max(np.abs(off)) < 1e-9 * mx
    for m in range(1, 6):
        assert a[m, m + 1] / a[m - 1, m] == pytest.approx(m + 1, rel=1e-6)
    assert pair.a_matrix.dtype == np.float64


def test_se_moment_closed_form():
    pair = moment_pair(EnsembleSpec("SE", 1), 4)
    assert pair.a_matrix[2, 1].real == pytest.approx(SQRT_PI / 4, rel=1e-10)
    assert np.all(pair.border == 0)


def test_oe_raw_already_antisymmetric():
    s = CouplingSeq.of(0.0, 0.4)
    pair = moment_pair(EnsembleSpec("OE", 2, 0, ZERO_SEQ, s), 6)
    assert _skew_defect(pair.a_matrix) < 1e-12


def test_oe_border_includes_gaussian():
    pair = moment_pair(EnsembleSpec("OE", 1), 5)
    # a_n = sqrt(2) * int x^n e^{-x^2/2} dx
    assert pair.border[0].real == pytest.approx(math.sqrt(2) * math.sqrt(2 * math.pi), rel=1e-10)
    assert abs(pair.border[1]) < 1e-12
    assert pair.border[2].real == pytest.approx(math.sqrt(2) * math.sqrt(2 * math.pi), rel=1e-10)


def test_ginoe_pair_is_real_and_skew():
    pair = moment_pair(EnsembleSpec("GinOE", 2), 6)
    assert pair.a_matrix.dtype == np.float64
    assert _skew_defect(pair.a_matrix) < 1e-12


def test_ginse_conjugation_reflection_of_raw_moments():
    # the quaternion sector's raw table: the (z - zbar) factor rides along
    raw = moments.pair_moments("sympl", ZERO_SEQ, range(6), level=1,
                               extra=lambda z: z - np.conj(z))
    for n in range(6):
        for m in range(6):
            assert raw[m, n] == pytest.approx(-np.conj(raw[n, m]), abs=1e-9 * np.max(np.abs(raw)))


def test_ginse_index_shift_is_the_insertion():
    # int z^a zbar^b (z - zbar) W = T[a+1, b] - T[a, b+1] of the plain table T, and its skew
    # part is the real convention, int (-2 Im z) Im(z^a zbar^b) W, on the same rule
    size = 8
    plain = moments.pair_moments("sympl", ZERO_SEQ, range(size + 1), level=1)
    raw = moments.pair_moments("sympl", ZERO_SEQ, range(size), level=1,
                               extra=lambda z: z - np.conj(z))
    scale = np.max(np.abs(raw))
    assert np.max(np.abs(plain[1:, :-1] - plain[:-1, 1:] - raw)) <= 1e-14 * scale
    grid, w = moments._pair_rule("sympl", ZERO_SEQ, 2 * size, 1)   # the rule of `raw`
    block = moments._pair_sector("sympl", grid.nodes, grid.weights * w.ravel(), np.arange(size))
    assert np.max(np.abs(block - (raw - raw.T) / 2.0)) <= 1e-14 * scale


def test_atomic_pair_on_quadrature_atoms_reproduces_the_sectors():
    # the sectors converge at level 1, so the level-1 rules, with the supports
    # the sectors pick, give the same tables as atoms through `atomic_pair`
    base, size, level = 0, 6, 1
    lp, wv = moments.line_rule("sympl", ZERO_SEQ, ZERO_SEQ, 2 * size - 2, level)
    line_atoms = list(zip(lp.nodes, lp.weights * wv))
    got = moments.atomic_pair(EnsembleSpec("SE", 1), [(line_atoms, None)], size).a_matrix[0]
    want = moments.sympl_sector(ZERO_SEQ, base, size)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for kind, top in (("GinSE", size), ("GinOE", size - 1)):
        spec = EnsembleSpec(kind, 1, alpha=1.0, beta=0.0)
        grid, w = moments._pair_rule(spec.family, ZERO_SEQ, 2 * top + 2, level)
        pair_atoms = list(zip(grid.nodes, grid.weights * w.ravel()))
        got = moments.atomic_pair(spec, [(None, pair_atoms)], size).a_matrix[0]
        sector = moments.ginse_complex_sector if kind == "GinSE" else moments.ginoe_complex_sector
        want = sector(size)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), kind


@pytest.mark.parametrize("kind,s2,L", [(kind, 0.0, L) for kind in ("OE", "SE", "GinOE", "GinSE")
                                       for L in (0, 1)]
                         + [(kind, 0.4, L) for kind in ("OE", "SE") for L in (-1, 0, 1)])
def test_moment_pair_tables_are_float64(kind, s2, L):
    s = CouplingSeq.of(0.0, s2) if s2 else ZERO_SEQ
    pair = moment_pair(EnsembleSpec(kind, 1, L=L, s=s), 8)
    assert pair.a_matrix.dtype == pair.border.dtype == np.float64
    if kind == "SE":
        border = moments.sympl_border_moments(s, pair.index_base, pair.size)
        assert border.dtype == np.float64


def _gaussian_pair_block(size: int) -> np.ndarray:
    """The GinSE sector at t = s = 0 by the complex formula: the skew part of the shifted
    block T[a+1, b] - T[a, b+1] of T[a, b] = int_{Im z > 0} z^a zbar^b e^{-|z|^2} d^2 z,
    a, b <= size, which is Gamma((a+b)/2 + 1) / 2 times int_0^pi e^{i (a-b) theta} d theta:
    pi for a = b, 2i / (a-b) for odd a - b and exactly 0 otherwise."""
    a, b = np.arange(size + 1)[:, None], np.arange(size + 1)[None, :]
    d = a - b
    radial = 0.5 * np.array([math.gamma((k + 1) / 2) for k in range(2 * size + 2)])[a + b + 1]
    table = radial * np.where(d == 0, math.pi, np.where(d % 2 == 1, 2j / np.where(d == 0, 1, d),
                                                         0.0))
    raw = table[1:, :-1] - table[:-1, 1:]
    return (raw - raw.T) / 2.0


def test_the_ginse_pair_block_is_real_at_every_size():
    # the complex formula's imaginary parts cancel exactly, and its real part is the real
    # closed form bit for bit, the sign of every zero included
    for size in range(1, moments.MAX_TABLE_SIZE + 1):
        block = _gaussian_pair_block(size)
        table = moments.ginse_complex_sector(size)
        assert not block.imag.any(), size
        assert table.tobytes() == block.real.tobytes(), size
        assert np.array_equal(np.signbit(table), np.signbit(block.real)), size
    moments.clear_cache()


def _complex_pair_table(family, atoms, size) -> np.ndarray:
    """The half-plane convention by the complex formula in Python's scalar arithmetic:
    (T - T^T)/2i of T[a, b] = sum w g z^a zbar^b, g = 1 (orth) or -2 Im z (sympl)."""
    t = np.zeros((size, size), dtype=complex)
    for z, w in atoms:
        wg = w if family == "orth" else -2.0 * z.imag * w
        powers = [1.0 + 0.0j]
        for _ in range(size - 1):
            powers.append(powers[-1] * z)
        t += wg * np.array([[za * zb.conjugate() for zb in powers] for za in powers])
    return (t - t.T) / 2.0j


@pytest.mark.parametrize("kind", ["GinOE", "GinSE"])
def test_the_real_pair_sector_is_the_complex_formula(kind, gate_experiments):
    # every trial of the gate's discrete experiment, at its own table size and stacked
    e = gate_experiments[f"discrete-{kind}"]
    trials = hub._discrete_trials(e, hub.resolve_params(e.comparison, e.params, e.spec))
    family, idx = moments.KINDS[kind][0], np.arange(26)
    for spec, _, atoms in trials:
        size = required_table_size(spec.n_eff, spec.L, oracle.SERIES_CUTOFF)
        z, w = (np.array(v) for v in zip(*atoms))
        table = moments._pair_sector(family, z, w, idx[:size])
        ref = _complex_pair_table(family, atoms, size)
        assert table.dtype == np.float64
        assert np.max(np.abs(table - ref)) <= 1e-15 * np.max(np.abs(ref))
    z = np.array([[a for a, _ in atoms] for _, _, atoms in trials])
    w = np.array([[b for _, b in atoms] for _, _, atoms in trials])
    stack = moments._pair_sector(family, z, w, idx)
    for k in (0, 17, len(trials) - 1):
        assert stack[k].tobytes() == moments._pair_sector(family, z[k], w[k], idx).tobytes()


def _complex_kernel_pair_block(spec: EnsembleSpec, p: np.ndarray) -> np.ndarray:
    """`moments._kernel_pair_block` by the complex expression: (1 - p z)(1 - p zbar), and
    (z - zbar)^2 (sympl) or (z - zbar)/i (orth), as written."""
    def build(level):
        grid, w = moments._pair_rule(spec.family, spec.t, 4 * abs(spec.L) + 6, level,
                                     moments._inv_points(p))
        z = grid.nodes
        zb = np.conj(z)
        gap = (z - zb) ** 2 if spec.family == "sympl" else (z - zb) / 1j
        inv = 1.0 / np.stack([(1.0 - z * pi) * (1.0 - zb * pi) for pi in p])
        return (inv * (grid.weights * w.ravel() * np.abs(z) ** (2 * spec.L) * gap)) @ inv.T

    return converge(build, rel_tol=2e-9)[0]


@pytest.mark.parametrize("kind,L", [(kind, L) for kind in ("GinOE", "GinSE") for L in (0, 2)])
def test_the_real_kernel_pair_block_is_the_complex_expression(kind, L):
    # the node factors agree to an ulp or two; the bound is the summation order, as a real
    # and a complex BLAS product sum the thousands of nodes apart (3.1e-15 seen)
    spec = EnsembleSpec(kind, 2, L, CouplingSeq.of(0.1))
    p = np.array([0.06, -0.06, 0.03, -0.042][:spec.n_eff])
    block, ref = moments._kernel_pair_block(spec, p), _complex_kernel_pair_block(spec, p)
    assert block.dtype == np.float64
    assert np.max(np.abs(block - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_atomic_and_kernel_tables_are_float64():
    line, pairs = [(-0.4, 0.7), (0.9, 1.1)], [(0.3 + 0.5j, 0.8), (-0.6 + 0.2j, 1.3)]
    p = np.array([0.1, -0.1, 0.05, -0.07])
    for kind in ("OE", "SE", "GinOE", "GinSE"):
        for mix in ({}, {"alpha": 0.4, "beta": 0.7}):
            spec = EnsembleSpec(kind, 1, **mix)
            for trials in ([(line, pairs), (line, None)], [(None, pairs)], [(line, None)]):
                stack = moments.atomic_pair(spec, trials, 4)
                assert stack.a_matrix.dtype == stack.border.dtype == np.float64, (kind, mix)
            spec = EnsembleSpec(kind, 2, t=CouplingSeq.of(0.2), **mix)
            assert kernel_matrix(spec, p[:spec.n_eff]).dtype == np.float64, (kind, mix)


def test_moment_tables_monotone_consistent():
    small = moment_pair(EnsembleSpec("GinSE", 2), 5)
    large = moment_pair(EnsembleSpec("GinSE", 2), 9)
    assert np.allclose(small.a_matrix, large.a_matrix[:5, :5], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kind", ["GinSE", "GinOE"])
@pytest.mark.parametrize("level", [0, 1])
def test_pair_weight_from_polar_factors_matches_the_node_formula(kind, level):
    t = CouplingSeq.of(0.1, -0.05)
    grid, w = moments._pair_rule(moments.KINDS[kind][0], t, 20, level)
    assert w.dtype == np.float64 and w.shape == (len(grid.radii), len(grid.angles))
    # the weight as formed from the complex nodes
    z = grid.nodes
    e = (-np.abs(z) ** 2 if kind == "GinSE" else -np.real(z * z)) + 2 * np.real(potential(z, t))
    ref = np.exp(e) if kind == "GinSE" else erfc_vec(math.sqrt(2.0) * np.imag(z)) * np.exp(e)
    assert np.max(np.abs(w.ravel() - ref)) <= 1e-13


def _erfc_keys():
    return [k for k in moments._SECTOR_CACHE if k[0] == "orth_erfc"]


def _oracle_ginoe_pair_tables():
    """The pair tables of the GinOE oracle at two couplings and levels: builds that read
    the orthogonal half-plane weight, which the closed-form s = 0 sector does not."""
    return [moments.pair_moments("orth", t, range(17), level)
            for t, level in ((ZERO_SEQ, 0), (CouplingSeq.of(0.1, -0.05), 1))]


def test_clear_cache_drops_the_erfc_memo():
    moments.clear_cache()
    _oracle_ginoe_pair_tables()
    assert _erfc_keys()
    assert all(not moments._SECTOR_CACHE[k].flags.writeable for k in _erfc_keys())
    moments.clear_cache()
    assert not moments._SECTOR_CACHE


def test_ginoe_values_do_not_depend_on_the_erfc_memo(monkeypatch):
    from pftau.oracle import eigen_integral

    def oracle():
        spec = EnsembleSpec("GinOE", 2, t=CouplingSeq.of(0.1, -0.05))
        return [eigen_integral(spec).value, eigen_integral(EnsembleSpec("GinOE", 3)).value]

    erfc_calls = []
    real_erfc = moments.erfc_vec
    monkeypatch.setattr(moments, "erfc_vec", lambda x: erfc_calls.append(1) or real_erfc(x))
    for build in (_oracle_ginoe_pair_tables, oracle):
        moments.clear_cache()
        cold = build()
        assert erfc_calls
        # warm: only the erfc factors of a cold build are left, and each is a memo hit
        keep = {k: moments._SECTOR_CACHE[k] for k in _erfc_keys()}
        moments.clear_cache()
        moments._SECTOR_CACHE.update(keep)
        erfc_calls.clear()
        warm = build()
        assert not erfc_calls and set(_erfc_keys()) == set(keep)
        for c, w in zip(cold, warm):
            assert np.array_equal(c, w)
    moments.clear_cache()


def test_sector_cache_hits():
    moments.clear_cache()
    before = moments.TABLE_BUILDS
    moment_pair(EnsembleSpec("SE", 1), 6)
    mid = moments.TABLE_BUILDS
    moment_pair(EnsembleSpec("SE", 1), 6)
    assert moments.TABLE_BUILDS == mid > before


def test_orth_sectors_shared_between_oe_and_ginoe():
    moments.clear_cache()
    moment_pair(EnsembleSpec("OE", 2), 6)
    mid = moments.TABLE_BUILDS
    moment_pair(EnsembleSpec("GinOE", 2), 6)   # adds only the complex sector
    assert moments.TABLE_BUILDS == mid + 1


def test_kernel_rejects_coincident_points():
    with pytest.raises(ValueError, match="distinct"):
        kernel_matrix(EnsembleSpec("SE", 1), (0.1, 0.1))


def test_kernel_symmetry_and_skew():
    # K is antisymmetric with a zero diagonal, and K* = K / (p_b - p_a) symmetric
    for kind, n in (("SE", 1), ("GinSE", 2), ("OE", 2), ("GinOE", 4)):
        spec = EnsembleSpec(kind, n, 0, CouplingSeq.of(0.2))
        p = np.array([0.1, -0.1, 0.05, -0.07][:spec.n_eff])
        k = kernel_matrix(spec, p)
        gaps = p[None, :] - p[:, None]
        off = ~np.eye(len(p), dtype=bool)
        assert np.all(np.diag(k) == 0.0)
        assert np.allclose(k, -k.T, rtol=1e-10, atol=0.0)
        assert np.allclose(k[off] / gaps[off], k.T[off] / gaps.T[off], rtol=1e-10, atol=0.0)


def test_kernel_pole_on_support_rejected():
    with pytest.raises(QuadratureError, match="pole"):
        kernel_matrix(EnsembleSpec("OE", 2), (0.45, -0.1))


def test_kernel_prefactor():
    p = np.array([0.1, -0.1])
    assert kernel_prefactor(p) == 1.0 / (p[1] - p[0])
    # 1 / Delta(p) at four points, a point at 0 included: no power of p
    q = np.array([0.1, 0.0, -0.1, 0.05])
    delta = np.prod([q[i] - q[j] for i in range(4) for j in range(i)])
    assert kernel_prefactor(q) == pytest.approx(1.0 / delta, rel=1e-14)


def test_clip_support():
    assert clip_support(8.0, [], 0.5, 0.0, 4) == 8.0
    assert clip_support(8.0, [20.0], 0.5, 0.0, 4) == 8.0
    clipped = clip_support(12.0, [10.0], 0.5, 0.0, 4)
    assert clipped == pytest.approx(9.2)
    with pytest.raises(QuadratureError):
        clip_support(8.0, [2.0], 0.5, 0.0, 4)


def test_bimoment_diagonal_closed_form():
    m = complex_bimoment_matrix(EnsembleSpec("GinUE", 2), 4)
    for j in range(4):
        assert m[j, j].real == pytest.approx(math.pi * math.factorial(j), rel=1e-9)
    offdiag = m - np.diag(np.diag(m))
    assert np.max(np.abs(offdiag)) < 1e-9 * np.max(np.abs(m))
    for j in range(1, 4):
        assert (m[j, j] / m[j - 1, j - 1]).real == pytest.approx(j, rel=1e-9)


def test_bimoment_one_by_one_is_plain_weight():
    spec = EnsembleSpec("GinUE", 1, 0, CouplingSeq.of(0.2), t_bar=CouplingSeq.of(0.2))
    m = complex_bimoment_matrix(spec, 1)
    assert np.linalg.det(m) == pytest.approx(m[0, 0])


def test_ginue_validator():
    assert EnsembleSpec("GinUE", 2).validate().ok
    assert not EnsembleSpec("GinUE", 2, s=CouplingSeq.of(0, 0.4)).validate().ok
    assert not EnsembleSpec("GinUE", 2, t=CouplingSeq.of(0, 0.6)).validate().ok
    assert not EnsembleSpec("GinUE", 2, L2=3).validate().ok
    with pytest.raises(ValueError):
        complex_bimoment_matrix(EnsembleSpec("SE", 1), 2)


def _valid(kind, t=(), s=(), L=0, alpha=None):
    return EnsembleSpec(kind, 1, L, CouplingSeq(t), CouplingSeq(s), alpha=alpha).validate()


def test_validator_examples():
    assert _valid("OE").ok
    bad = _valid("OE", t=(0, 0, 0.1))
    assert not bad.ok and "odd top degree 3" in bad.reason
    assert _valid("OE", s=(0, 0.5), L=-1).ok


def test_validator_rules():
    assert not _valid("OE", L=-1).ok
    assert not _valid("OE", s=(0.3,)).ok                   # odd s index
    assert not _valid("OE", s=(0, -0.2)).ok                # wrong sign
    assert _valid("SE", t=(0.3, 0.2)).ok
    assert not _valid("SE", t=(0.0, 0.6)).ok
    assert not _valid("GinSE", t=(0.1,), s=(0, 0.4)).ok
    assert not _valid("GinOE", t=(0.1,), s=(0, 0.4)).ok
    # with the complex sector disabled the real-line rules apply
    assert _valid("GinOE", t=(0.1,), s=(0, 0.4), alpha=0.0).ok
    with pytest.raises(ValueError, match="unknown ensemble kind"):
        EnsembleSpec("XX", 0)
    # even negative top degree decays by itself on the real line
    assert _valid("OE", t=(0, 0, 0, -0.1)).ok
    assert not _valid("OE", t=(0, 0, 0, 0.1)).ok


def test_validator_accepts_truncated_miwa_tail():
    from pftau.symfun import miwa_shift
    t = miwa_shift(CouplingSeq.of(0.1), [(-0.5, 0.1)], order=12)
    assert EnsembleSpec("SE", 1, 0, t).validate().ok


# Reference (ok, reason) of EnsembleSpec.validate on every combination below,
# one letter per reason and "." for ok.  A key is (kind, t label); its three
# groups are alpha = None, 0.0, 0.5, each running over s (outer) and L (inner).
# "t3s" passes the complex-sector bound but not the real-line one, so GinOE
# rejects it only through its real-sector check.
_T_GRID = {"0": (), "t1": (0.3,), "t2+": (0.1, 0.3), "t2++": (0.0, 0.6), "t2-": (0.0, -0.3),
           "t2--": (0.0, -0.6), "t3": (0.0, 0.0, 0.1), "t3s": (0.0, 0.0, 0.006),
           "t4-": (0.0, 0.0, 0.0, -0.1), "t4+": (0.0, 0.0, 0.0, 0.1),
           "t6": (0.1, 0.0, 0.0, 0.0, 0.0, 1e-8), "tc": (complex(0.1, 0.2),)}
_S_GRID = ((), (0.3,), (0.0, 0.4), (0.0, -0.2))
_L_GRID = (-2, -1, 0, 1)
_ALPHAS = (None, 0.0, 0.5)
_VALIDATION_REASONS = {
    'a': 'L=-2 puts a pole at the origin and s = 0 cannot damp it',
    'b': 'L=-1 puts a pole at the origin and s = 0 cannot damp it',
    'c': 'odd top s-index 1 blows up on one side of the origin',
    'd': 'nonpositive top s-coefficient s_2 blows up at the origin',
    'e': 'quadratic coupling t_2=0.6 overwhelms the Gaussian',
    'f': 'odd top degree 3 grows at +infinity',
    'g': 'positive top degree 4 grows at infinity',
    'h': 'deformation couplings must be real',
    'i': 's-deformation diverges near 0 along some phase ray of the complex sector; only s = 0 is admissible there',
    'j': 'quadratic coupling t_2=-0.6 overwhelms the Gaussian',
    'k': 'degree-3 coupling outruns the Gaussian on some ray of the complex sector',
    'l': 'degree-4 coupling outruns the Gaussian on some ray of the complex sector',
    'm': 'antiholomorphic determinant power too negative at the origin',
    'n': 's != 0 blows up near 0 on some ray of the full plane',
    'o': '|t_2| >= 1/2 overwhelms the full-plane Gaussian',
    'p': 'degree-3 t-coupling outruns the full-plane Gaussian',
    'q': 'degree-4 t-coupling outruns the full-plane Gaussian',
    'r': 'degree-6 t-coupling outruns the full-plane Gaussian',
    's': 'couplings must be real',
}
_VALIDATION_TABLE = {
    ('OE', '0'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('OE', 't1'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('OE', 't2+'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('OE', 't2++'): 'eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee',
    ('OE', 't2-'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('OE', 't2--'): 'ab..cccc....dddd ab..cccc....dddd jjjjjjjjjjjjjjjj',
    ('OE', 't3'): 'ffffffffffffffff ffffffffffffffff kkkkkkkkkkkkkkkk',
    ('OE', 't3s'): 'ffffffffffffffff ffffffffffffffff abffiiiiiiiiiiii',
    ('OE', 't4-'): 'ab..cccc....dddd ab..cccc....dddd llllllllllllllll',
    ('OE', 't4+'): 'gggggggggggggggg gggggggggggggggg llllllllllllllll',
    ('OE', 't6'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('OE', 'tc'): 'hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh',
    ('SE', '0'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('SE', 't1'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('SE', 't2+'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('SE', 't2++'): 'eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee',
    ('SE', 't2-'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('SE', 't2--'): 'ab..cccc....dddd ab..cccc....dddd jjjjjjjjjjjjjjjj',
    ('SE', 't3'): 'ffffffffffffffff ffffffffffffffff kkkkkkkkkkkkkkkk',
    ('SE', 't3s'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('SE', 't4-'): 'ab..cccc....dddd ab..cccc....dddd llllllllllllllll',
    ('SE', 't4+'): 'gggggggggggggggg gggggggggggggggg llllllllllllllll',
    ('SE', 't6'): 'ab..cccc....dddd ab..cccc....dddd ab..iiiiiiiiiiii',
    ('SE', 'tc'): 'hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh',
    ('GinOE', '0'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinOE', 't1'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinOE', 't2+'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinOE', 't2++'): 'eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee',
    ('GinOE', 't2-'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinOE', 't2--'): 'jjjjjjjjjjjjjjjj ab..cccc....dddd jjjjjjjjjjjjjjjj',
    ('GinOE', 't3'): 'kkkkkkkkkkkkkkkk ffffffffffffffff kkkkkkkkkkkkkkkk',
    ('GinOE', 't3s'): 'abffiiiiiiiiiiii ffffffffffffffff abffiiiiiiiiiiii',
    ('GinOE', 't4-'): 'llllllllllllllll ab..cccc....dddd llllllllllllllll',
    ('GinOE', 't4+'): 'llllllllllllllll gggggggggggggggg llllllllllllllll',
    ('GinOE', 't6'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinOE', 'tc'): 'hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh',
    ('GinSE', '0'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 't1'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 't2+'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 't2++'): 'eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee',
    ('GinSE', 't2-'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 't2--'): 'jjjjjjjjjjjjjjjj ab..cccc....dddd jjjjjjjjjjjjjjjj',
    ('GinSE', 't3'): 'kkkkkkkkkkkkkkkk ffffffffffffffff kkkkkkkkkkkkkkkk',
    ('GinSE', 't3s'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 't4-'): 'llllllllllllllll ab..cccc....dddd llllllllllllllll',
    ('GinSE', 't4+'): 'llllllllllllllll gggggggggggggggg llllllllllllllll',
    ('GinSE', 't6'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 'tc'): 'hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh',
    ('GinUE', '0'): 'm...nnnnnnnnnnnn m...nnnnnnnnnnnn m...nnnnnnnnnnnn',
    ('GinUE', 't1'): 'm...nnnnnnnnnnnn m...nnnnnnnnnnnn m...nnnnnnnnnnnn',
    ('GinUE', 't2+'): 'm...nnnnnnnnnnnn m...nnnnnnnnnnnn m...nnnnnnnnnnnn',
    ('GinUE', 't2++'): 'oooonnnnnnnnnnnn oooonnnnnnnnnnnn oooonnnnnnnnnnnn',
    ('GinUE', 't2-'): 'm...nnnnnnnnnnnn m...nnnnnnnnnnnn m...nnnnnnnnnnnn',
    ('GinUE', 't2--'): 'oooonnnnnnnnnnnn oooonnnnnnnnnnnn oooonnnnnnnnnnnn',
    ('GinUE', 't3'): 'ppppnnnnnnnnnnnn ppppnnnnnnnnnnnn ppppnnnnnnnnnnnn',
    ('GinUE', 't3s'): 'ppppnnnnnnnnnnnn ppppnnnnnnnnnnnn ppppnnnnnnnnnnnn',
    ('GinUE', 't4-'): 'qqqqnnnnnnnnnnnn qqqqnnnnnnnnnnnn qqqqnnnnnnnnnnnn',
    ('GinUE', 't4+'): 'qqqqnnnnnnnnnnnn qqqqnnnnnnnnnnnn qqqqnnnnnnnnnnnn',
    ('GinUE', 't6'): 'rrrrnnnnnnnnnnnn rrrrnnnnnnnnnnnn rrrrnnnnnnnnnnnn',
    ('GinUE', 'tc'): 'ssssnnnnnnnnnnnn ssssnnnnnnnnnnnn ssssnnnnnnnnnnnn',
}


def test_validator_matches_its_reference_table():
    codes = {reason: code for code, reason in _VALIDATION_REASONS.items()}

    def code(v):
        assert v.ok == (v.reason is None)
        return "." if v.ok else codes[v.reason]

    assert set(_VALIDATION_TABLE) == {(kind, label) for kind in moments.KINDS for label in _T_GRID}
    for (kind, label), expected in _VALIDATION_TABLE.items():
        got = " ".join("".join(code(_valid(kind, _T_GRID[label], s, L, alpha))
                               for s in _S_GRID for L in _L_GRID) for alpha in _ALPHAS)
        assert got == expected, (kind, label)


def test_negative_det_power_needs_s_and_works():
    spec = EnsembleSpec("SE", 1, -1, s=CouplingSeq.of(0.0, 0.4))
    pair = moment_pair(spec, 6)
    assert pair.index_base == -1
    assert np.isfinite(pair.a_matrix).all()
    with pytest.raises(ValidationError):
        moment_pair(EnsembleSpec("SE", 1, -1), 6)


@pytest.mark.parametrize("kind,L,s2,ok", [("SE", -1, 1e-250, False), ("SE", -2, 1e-120, False),
                                          ("OE", 0, 1e-320, False), ("SE", -1, 1e-100, True),
                                          ("SE", 0, 1e-250, True), ("OE", -2, 1e-100, True),
                                          ("SE", -2, 0.4, True), ("OE", -2, 0.4, True)])
def test_a_tiny_top_s_coefficient_is_refused_where_the_line_powers_overflow(kind, L, s2, ok):
    # below the inner cut, ~ s_2^(1/2), the rules put no node; at it a table, the oracle or an
    # inserted observable reads up to x^-(mult (|L| + 1)), and the weight x^-2
    spec = EnsembleSpec(kind, 1, L, CouplingSeq.of(0.1), CouplingSeq.of(0.0, s2))
    v = spec.validate()
    assert v.ok is ok
    if ok:
        assert np.isfinite(moment_pair(spec, 8).a_matrix).all()
    else:
        assert "damps the origin only below" in v.reason and "overflows" in v.reason


@pytest.mark.parametrize("kind,n", [("OE", 2), ("SE", 1)])
def test_validator_rejects_s_on_an_explicit_pair_sector(kind, n):
    # alpha != 0 opens the pair sector of a line kind, where s != 0 diverges at 0
    spec = EnsembleSpec(kind, n, 0, CouplingSeq.of(0.2), CouplingSeq.of(0.0, 0.4), alpha=0.5)
    v = spec.validate()
    assert not v.ok and v.reason == _VALIDATION_REASONS["i"]
    with pytest.raises(ValidationError):
        moment_pair(spec, 6)


def _atomic_line(n_atoms: int, seed: int):
    rng = np.random.default_rng(seed)
    xs = rng.permutation(np.linspace(-1.4, 1.4, n_atoms) + rng.uniform(-0.1, 0.1, n_atoms))
    return moments._AtomicLine(xs, rng.uniform(0.3, 1.2, n_atoms))


@pytest.mark.parametrize("n_atoms", range(1, 7))
def test_atomic_line_integrals_of_a_stack_are_its_rows_bit_for_bit(n_atoms):
    line = _atomic_line(n_atoms, n_atoms)
    rows = np.random.default_rng(7).standard_normal((6, n_atoms))
    cums, totals = line.cumulative(rows), line.integrate(rows)
    assert cums.shape == rows.shape and totals.shape == (len(rows),)
    for row, cum, total in zip(rows, cums, totals):
        v = line.weights * row
        # reference: the atoms below each atom plus half its own term, one row at a time
        assert (line._below @ v + v / 2.0).tobytes() == cum.tobytes()
        assert line.cumulative(row).tobytes() == cum.tobytes()
        one = line.integrate(row)
        assert isinstance(one, complex) and one == complex(np.sum(v))
        assert np.complex128(one).tobytes() == np.complex128(total).tobytes()


def _orth_block_by_exponent(line, wv, idx):
    """Reference: the orth block with one cumulative and one integral per exponent."""
    powers = power_table(line.nodes, idx)
    cums = np.stack([line.cumulative(powers[m] * wv) for m in range(len(idx))])
    totals = np.array([line.integrate(powers[m] * wv) for m in range(len(idx))]).real
    inner = 2.0 * cums - totals[:, None]
    powers *= line.weights * wv
    r = powers @ inner.T
    return (r - r.T) / 2.0


@pytest.mark.parametrize("measure", ["panels", "panels-inner-cut", "atoms-1", "atoms-6"])
def test_orth_block_is_the_per_exponent_loop_bit_for_bit(measure):
    idx = np.arange(-1, 9)
    if measure.startswith("panels"):
        s = CouplingSeq.of(0.0, 0.4) if measure.endswith("cut") else ZERO_SEQ
        line, wv = moments.line_rule("orth", ZERO_SEQ, s, 10, 1)
    else:
        line = _atomic_line(int(measure[-1]), 11)
        wv = np.ones(len(line.nodes))
    got = moments._orth_block(line, wv, idx)
    assert got.tobytes() == _orth_block_by_exponent(line, wv, idx).tobytes()


def _kernel_orth_line_by_pair(spec, p):
    """The orthogonal kernel line block with one pair (a, b) of points at a time."""
    def build(level):
        lp, w = moments.line_rule("orth", spec.t, spec.s, abs(spec.L) + 4, level,
                                  [1.0 / v for v in p])
        x = lp.nodes
        base_vals = w * x ** spec.L
        dens = np.stack([1.0 - x * pi for pi in p])
        out = np.empty((len(p), len(p)))
        for a in range(len(p)):
            for b in range(len(p)):
                g = base_vals / (dens[a] * dens[b])
                c0 = lp.cumulative(g)
                c1 = lp.cumulative(x * g)
                out[a, b] = 2.0 * np.sum(lp.weights * g * (x * c0 - c1))
        return out

    return converge(build, rel_tol=2e-9)[0]


# the ids name the |x - y| weight of the block
@pytest.mark.parametrize("L", [0, 1], ids=["0-abs", "1-abs"])
@pytest.mark.parametrize("p", [(0.1, -0.1), (0.06, 0.03, -0.05, -0.02)])
def test_kernel_orth_line_is_the_per_pair_loop_bit_for_bit(L, p):
    spec = EnsembleSpec("OE", len(p), L, CouplingSeq.of(0.2))
    p = np.asarray(p)
    got = moments._kernel_orth_line(spec, p)
    assert got.tobytes() == _kernel_orth_line_by_pair(spec, p).tobytes()


def _worst(table, ref) -> float:
    """Largest deviation from `ref`, relative to the largest entry of `ref`."""
    return float(np.max(np.abs(table - ref)) / np.max(np.abs(ref)))


def _line_sector(sector):
    """The s = 0 table of a line sector, as a function of its size alone."""
    return lambda size: sector(ZERO_SEQ, 0, size)


# the s = 0 sectors, each a closed form, and the (n, m) entries their parity leaves nonzero
_T0_SECTORS = {
    "sympl_border": (_line_sector(moments.sympl_border_moments), lambda n, m: n % 2 == 0),
    "orth_border": (_line_sector(moments.orth_border), lambda n, m: n % 2 == 0),
    "sympl_line": (_line_sector(moments.sympl_sector), lambda n, m: (n + m) % 2 == 1),
    "ginse_complex": (moments.ginse_complex_sector, lambda n, m: abs(n - m) == 1),
    "orth_real": (_line_sector(moments.orth_real_sector), lambda n, m: (n + m) % 2 == 1),
    "ginoe_complex": (moments.ginoe_complex_sector, lambda n, m: (n + m) % 2 == 1),
}
# the half-plane sectors, closed forms only, and the family of their pair weight
_PAIR_FAMILIES = {"ginse_complex": "sympl", "ginoe_complex": "orth"}
# the gate's table sizes and those of the tau-series ratios at cutoff 20
_T0_SIZES = (*range(8, 19), *range(21, 27))


def _quadrature_builds(monkeypatch, name, sizes) -> dict:
    """{size: the s = 0 table of sector `name` by quadrature}, past the memo, at the
    production tolerance: a line sector's own build, and for a half-plane sector the
    `_pair_sector` of the pair rule's nodes and weights, the rule of the oracle's tables."""
    family = _PAIR_FAMILIES.get(name)
    if family is not None:
        def pair_build(size):
            def build(level):
                grid, w = moments._pair_rule(family, ZERO_SEQ, 2 * size, level)
                return moments._pair_sector(family, grid.nodes, grid.weights * w.ravel(),
                                            np.arange(size))
            return build
        return {size: converge(pair_build(size), rel_tol=5e-10)[0] for size in sizes}
    with monkeypatch.context() as m:
        m.setattr(moments, "_cached_sector", lambda name, s, base, size, build, exact:
                  converge(build, rel_tol=5e-10)[0])
        return {size: _T0_SECTORS[name][0](size) for size in sizes}


def test_t0_tables_match_quadrature_free_references(monkeypatch):
    # at t = s = 0 every weight is a plain Gaussian, and every sector is a closed form;
    # each matches the quadrature build of its own convention, and an entry that parity
    # makes zero is exactly 0
    moments.clear_cache()
    closed = {(name, size): sector(size)
              for name, (sector, _) in _T0_SECTORS.items() for size in _T0_SIZES}
    moments.clear_cache()
    for name, (_, nonzero) in _T0_SECTORS.items():
        for size, quadrature in _quadrature_builds(monkeypatch, name, _T0_SIZES).items():
            table = closed[name, size]
            assert table.dtype == np.float64, (name, size)
            assert _worst(table, quadrature) < 1e-13, (name, size)
            n, m = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
            mask = nonzero(n, m) if table.ndim == 2 else nonzero(np.arange(size), 0)
            assert np.all(table[~mask] == 0) and np.all(table[mask] != 0), (name, size)
    moments.clear_cache()
    # the references of the Gamma values themselves, at t = 0 through the whole table
    q = np.arange(12)
    gamma = np.array([math.gamma((k + 1) / 2) for k in q])
    even = q % 2 == 0
    assert _worst(closed["sympl_border", 12], np.where(even, gamma, 0.0)) < 1e-15
    orth = np.where(even, math.sqrt(2.0) * 2.0 ** ((q + 1) / 2) * gamma, 0.0)
    assert _worst(closed["orth_border", 12], orth) < 1e-15
    superdiag = [math.pi / 2 * math.gamma(k + 2) for k in range(11)]
    assert _worst(np.diagonal(closed["ginse_complex", 12], 1), superdiag) < 1e-15


def test_the_table_bound_is_the_largest_size_every_closed_form_holds():
    # every s = 0 sector is finite at MAX_TABLE_SIZE rows, the GinSE pair table overflows a
    # Gamma value one row past it, and moment_pair refuses that size, naming the bound
    size = moments.MAX_TABLE_SIZE
    assert size == 170
    moments.clear_cache()
    for name, (sector, _) in _T0_SECTORS.items():
        assert np.all(np.isfinite(sector(size))), name
    with pytest.raises(OverflowError):
        moments.ginse_complex_sector(size + 1)
    for kind in ("OE", "SE", "GinOE", "GinSE"):
        with pytest.raises(ValueError, match=f"table of {size + 1} rows is past the {size} "):
            moment_pair(EnsembleSpec(kind, 1), size + 1)
    moments.clear_cache()


@pytest.mark.parametrize("sector", [moments.sympl_border_moments, moments.orth_border,
                                    moments.sympl_sector, moments.orth_real_sector],
                         ids=lambda sector: sector.__name__)
def test_a_line_sector_at_s0_refuses_a_negative_index_base(sector):
    # s = 0 always takes the closed form, which starts at row 0: a pole at the origin that
    # s = 0 cannot damp is refused with the validator's reason, before any table is held
    moments.clear_cache()
    with pytest.raises(ValueError, match="L=-1 puts a pole at the origin and s = 0 cannot"):
        sector(ZERO_SEQ, -1, 6)
    assert not moments._SECTOR_CACHE


def _decimal_pi():
    """pi to the precision of the current decimal context, by the series of the `decimal`
    module's documentation."""
    from decimal import Decimal

    lasts, t, pi, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
    while pi != lasts:
        lasts = pi
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        pi += t
    return pi


def _half_gamma(k, sqrt_pi):
    """Gamma(k / 2) for k >= 1 as a Decimal."""
    from decimal import Decimal

    j = k // 2
    if k % 2 == 0:
        return Decimal(math.factorial(j - 1))
    return Decimal(math.factorial(2 * j)) / (Decimal(4) ** j * math.factorial(j)) * sqrt_pi


def _goe_exact_sector(size: int) -> np.ndarray:
    """R[n, m] = iint x^n y^m e^{-(x^2+y^2)/2} sgn(x - y) dx dy for n, m < size in 50-digit
    decimal arithmetic, through sgn(x - y) = 1 - 2 [x < y]: R[n, m] = mu_n mu_m - 2 J[n, m]
    with J[n, m] = int x^n e^{-x^2/2} int_x^inf y^m e^{-y^2/2} dy dx, by parts
        J[n, m] = nu_{n+m-1} + (m-1) J[n, m-2],  J[n, 1] = nu_n,  J[n, 0] = sqrt(pi/2) K_n,
    mu and nu the moments of e^{-x^2/2} and e^{-x^2}, and K_n = int x^n e^{-x^2/2}
    erfc(x / sqrt 2) dx, which is mu_n for even n and -P_n for odd n, where
    P_n = (n-1) P_{n-2} + sqrt(2/pi) nu_{n-1}.  Entries of even n + m cancel to below
    1e-48 of the table, not to 0."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        pi = _decimal_pi()
        sqrt_pi, zero = pi.sqrt(), Decimal(0)
        nu = [_half_gamma(k + 1, sqrt_pi) if k % 2 == 0 else zero for k in range(2 * size)]
        mu = [Decimal(2).sqrt() ** (k + 1) * nu[k] for k in range(size)]
        p_odd = {-1: zero}
        for k in range(1, size, 2):
            p_odd[k] = (k - 1) * p_odd[k - 2] + (2 / pi).sqrt() * nu[k - 1]
        j_table = {}
        for n in range(size):
            j_table[n, 0] = (pi / 2).sqrt() * (mu[n] if n % 2 == 0 else -p_odd[n])
            j_table[n, 1] = nu[n]
            for m in range(2, size):
                j_table[n, m] = nu[n + m - 1] + (m - 1) * j_table[n, m - 2]
        return np.array([[float(mu[n] * mu[m] - 2 * j_table[n, m]) for m in range(size)]
                         for n in range(size)])


def _ginoe_exact_sector(size: int) -> np.ndarray:
    """(T - T^T) / 2i, T[a, b] = int_{Im z > 0} z^a zbar^b erfc(sqrt(2) Im z) e^{-Re z^2} d^2 z
    for a, b < size, by integration by parts in 50-digit decimal arithmetic:
        T[a+1, b] = a T[a-1, b] + (i/2) (c S[a, b] - M[a+b]),
        T[a, b+1] = b T[a, b-1] + (i/2) (M[a+b] - c S[a, b]),
    from T[0, 0] = ln(1 + sqrt 2), with c = 2 sqrt(2 / pi), M[k] = int x^k e^{-x^2} dx and
    S the plain pair table int_{Im z > 0} z^a zbar^b e^{-|z|^2} d^2 z.  Complex numbers
    are (re, im) pairs of Decimals."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        pi = _decimal_pi()
        sqrt_pi = pi.sqrt()

        def plain(a, b):     # S[a, b]: Gamma((a+b)/2 + 1) / 2 times int_0^pi e^{i(a-b)theta}
            radial, diff = _half_gamma(a + b + 2, sqrt_pi) / 2, a - b
            if diff == 0:
                return radial * pi, Decimal(0)
            return Decimal(0), (radial * 2 / diff if diff % 2 else Decimal(0))

        def gauss(k):        # M[k]
            return _half_gamma(k + 1, sqrt_pi) if k % 2 == 0 else Decimal(0)

        def half_i(re, im):  # (i/2) (re + i im)
            return -im / 2, re / 2

        c = 2 * (2 / pi).sqrt()
        zero = (Decimal(0), Decimal(0))
        T = {(0, 0): ((1 + Decimal(2).sqrt()).ln(), Decimal(0))}
        for b in range(size - 1):
            sre, sim = plain(0, b)
            re, im = half_i(gauss(b) - c * sre, -c * sim)
            prev = T.get((0, b - 1), zero)
            T[0, b + 1] = (b * prev[0] + re, b * prev[1] + im)
        for b in range(size):
            for a in range(size - 1):
                sre, sim = plain(a, b)
                re, im = half_i(c * sre - gauss(a + b), c * sim)
                prev = T.get((a - 1, b), zero)
                T[a + 1, b] = (a * prev[0] + re, a * prev[1] + im)
        # (x + iy) / 2i = y/2 - i x/2
        return np.array([[complex(float((T[a, b][1] - T[b, a][1]) / 2),
                                  float(-(T[a, b][0] - T[b, a][0]) / 2))
                          for b in range(size)] for a in range(size)])


def _check_against_reference(monkeypatch, name, exact):
    # one s = 0 sector entry by entry: within 1e-15 of the largest entry, within 1e-13 of
    # each entry that parity leaves nonzero, and at the tau-series sizes no farther from
    # it than the quadrature build is; the others exactly 0, the imaginary parts too
    sector = _T0_SECTORS[name][0]
    quad_sizes = range(21, 27)
    quadrature = _quadrature_builds(monkeypatch, name, quad_sizes)
    moments.clear_cache()
    for size in (*_T0_SIZES, 32):
        table, ref = sector(size), exact(size)
        odd = np.add.outer(np.arange(size), np.arange(size)) % 2 == 1
        assert np.all(table[~odd] == 0) and np.all(np.imag(table) == 0), size
        assert _worst(table, ref) <= 1e-15, size
        rel = np.max(np.abs(table - ref)[odd] / np.abs(ref[odd]))
        assert rel <= 1e-13, (size, rel)
        if size in quad_sizes:
            assert rel <= np.max(np.abs(quadrature[size] - ref)[odd] / np.abs(ref[odd])), size
    moments.clear_cache()


def test_ginoe_pair_sector_matches_its_exact_recursion(monkeypatch):
    _check_against_reference(monkeypatch, "ginoe_complex", _ginoe_exact_sector)


def test_goe_real_sector_matches_its_exact_recursion(monkeypatch):
    _check_against_reference(monkeypatch, "orth_real", _goe_exact_sector)


# ---------------------------------------------------------------------------
# quadrature rules in the per-pass memo

def _counting(monkeypatch, module, name, log):
    """Replace `module.name` by a wrapper that appends its arguments to `log`."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        log.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _rule_keys(tag):
    return [k for k in moments._SECTOR_CACHE if k[0] == tag]


def _hashable(args, kwargs):
    return tuple(a.tobytes() if isinstance(a, np.ndarray) else a for a in args), \
        tuple(sorted(kwargs.items()))


def test_one_pass_builds_each_line_rule_and_plane_grid_once(monkeypatch, gate_experiments):
    from pftau import hub, oracle

    monkeypatch.setattr(moments, "_DISK_CACHE", None)
    calls = {name: [] for name in ("line_rule", "_pair_rule", "LinePanels", "half_plane_grid",
                                   "full_plane_grid", "oracle.full_plane_grid")}
    for name in ("line_rule", "_pair_rule", "LinePanels", "half_plane_grid", "full_plane_grid"):
        _counting(monkeypatch, moments, name, calls[name])
    _counting(monkeypatch, oracle, "full_plane_grid", calls["oracle.full_plane_grid"])
    exps = hub.ratio_experiments(cutoff=20) + [gate_experiments["bimoment-GinUE-N2"]]

    moments.clear_cache()
    assert all(v.passed for v in hub.run_suite(exps))
    builds = {name: [_hashable(*c) for c in log] for name, log in calls.items()}
    grids = [("half", args) for args in builds["half_plane_grid"]] + \
        [("full", args) for args in builds["full_plane_grid"] + builds["oracle.full_plane_grid"]]
    # every line rule and plane grid the pass asked for was built once ...
    assert len(builds["LinePanels"]) == len(_rule_keys("line_rule")) > 0
    assert len(grids) == len(set(grids)) == len(_rule_keys("plane_grid"))
    assert builds["half_plane_grid"] and builds["full_plane_grid"]
    assert builds["oracle.full_plane_grid"]
    # ... and most requests were repeats
    assert len(calls["line_rule"]) > 2 * len(builds["LinePanels"])
    assert len(calls["_pair_rule"]) > 2 * len(builds["half_plane_grid"])

    # a warm pass builds nothing; after clear_cache the next pass builds the same again
    for log in calls.values():
        log.clear()
    hub.run_suite(exps)
    assert not any(calls[name] for name in ("LinePanels", "half_plane_grid", "full_plane_grid",
                                            "oracle.full_plane_grid"))
    moments.clear_cache()
    hub.run_suite(exps)
    again = {name: [_hashable(*c) for c in log] for name, log in calls.items()}
    for name in ("LinePanels", "half_plane_grid", "full_plane_grid", "oracle.full_plane_grid"):
        assert again[name] == builds[name], name
    moments.clear_cache()


def test_memoised_rules_refuse_writes():
    from pftau.oracle import ginue_two_point

    moments.clear_cache()
    lp, wv = moments.line_rule("orth", CouplingSeq.of(0.3), CouplingSeq.of(0.0, 0.4), 10, 1)
    grid, _ = moments._pair_rule("orth", ZERO_SEQ, 12, 0)
    complex_bimoment_matrix(EnsembleSpec("GinUE", 2), 2)
    ginue_two_point(EnsembleSpec("GinUE", 2))
    plane = [moments._SECTOR_CACHE[k] for k in _rule_keys("plane_grid")]
    assert grid in plane and len(plane) >= 3
    arrays = [lp.breakpoints, lp.panels, lp.nodes, lp.weights, wv]
    for g in plane:
        arrays += [g.radii, g.radial_weights, g.angles, g.angle_weights, g.nodes, g.weights]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    moments.clear_cache()
    assert not moments._SECTOR_CACHE


def _bits(a):
    return np.asarray(a).dtype, np.asarray(a).shape, np.asarray(a).tobytes()


@pytest.mark.parametrize("family", ["orth", "sympl"])
def test_memoised_rules_match_a_fresh_build(family):
    t, s = CouplingSeq.of(0.3), CouplingSeq.of(0.0, 0.4)
    gauss0, mult = moments.WEIGHT_CONSTANTS[family]
    lin = mult * 0.3
    # two degrees that resolve to the same line support
    lo = next(d for d in range(4, 40) if moments.gaussian_halfwidth(gauss0, lin, d)
              == moments.gaussian_halfwidth(gauss0, lin, d + 1))
    moments.clear_cache()
    first = moments.line_rule(family, t, s, lo, 1)
    warm = moments.line_rule(family, t, s, lo + 1, 1)
    assert warm is first
    # a degree past that support gets a wider rule of its own
    hi = next(d for d in range(lo + 2, 80) if moments.gaussian_halfwidth(gauss0, lin, d)
              > moments.gaussian_halfwidth(gauss0, lin, lo))
    assert moments.line_rule(family, t, s, hi, 1)[0].breakpoints[-1] > first[0].breakpoints[-1]
    moments.clear_cache()
    cold = moments.line_rule(family, t, s, lo + 1, 1)
    assert cold is not warm
    for a, b in ((warm[0].breakpoints, cold[0].breakpoints), (warm[0].nodes, cold[0].nodes),
                 (warm[0].weights, cold[0].weights), (warm[1], cold[1])):
        assert _bits(a) == _bits(b)

    # pair tables over two exponent ranges whose degrees resolve to the same half-plane support
    gauss, lin = 1.0, 2 * 0.3
    top = next(e for e in range(2, 20) if moments.gaussian_halfwidth(gauss, lin, 2 * e + 2)
               == moments.gaussian_halfwidth(gauss, lin, 2 * e + 4))
    moments.clear_cache()
    moments.pair_moments(family, t, range(top + 1), 1)
    grids = _rule_keys("plane_grid")
    warm_table = moments.pair_moments(family, t, range(top + 2), 1)
    assert _rule_keys("plane_grid") == grids          # the second table reused the grid
    moments.pair_moments(family, t, range(top + 4), 1)
    wider = [moments._SECTOR_CACHE[k] for k in _rule_keys("plane_grid") if k not in grids]
    assert len(wider) == 1 and wider[0].radii[-1] > moments._SECTOR_CACHE[grids[0]].radii[-1]
    moments.clear_cache()
    cold_table = moments.pair_moments(family, t, range(top + 2), 1)
    assert _bits(warm_table) == _bits(cold_table)
    moments.clear_cache()


def test_one_pass_builds_one_angular_table_per_angle_rule(monkeypatch):
    from pftau import hub

    monkeypatch.setattr(moments, "_DISK_CACHE", None)
    built, asked = [], []
    _counting(monkeypatch, quad, "angular_table", built)
    _counting(monkeypatch, moments, "_angular_table", asked)
    exps = hub.ratio_experiments(cutoff=20)

    def rules(log):
        return [(grid.domain, grid.angle_rule) for (grid, _), _ in log]

    moments.clear_cache()
    hub.run_suite(exps)
    first = rules(built)
    assert len(first) == len(set(first)) == len(_rule_keys("angular_table")) >= 2
    # one request per half-plane table, each an oracle pair table of the pass: the GinOE
    # and GinSE sectors are closed forms
    ginoe = [k for k in moments._SECTOR_CACHE if k[1:2] == ("ginoe_complex",)]
    assert len(asked) == len(_rule_keys("oracle_pair"))
    # the oracle's three couplings, and the fallback base, per family and level
    assert len(_rule_keys("oracle_pair")) == 14 and len(ginoe) == 3
    assert {family for _, family, *_ in _rule_keys("oracle_pair")} == {"orth", "sympl"}
    # a warm pass builds none; after clear_cache the next pass builds them again
    built.clear()
    hub.run_suite(exps)
    assert not built
    moments.clear_cache()
    hub.run_suite(exps)
    assert rules(built) == first
    moments.clear_cache()


def test_a_widened_angular_table_serves_the_bits_of_a_narrow_build():
    moments.clear_cache()
    narrow = moments.pair_moments("sympl", ZERO_SEQ, range(6), 1)
    [key] = _rule_keys("angular_table")
    held = moments._SECTOR_CACHE[key]
    assert not held.flags.writeable
    moments.pair_moments("sympl", ZERO_SEQ, range(40), 1)
    [key] = _rule_keys("angular_table")
    wide = moments._SECTOR_CACHE[key]
    assert wide.shape[-1] > held.shape[-1] >= 11
    assert _bits(moments.pair_moments("sympl", ZERO_SEQ, range(6), 1)) == _bits(narrow)
    # and the same as a gram whose cosines and sines are built for it alone
    grid, w = moments._pair_rule("sympl", ZERO_SEQ, 12, 1)
    assert _bits(quad.polar_gram(grid, w, range(6), range(6))) == _bits(narrow)
    moments.clear_cache()
