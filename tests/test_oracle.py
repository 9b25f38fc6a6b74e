import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pftau import moments, oracle
from pftau.hub import acceptance_experiments
from pftau.moments import EnsembleSpec, ginue_weight, pair_moments
from pftau.oracle import (_GINUE_RULES, _batched_power_sums, _pair_sum, det_average_lhs,
                          discrete_consistency, eigen_integral, ginue_two_point,
                          haar_expectation_mc, haar_orthogonal, haar_symplectic, poly_mul,
                          poly_linear, vandermonde_poly)
from pftau.partitions import Partition
from pftau.quad import QuadratureError, full_plane_grid, gaussian_halfwidth
from pftau.symfun import CouplingSeq, ZERO_SEQ, miwa_shift

SQRT_PI = math.sqrt(math.pi)


def test_eigen_se_n1_gaussian():
    res = eigen_integral(EnsembleSpec("SE", 1))
    # one eigenvalue, Delta^4 = 1, with the 1/2-per-line normalization
    assert res.value.real == pytest.approx(SQRT_PI / 2, rel=1e-10)
    assert res.method == "quadrature"


def test_eigen_ginoe_n1_real_sector_only():
    res = eigen_integral(EnsembleSpec("GinOE", 1))
    assert res.value.real == pytest.approx(math.sqrt(2 * math.pi), rel=1e-10)


def test_eigen_se_ratio_closed_form():
    t = CouplingSeq.of(0.3)
    r = eigen_integral(EnsembleSpec("SE", 1, 0, t)).value / eigen_integral(EnsembleSpec("SE", 1)).value
    assert r.real == pytest.approx(math.exp(0.09), rel=1e-9)


def test_eigen_integral_insertions():
    # <x^2> under the symplectic-line weight e^{-x^2} is 1/2
    spec = EnsembleSpec("SE", 1)
    moment = eigen_integral(spec, extra_real=lambda x: x * x).value
    assert (moment / eigen_integral(spec).value).real == pytest.approx(0.5, rel=1e-12)
    # det_average_lhs is eigen_integral with the determinant insertions
    p = (0.1, -0.1)
    ginse = EnsembleSpec("GinSE", 1, 0, CouplingSeq.of(0.2))
    direct = eigen_integral(
        ginse, extra_pair=lambda z: 1.0 / np.prod([((1 - q * z) * (1 - q * np.conj(z))) ** 2
                                                   for q in p], axis=0),
        poles=[1 / q for q in p]).value
    assert det_average_lhs(ginse, p, insert_power=2).value == pytest.approx(direct, rel=1e-12)


def test_eigen_integral_unconverged_raises():
    # no two quadrature levels agree to 1e-300: the best value comes with a residual
    with pytest.raises(QuadratureError) as err:
        eigen_integral(EnsembleSpec("OE", 1, 0, CouplingSeq.of(0.3)), rel_tol=1e-300)
    assert np.isfinite(err.value.residual) and err.value.residual > 0
    assert np.isfinite(abs(err.value.best))


def test_eigen_size_limit():
    with pytest.raises(ValueError, match="N <= 3"):
        eigen_integral(EnsembleSpec("OE", 4))


def test_ordered_symmetrization_identity():
    """N! * ordered integral == full-space |Delta|-weighted integral.

    The full-space side is the gamma-product closed form of the
    |Delta|^(2 gamma)-weighted Gaussian integral at gamma = 1/2.
    """
    for n in (2, 3):
        ordered = eigen_integral(EnsembleSpec("OE", n)).value.real
        full = (2 * math.pi) ** (n / 2)
        for j in range(1, n + 1):
            full *= math.gamma(1 + j / 2) / math.gamma(1.5)
        assert ordered == pytest.approx(full / math.factorial(n), rel=1e-8)


class _RecordingStore:
    """A disk table store that holds nothing and records what it is asked to keep."""

    def __init__(self):
        self.stored = []

    def load(self, key):
        return None

    def store(self, key, table):
        self.stored.append(key)


@pytest.fixture
def levels(monkeypatch):
    """The quadrature levels the eigenvalue oracle evaluates, in call order."""
    seen = []
    at_level = oracle._eigen_value_at_level
    monkeypatch.setattr(oracle, "_eigen_value_at_level",
                        lambda spec, level, *args: seen.append(level) or at_level(spec, level, *args))
    return seen


def test_plain_eigen_integral_is_memoized_until_clear_cache(monkeypatch, levels):
    store = _RecordingStore()
    monkeypatch.setattr(moments, "_DISK_CACHE", store)
    spec = EnsembleSpec("GinOE", 2, 1, CouplingSeq.of(0.1, -0.05))
    moments.clear_cache()
    builds = moments.TABLE_BUILDS
    first = eigen_integral(spec)
    computed = len(levels)
    assert computed >= 2
    # a repeated plain call is the stored result; another rel_tol is another entry
    assert eigen_integral(spec) is first and len(levels) == computed
    eigen_integral(spec, rel_tol=1e-8)
    assert len(levels) > computed
    # neither a table build nor a disk entry
    assert moments.TABLE_BUILDS == builds and store.stored == []
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.value = 0.0
    # after clear_cache the same call computes again, to the same bits
    moments.clear_cache()
    del levels[:]
    again = eigen_integral(spec)
    assert again is not first and len(levels) == computed
    assert (again.value, again.error_estimate) == (first.value, first.error_estimate)


def test_insertions_are_never_served_from_the_memo(levels):
    spec = EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2))
    moments.clear_cache()
    plain = eigen_integral(spec)
    for _ in range(2):
        del levels[:]
        empty = det_average_lhs(spec, ())
        assert levels and empty is not plain
        assert empty.value == pytest.approx(plain.value)


def test_det_average_empty_points_is_eigen():
    spec = EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2))
    assert det_average_lhs(spec, ()).value == pytest.approx(eigen_integral(spec).value)


def test_det_average_equals_miwa_shift():
    spec = EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.1), CouplingSeq.of(0.0, 0.4))
    da = det_average_lhs(spec, (0.1,), insert_power=1)
    tsh = miwa_shift(spec.t, [(-1.0, 0.1)], 0.5, order=12)
    ei = eigen_integral(EnsembleSpec("SE", 1, 0, tsh, spec.s))
    assert da.value == pytest.approx(ei.value, rel=1e-8)


def test_det_average_equals_miwa_shift_oe():
    spec = EnsembleSpec("OE", 2, 0, CouplingSeq.of(0.1))
    da = det_average_lhs(spec, (0.1,), insert_power=1)
    tsh = miwa_shift(spec.t, [(-1.0, 0.1)], 1.0, order=14)
    ei = eigen_integral(EnsembleSpec("OE", 2, 0, tsh))
    assert da.value == pytest.approx(ei.value, rel=1e-7)


def test_haar_orthogonal_statistics():
    rng = np.random.default_rng(0)
    q = haar_orthogonal(rng, 3, batch=4)
    for b in range(4):
        assert np.allclose(q[b] @ q[b].T, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("batch", [1, 200])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_haar_orthogonal_is_positive_diagonal_qr_of_its_draw(n, batch):
    q = haar_orthogonal(np.random.default_rng(17), n, batch=batch)
    g = np.random.default_rng(17).standard_normal((batch, n, n))   # the same draw
    assert q.shape == (batch, n, n)
    eye = np.eye(n)
    assert np.max(np.abs(np.swapaxes(q, 1, 2) @ q - eye)) <= 1e-12
    r = np.swapaxes(q, 1, 2) @ g
    scale = np.max(np.abs(g), axis=(1, 2))
    assert np.all(np.max(np.abs(np.tril(r, -1)), axis=(1, 2)) <= 1e-12 * scale)
    assert np.all(np.diagonal(r, axis1=1, axis2=2) > 0)
    # LAPACK's factor of the same draw, signs fixed the same way
    q_ref, r_ref = np.linalg.qr(g)
    sign = np.sign(np.diagonal(r_ref, axis1=1, axis2=2))
    q_ref = q_ref * np.where(sign == 0, 1.0, sign)[:, None, :]
    gap = np.max(np.abs(q - q_ref), axis=(1, 2))
    assert np.all(gap <= 64 * np.finfo(float).eps * np.linalg.cond(g))


def test_haar_symplectic_structure():
    rng = np.random.default_rng(1)
    q = haar_symplectic(rng, 4, batch=3)
    jmat = np.zeros((4, 4))
    for i in range(2):
        jmat[2 * i, 2 * i + 1] = 1.0
        jmat[2 * i + 1, 2 * i] = -1.0
    for b in range(3):
        m = q[b]
        assert np.allclose(m.conj().T @ m, np.eye(4), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(m.T @ jmat @ m, jmat, atol=1e-10)
        eig = np.linalg.eigvals(m)
        assert np.allclose(np.sort(np.abs(eig)), 1.0, atol=1e-10)


def test_haar_predicates():
    [r] = haar_expectation_mc(("orthogonal", 3), [("schur", Partition((2,)))], 40000, 42)
    assert abs(r.value - 1.0) <= 4 * r.error_estimate
    [r] = haar_expectation_mc(("orthogonal", 3), [("schur", Partition((1,)))], 40000, 43)
    assert abs(r.value) <= 4 * r.error_estimate
    [r] = haar_expectation_mc(("symplectic", 2), [("schur", Partition((1, 1)))], 40000, 44)
    assert abs(r.value - 1.0) <= max(4 * r.error_estimate, 1e-12)


def test_haar_determinism_and_variance_scaling():
    [a] = haar_expectation_mc(("orthogonal", 3), [("schur", Partition((2,)))], 5000, 7)
    [b] = haar_expectation_mc(("orthogonal", 3), [("schur", Partition((2,)))], 5000, 7)
    assert a.value == b.value and a.error_estimate == b.error_estimate
    exp_t = [("exp_trace", CouplingSeq.of(0.2))]
    [small] = haar_expectation_mc(("orthogonal", 3), exp_t, 1000, 11)
    [large] = haar_expectation_mc(("orthogonal", 3), exp_t, 100000, 11)
    shrink = small.error_estimate / large.error_estimate
    assert 10.0 / 2 <= shrink <= 10.0 * 2   # samples^(-1/2) within a factor 2


@pytest.mark.parametrize("group", [("orthogonal", 3), ("symplectic", 2)])
def test_haar_results_do_not_depend_on_payload_grouping(group):
    # orders 3, 1 and 2: the shared power sums are formed at order 3
    payloads = [("schur", Partition((2,))), ("exp_trace", CouplingSeq.of(0.2)),
                ("schur", Partition((1,)))]
    together = haar_expectation_mc(group, payloads, 3001, 5)
    backwards = haar_expectation_mc(group, payloads[::-1], 3001, 5)[::-1]
    assert len(together) == len(payloads)
    for i, payload in enumerate(payloads):
        [alone] = haar_expectation_mc(group, [payload], 3001, 5)
        for res in (together[i], backwards[i]):
            assert (res.value, res.error_estimate) == (alone.value, alone.error_estimate)
    assert haar_expectation_mc(group, [], 3001, 5) == []


@pytest.mark.parametrize("draw,size", [(haar_orthogonal, 3), (haar_symplectic, 2),
                                       (haar_symplectic, 4)])
def test_trace_power_sums_match_eigenvalue_power_sums(draw, size):
    g = draw(np.random.default_rng(3), size, batch=500)
    psums = _batched_power_sums(g, 6)
    eig = np.linalg.eigvals(g)
    for m in range(1, 7):
        assert np.max(np.abs(psums[:, m - 1] - np.sum(eig ** m, axis=1).real)) <= 1e-12
    assert np.array_equal(_batched_power_sums(g, 2), psums[:, :2])


def test_ginue_pair_sum_over_upper_triangle_matches_full_double_sum():
    [e] = [e for e in acceptance_experiments() if e.name == "bimoment-GinUE-N2"]
    spec = e.spec
    log_w, gauss, lin = ginue_weight(spec)
    n_r, r_order, n_theta, t_order = _GINUE_RULES[0]
    grid = full_plane_grid(gaussian_halfwidth(gauss, lin, 6), n_r=n_r, r_order=r_order,
                           n_theta=n_theta, t_order=t_order)
    z = grid.nodes
    w = np.exp(log_w(z)) * z ** spec.L * np.conj(z) ** (-spec.L2) * grid.weights
    rng = np.random.default_rng(8)
    # the level-0 rule, then node counts that leave a short last row block
    cases = [(z, w)] + [(rng.normal(size=k) + 1j * rng.normal(size=k),
                         rng.normal(size=k) + 1j * rng.normal(size=k)) for k in (7, 45)]
    for z, w in cases:
        full = 0.0 + 0.0j
        for i in range(0, len(z), 256):   # every (i, j), the diagonal included
            full += w[i:i + 256] @ (np.abs(z[i:i + 256, None] - z[None, :]) ** 2 @ w)
        assert abs(_pair_sum(z, w) - full) <= 1e-13 * abs(full)


def test_ginue_two_point_memory_peak():
    # the pair sum runs in row blocks; a 2048-row block held 207 MB here
    [e] = [e for e in acceptance_experiments() if e.name == "bimoment-GinUE-N2"]
    tracemalloc.start()
    try:
        ginue_two_point(e.spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_discrete_single_atom_border():
    # one-point measure: lhs = a^L w e^{V(a,t)}, rhs = the border term
    t = CouplingSeq.of(0.2)
    for L in (0, 1, 2):
        lhs, rhs, _ = discrete_consistency(EnsembleSpec("OE", 1, L, t), [(0.8, 1.3)])
        assert lhs == pytest.approx(1.3 * 0.8 ** L * math.exp(0.2 * 0.8))
        assert rhs == pytest.approx(lhs, rel=1e-12)


def test_discrete_atom_count_guards():
    t = CouplingSeq.of(0.1)
    with pytest.raises(ValueError, match="node count"):
        discrete_consistency(EnsembleSpec("OE", 1, 0, t), [])
    with pytest.raises(ValueError, match="node count"):
        discrete_consistency(EnsembleSpec("OE", 2, 0, t), [(0.1 * k, 1.0) for k in range(1, 11)])
    with pytest.raises(ValueError, match="exceeds"):
        discrete_consistency(EnsembleSpec("OE", 3, 0, t), [(0.5, 1.0), (-0.5, 1.0)])


def test_discrete_takes_pfaffian_kinds_at_s_zero():
    t = CouplingSeq.of(0.1)
    with pytest.raises(ValueError, match="GinUE"):
        discrete_consistency(EnsembleSpec("GinUE", 1, 0, t), [(0.5, 1.0)])
    with pytest.raises(ValueError, match="s = 0"):
        discrete_consistency(EnsembleSpec("OE", 1, 0, t, CouplingSeq.of(0, 0.4)), [(0.5, 1.0)])


def test_discrete_ginoe_without_pairs_weight_is_the_real_sector():
    # alpha = 0 silences every pair sector, so the atoms in pairs drop out
    t = CouplingSeq.of(0.07, -0.03)
    reals = [(-1.1, 0.7), (-0.3, 1.2), (0.4, 0.9), (1.2, 0.5)]
    pairs = [(complex(-0.5, 0.4), 0.8), (complex(0.6, 0.7), 1.1)]
    for n in (1, 2, 3):
        for L in (0, 1):
            real = discrete_consistency(EnsembleSpec("OE", n, L, t), reals)
            mixed = discrete_consistency(EnsembleSpec("GinOE", n, L, t, alpha=0.0), reals, pairs)
            assert mixed[0] == real[0]
            assert mixed[1] == pytest.approx(real[1], rel=1e-14)


def test_discrete_oe_pair_and_triple():
    t = CouplingSeq.of(0.1)
    atoms = [(1.0, 1.0), (-1.0, 1.0)]
    lhs, rhs, _ = discrete_consistency(EnsembleSpec("OE", 2, 0, t), atoms)
    assert rhs == pytest.approx(lhs, rel=1e-12)
    atoms4 = [(-1.1, 0.7), (-0.3, 1.2), (0.4, 0.9), (1.2, 0.5)]
    lhs, rhs, scale = discrete_consistency(EnsembleSpec("OE", 3, 0, t), atoms4)
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_discrete_all_kinds_randomized():
    rng = np.random.default_rng(99)
    t = CouplingSeq.of(0.07, -0.03)
    for kind in ("OE", "SE", "GinOE", "GinSE"):
        for trial in range(12):
            n = 1 + trial % 3
            L = int(rng.integers(0, 3))
            xs = np.linspace(-1.3, 1.2, 5) + rng.uniform(-0.04, 0.04, size=5)
            reals = list(zip(xs.tolist(), rng.uniform(0.3, 1.2, size=5).tolist()))
            pairs = None
            if kind in ("GinOE", "GinSE"):
                res = np.linspace(-1.0, 1.0, 4) + rng.uniform(-0.04, 0.04, size=4)
                pairs = [(complex(a, b), w) for a, b, w in
                         zip(res, rng.uniform(0.2, 1.0, size=4), rng.uniform(0.3, 1.2, size=4))]
            lhs, rhs, scale = discrete_consistency(EnsembleSpec(kind, n, L, t), reals, pairs)
            assert abs(lhs - rhs) <= 1e-9 * scale, (kind, n, L)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["OE", "SE", "GinOE", "GinSE"]),
       st.integers(1, 3), st.integers(0, 2))
def test_discrete_identity_property(seed, kind, n, L):
    rng = np.random.default_rng(seed)
    xs = np.linspace(-1.3, 1.2, 5) + rng.uniform(-0.05, 0.05, size=5)
    reals = list(zip(xs.tolist(), rng.uniform(0.3, 1.2, size=5).tolist()))
    pairs = None
    if kind in ("GinOE", "GinSE"):
        res = np.linspace(-1.0, 1.0, 4) + rng.uniform(-0.05, 0.05, size=4)
        pairs = [(complex(a, b), w) for a, b, w in
                 zip(res, rng.uniform(0.2, 1.0, size=4), rng.uniform(0.3, 1.2, size=4))]
    t = CouplingSeq.of(float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.05, 0.05)))
    lhs, rhs, scale = discrete_consistency(EnsembleSpec(kind, n, L, t), reals, pairs)
    assert abs(lhs - rhs) <= 1e-9 * scale


def test_discrete_matches_fock_vev():
    """Third route: the finite-window expectation of exp(Phi) agrees too.

    With the stored border convention (+sqrt(2) times the plain moments),
    <N+L| exp(Phi) |L> equals the eigenvalue sum times (-1)^{(L+1)(N mod 2)}:
    the sqrt(2) of the border cancels against the phi-mode normalization and
    the remaining sign is the phi parity of the charged vacua.
    """
    from pftau.fock import FockWindow, exp_pair_vev
    from pftau.oracle import _atomic_moments
    t = CouplingSeq.of(0.15)
    atoms = [(0.9, 1.1), (-0.5, 0.8), (0.2, 1.3)]
    for n in (1, 2, 3):
        for L in (0, 1, 2):
            spec = EnsembleSpec("OE", n, L, t)
            lhs, _, _ = discrete_consistency(spec, atoms)
            pair = _atomic_moments(spec, atoms, None, base=0, size=n + L + 2, fold_t=True)
            window = FockWindow(-2, n + L + 3)
            vev_val = exp_pair_vev(n + L, pair, L, window)
            sign = (-1.0) ** ((L + 1) * (n % 2))
            assert vev_val == pytest.approx(sign * lhs, rel=1e-10), (n, L)


def test_ginue_two_point_matches_determinant():
    spec = EnsembleSpec("GinUE", 2, 0, CouplingSeq.of(0.2), t_bar=CouplingSeq.of(0.2))
    from pftau.moments import complex_bimoment_matrix
    m = complex_bimoment_matrix(spec, 2)
    direct = ginue_two_point(spec)
    assert direct.value == pytest.approx(2.0 * np.linalg.det(m), rel=1e-6)
    with pytest.raises(ValueError):
        ginue_two_point(EnsembleSpec("GinUE", 3))


def test_poly_helpers():
    p = poly_linear(2, 0, 1)
    sq = poly_mul(p, p)
    assert sq == {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0}
    vdm = vandermonde_poly(2)
    assert vdm == {(1, 0): 1.0, (0, 1): -1.0}


def test_negative_det_power_series_vs_oracle():
    """L = -1 exercises the negative-index moment table; the undeformed base
    vanishes by parity for the single-eigenvalue case, so ratios anchor at a
    small nonzero coupling."""
    from pftau.tauseries import tau_series
    s = CouplingSeq.of(0.0, 0.4)
    t = CouplingSeq.of(0.2)
    tb = CouplingSeq.of(0.07)
    for kind, n in (("SE", 1), ("OE", 1), ("OE", 2)):
        spec = EnsembleSpec(kind, n, -1, t, s)
        tau = tau_series(spec, 12)
        r_series = tau.evaluate(t) / tau.evaluate(tb)
        r_oracle = (eigen_integral(spec).value
                    / eigen_integral(EnsembleSpec(kind, n, -1, tb, s)).value)
        assert r_series == pytest.approx(r_oracle, rel=1e-9), (kind, n)


def test_ginue_unbalanced_det_powers():
    from pftau.moments import complex_bimoment_matrix
    gu = EnsembleSpec("GinUE", 2, 1, CouplingSeq.of(0.2), t_bar=CouplingSeq.of(0.2))
    gub = EnsembleSpec("GinUE", 2, 1, CouplingSeq.of(0.07), t_bar=CouplingSeq.of(0.07))
    r_det = (np.linalg.det(complex_bimoment_matrix(gu, 2))
             / np.linalg.det(complex_bimoment_matrix(gub, 2)))
    r_direct = ginue_two_point(gu).value / ginue_two_point(gub).value
    assert r_det == pytest.approx(r_direct, rel=1e-6)


def test_three_eigenvalue_continuum_ratios():
    """The N=3 engines (mixed sector with border, six-slot expansion) track
    the series at nonzero coupling."""
    from pftau.tauseries import tau_series
    for kind in ("GinOE", "GinSE"):
        t = CouplingSeq.of(0.2)
        tau = tau_series(EnsembleSpec(kind, 3, 0, t), 12)
        r_series = tau.evaluate(t) / tau.evaluate(ZERO_SEQ)
        r_oracle = (eigen_integral(EnsembleSpec(kind, 3, 0, t)).value
                    / eigen_integral(EnsembleSpec(kind, 3, 0)).value)
        assert r_series == pytest.approx(r_oracle, rel=1e-8), kind


def test_pair_moment_table_hermitian_pairing():
    t = pair_moments("GinSE", ZERO_SEQ, ZERO_SEQ, range(5), level=0)
    # T[a,b] with the (z - zbar)-free weight obeys T[b,a] = conj(T[a,b])
    for a in range(5):
        for b in range(5):
            assert t[b, a] == pytest.approx(np.conj(t[a, b]), abs=1e-10 * np.max(np.abs(t)))
