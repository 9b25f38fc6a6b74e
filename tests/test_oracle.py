import dataclasses
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pftau import moments, oracle
from pftau.cli import parse_config
from pftau.hub import Experiment, _z_score, ratio_experiments, run_experiment
from pftau.moments import EnsembleSpec, ginue_weight, pair_moments
from pftau.oracle import (_GINUE_RULES, HAAR_SHARDS, _components, _ginue_rule, _newton,
                          _payload_order, _szego, _two_point_sum, _verblunsky, det_average_lhs,
                          discrete_consistency, eigen_integral, ginue_two_point,
                          haar_expectation_mc)
from pftau.partitions import Partition, conjugate, enumerate_partitions, is_even_partition
from pftau.quad import QuadratureError, full_plane_grid, gaussian_halfwidth
from pftau.symfun import CouplingSeq, ZERO_SEQ, hseq, miwa_shift, potential, schur_from_h
from pftau.tauseries import group_series

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
    # an insertion is a factor per eigenvalue of the matrix: the doubled symplectic line
    # eigenvalue takes x twice, and <x^2> under its weight e^{-x^2} is 1/2
    spec = EnsembleSpec("SE", 1)
    moment = eigen_integral(spec, insertion=lambda x: x).value
    assert (moment / eigen_integral(spec).value).real == pytest.approx(0.5, rel=1e-12)
    # det_average_lhs is eigen_integral with the determinant insertions
    p = (0.1, -0.1)
    ginse = EnsembleSpec("GinSE", 1, 0, CouplingSeq.of(0.2))
    # the pair factor is insertion(z) insertion(zbar), each once
    direct = eigen_integral(
        ginse, insertion=lambda z: 1.0 / np.prod([1 - q * z for q in p], axis=0),
        poles=[1 / q for q in p]).value
    assert det_average_lhs(ginse, p).value == pytest.approx(direct, rel=1e-12)


def test_eigen_integral_unconverged_raises():
    # no two quadrature levels agree to 1e-300: the best value comes with a residual
    with pytest.raises(QuadratureError) as err:
        eigen_integral(EnsembleSpec("OE", 1, 0, CouplingSeq.of(0.3)), rel_tol=1e-300)
    assert np.isfinite(err.value.residual) and err.value.residual > 0
    assert np.isfinite(abs(err.value.best))


def test_eigen_size_limit():
    with pytest.raises(ValueError, match="N <= 4"):
        eigen_integral(EnsembleSpec("OE", 5))


def _mehta(n: int, gamma: float) -> float:
    """int over R^n of prod e^{-x^2/2} |Delta(x)|^(2 gamma) (Mehta's integral)."""
    out = (2 * math.pi) ** (n / 2)
    for j in range(1, n + 1):
        out *= math.gamma(1 + j * gamma) / math.gamma(1 + gamma)
    return out


def test_ordered_symmetrization_identity():
    """N! * ordered integral == full-space |Delta|-weighted integral, the
    closed form of Mehta's integral at gamma = 1/2."""
    for n in (2, 3, 4):
        ordered = eigen_integral(EnsembleSpec("OE", n)).value.real
        assert ordered == pytest.approx(_mehta(n, 0.5) / math.factorial(n), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_se_line_mehta_form(n):
    """The SE line: weight e^{-x^2} and |Delta|^4 over unordered eigenvalues, 1/2
    each; x = u / sqrt(2) turns it into Mehta's integral at gamma = 2."""
    value = eigen_integral(EnsembleSpec("SE", n)).value.real
    closed = _mehta(n, 2.0) * 2.0 ** (-n / 2 - n * (n - 1) - n) / math.factorial(n)
    assert value == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("kind,L", [("OE", 1), ("SE", 1), ("GinOE", 0), ("GinSE", 0)])
def test_four_eigenvalue_ratio_converges_to_the_oracle(kind, L):
    """At N = 4 the cutoff-20 series still carries truncation (up to 8e-4 for SE
    L = 1); eight more weights cut the gap to the oracle at least 100-fold."""
    spec = EnsembleSpec(kind, 4, L, CouplingSeq.of(0.1, -0.05))
    low, high = (run_experiment(Experiment(f"ratio-{kind}-N4-L{L}", "series-vs-oracle-ratio",
                                           spec=spec, tolerance=1e-5, cutoff=cutoff))
                 for cutoff in (20, 28))
    assert high.margin < 1e-5
    assert high.margin * 100 <= low.margin


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


@pytest.mark.parametrize("spec", [EnsembleSpec("GinSE", 2, 1, CouplingSeq.of(0.1)),
                                  EnsembleSpec("GinOE", 4, 1, alpha=1.0, beta=0.0)],
                         ids=["GinSE", "GinOE-mix-1-0"])
def test_a_pair_only_mix_builds_no_line_rule(monkeypatch, spec):
    # at beta = 0 the mix keeps only the sector with no line eigenvalue, so the oracle
    # builds no line rule; a sector of weight 0 with line eigenvalues added to the mix
    # makes it build the line measure, and the value keeps every bit
    p = (0.06, -0.06, 0.03, -0.042)
    calls = []
    line_rule = moments.line_rule
    monkeypatch.setattr(moments, "line_rule",
                        lambda *args, **kw: calls.append(args) or line_rule(*args, **kw))
    lazy = det_average_lhs(spec, p)
    assert not calls
    sectors = oracle._sectors
    monkeypatch.setattr(oracle, "_sectors", lambda s: [*sectors(s), (0, s.n, 0.0)])
    eager = det_average_lhs(spec, p)
    assert calls
    assert (lazy.value, lazy.error_estimate) == (eager.value, eager.error_estimate)


def test_det_average_equals_miwa_shift():
    # the symplectic line weight carries e^{2 V(x, t)}, and the insertion
    # (1 - p x)^{-2} is e^{2 V(x, [p])}: the full shift t + [p]
    spec = EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.1), CouplingSeq.of(0.0, 0.4))
    da = det_average_lhs(spec, (0.1,))
    tsh = miwa_shift(spec.t, [(-1.0, 0.1)], order=12)
    ei = eigen_integral(EnsembleSpec("SE", 1, 0, tsh, spec.s))
    assert da.value == pytest.approx(ei.value, rel=1e-8)


def test_det_average_equals_miwa_shift_oe():
    spec = EnsembleSpec("OE", 2, 0, CouplingSeq.of(0.1))
    da = det_average_lhs(spec, (0.1,))
    tsh = miwa_shift(spec.t, [(-1.0, 0.1)], order=14)
    ei = eigen_integral(EnsembleSpec("OE", 2, 0, tsh))
    assert da.value == pytest.approx(ei.value, rel=1e-7)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)])
@pytest.mark.parametrize("n", range(5))
def test_newton_power_sums_are_those_of_the_szego_roots(n, a, b):
    rng = np.random.default_rng(n)
    phi = _szego([_verblunsky(rng, n, a, b, k, 40) for k in range(2 * n - 1)], 40)
    assert phi.shape == (2 * n + 1, 40)
    psums = _newton(phi, 6)
    for col, p in zip(phi.T, psums.T):
        roots = np.roots(col[::-1])
        assert np.allclose(np.abs(roots), 1.0, atol=1e-6)    # e^{+-i theta_j}
        want = [np.sum(roots ** m).real for m in range(1, 7)]
        assert np.max(np.abs(p - want)) <= 1e-12
    assert np.array_equal(_newton(phi, 2), psums[:2])


def _haar_average(group, size, lam):
    """The exact Haar average of s_lam: 1 if lam (O) or its conjugate (Sp) has even parts
    only and lam fits the matrix size, else 0."""
    even = is_even_partition(lam if group == "orthogonal" else conjugate(lam))
    return float(even and lam.length <= size)


@pytest.mark.parametrize("group", [("orthogonal", n) for n in range(1, 7)]
                         + [("symplectic", n) for n in (2, 4, 6)])
def test_haar_sampler_meets_the_exact_averages(group):
    # every character predicate of weight <= 4 at 4 sigma, and the character series of
    # exp(0.2 Tr g) at 4 sigma
    lams = [lam for lam in enumerate_partitions(4, 6) if lam.weight]
    t = CouplingSeq.of(0.2)
    *results, mc = haar_expectation_mc(group, [("schur", lam) for lam in lams]
                                       + [("exp_trace", t)], 20000, 31)
    for lam, res in zip(lams, results):
        assert _z_score(res, _haar_average(*group, lam)) <= 4.0, lam
    assert _z_score(mc, group_series(*group, t, 30)) <= 4.0


@pytest.mark.parametrize("group,named", [(("unitary", 3), "unknown group"),
                                         (("orthogonal", 0), "size must be >= 1"),
                                         (("symplectic", 3), "must be even")])
def test_haar_refuses_a_group_it_cannot_draw(group, named):
    with pytest.raises(ValueError, match=named):
        haar_expectation_mc(group, [("schur", Partition((1,)))], 100, 1)


def test_haar_refuses_a_single_sample():
    # its standard error would be undefined, and every z-score against it 0
    with pytest.raises(ValueError, match="samples must be >= 2, got 1"):
        haar_expectation_mc(("orthogonal", 3), [("schur", Partition((2,)))], 1, 42)


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


@pytest.mark.parametrize("group", [("orthogonal", n) for n in (2, 3, 4, 5)]
                         + [("symplectic", n) for n in (2, 4, 6)])
def test_haar_schur_payloads_match_the_per_member_stack(group, monkeypatch):
    # the whole block through the Jacobi-Trudi kernel against each sample's table alone,
    # bit for bit, and against LAPACK's determinant of each sample's own matrix, gathered
    # entry by entry, to rounding
    payloads = [("schur", Partition(parts)) for parts in ((), (1,), (2,), (1, 1), (2, 1, 1))]
    got = haar_expectation_mc(group, payloads, 3001, 9)

    def alone(parts, h):
        return np.array([schur_from_h(parts, row) for row in h])

    def lapack(parts, h):
        ell = len(parts[0])
        if not ell:
            return np.ones((len(h), 1))
        m = np.array([[parts[0][i] - i + j for j in range(ell)] for i in range(ell)])
        return np.linalg.det(np.where(m >= 0, h[:, np.maximum(m, 0)], 0.0))[:, None]

    monkeypatch.setattr(oracle, "schur_from_h", alone)
    want = haar_expectation_mc(group, payloads, 3001, 9)
    for a, b in zip(got, want):
        assert (a.value, a.error_estimate) == (b.value, b.error_estimate)
    monkeypatch.setattr(oracle, "schur_from_h", lapack)
    for a, b in zip(got, haar_expectation_mc(group, payloads, 3001, 9)):
        # samples are O(1), so a rounding-level gap is judged against 1, not against a mean
        # or an error estimate that rounding noise alone may make
        scale = max(abs(b.value), 1.0)
        assert abs(a.value - b.value) <= 1e-14 * scale
        assert abs(a.error_estimate - b.error_estimate) <= 1e-14 * scale


def _whole_batch_haar(group, payloads, samples, seed):
    """(mean, stderr) per payload from the same draws held as whole-shard arrays: each
    component's samples scattered back to sample order, every payload value of the batch
    kept, then `np.mean` and `np.std(ddof=1)`."""
    gname, size = group
    comps = _components(gname, size)
    orders = [_payload_order(p) for p in payloads]
    top = max(orders)
    m = np.arange(1, top + 1)[:, None]
    vals = [[] for _ in payloads]
    for i, ss in enumerate(np.random.SeedSequence(seed).spawn(HAAR_SHARDS)):
        cnt = samples // HAAR_SHARDS + (i < samples % HAAR_SHARDS)
        rng = np.random.default_rng(ss)
        pick = rng.integers(len(comps), size=cnt)
        psums = np.empty((top, cnt))
        for k, (n, a, b, fixed) in enumerate(comps):
            rows = pick == k
            count = int(np.count_nonzero(rows))
            alphas = [_verblunsky(rng, n, a, b, j, count) for j in range(2 * n - 1)]
            psums[:, rows] = _newton(_szego(alphas, count), top) + sum(f ** m for f in fixed)
        h = hseq(top, psums.T)
        for (what, arg), order, out in zip(payloads, orders, vals):
            if what == "schur":
                out.append(schur_from_h([arg.parts], h)[:, 0])
            else:
                out.append(np.exp(sum(float(arg.entry(j).real) * psums[j - 1]
                                      for j in range(1, order + 1))))
    vals = [np.concatenate(v) for v in vals]
    return [(np.mean(v), np.std(v, ddof=1) / math.sqrt(samples)) for v in vals]


@pytest.mark.parametrize("samples", [2, 7, 3001, 100000])
@pytest.mark.parametrize("group", [("orthogonal", n) for n in range(1, 7)]
                         + [("symplectic", n) for n in (2, 4, 6)])
def test_haar_block_reduction_matches_the_whole_batch(group, samples):
    # at 7 samples some shard holds one sample and some component none; 100000 spans
    # several blocks per component
    payloads = [("schur", Partition(parts)) for parts in ((), (1,), (2,), (1, 1), (2, 1, 1))]
    payloads.append(("exp_trace", CouplingSeq.of(0.2, -0.1)))
    got = haar_expectation_mc(group, payloads, samples, 17)
    want = _whole_batch_haar(group, payloads, samples, 17)
    # the mean's gap is judged against max(|mean|, stderr): a payload that vanishes on the
    # group (s_(2,1,1) on O(2) has more rows than eigenvalues) has a mean that is rounding
    # noise, which the two summation orders cancel differently
    for res, (mean, stderr) in zip(got, want):
        assert abs(res.value - mean) <= 1e-14 * max(abs(mean), stderr)
        assert abs(res.error_estimate - stderr) <= 1e-14 * stderr


def test_haar_memory_does_not_grow_with_samples():
    # the gate's O(3) payloads; the blocks bound every array
    payloads = [("schur", Partition(parts)) for parts in ((2,), (1,), (1, 1))]
    payloads.append(("exp_trace", CouplingSeq.of(0.2)))
    peaks = []
    for samples in (100000, 800000):
        tracemalloc.start()
        try:
            haar_expectation_mc(("orthogonal", 3), payloads, samples, 42)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("L, L2", [(0, 0), (1, -1), (3, -2), (1, 1), (0, 3)])
def test_ginue_rule_weight_is_scalar_complex_arithmetic(L, L2):
    # e^{log_w} z^L zbar^(-L2) times the rule's weight, node by node with Python complex
    # scalars: running products of z, of zbar or of its reciprocal, which alone is NumPy's
    # division, then the products left to right
    spec = EnsembleSpec("GinUE", 2, L, CouplingSeq.of(0.2, 0.1), L2=L2,
                        t_bar=CouplingSeq.of(0.3))
    z, w = _ginue_rule(spec, 0)
    log_w, gauss, lin = ginue_weight(spec)
    grid = full_plane_grid(gaussian_halfwidth(gauss, lin, 6), *_GINUE_RULES[0])
    assert np.array_equal(grid.nodes, z)
    base = np.conj(z) if L2 <= 0 else 1.0 / np.conj(z)
    want = []
    for e, x, y, weight in zip(np.exp(log_w(z)).tolist(), z.tolist(), base.tolist(),
                               grid.weights.tolist()):
        zl = 1 + 0j
        for _ in range(L):
            zl = zl * x
        zbar = 1 + 0j if L2 == 0 else y
        for _ in range(abs(L2) - 1):
            zbar = zbar * y
        want.append(e * zl * zbar * weight)
    assert np.array_equal(w, np.array(want))


def _full_double_sum(z, w):
    """sum_ij w_i w_j |z_i - z_j|^2 over every (i, j), the diagonal included: O(nodes^2)."""
    full = 0.0 + 0.0j
    for i in range(0, len(z), 256):
        full += w[i:i + 256] @ (np.abs(z[i:i + 256, None] - z[None, :]) ** 2 @ w)
    return full


def test_ginue_two_point_contraction_matches_the_full_double_sum(gate_experiments):
    spec = gate_experiments["bimoment-GinUE-N2"].spec
    rng = np.random.default_rng(8)
    # the gate spec's first two rules, the det powers (L, L2) = (1, -1), the |w| yardstick
    # of a spec that vanishes by rotation, and random complex node sets and weights
    cases = [_ginue_rule(spec, 0), _ginue_rule(spec, 1),
             _ginue_rule(dataclasses.replace(spec, L=1, L2=-1), 0)]
    z, w = _ginue_rule(EnsembleSpec("GinUE", 2, L=1, L2=1), 0)
    cases.append((z, np.abs(w)))
    cases += [(rng.normal(size=k) + 1j * rng.normal(size=k),
               rng.normal(size=k) + 1j * rng.normal(size=k)) for k in (7, 45, 300)]
    for z, w in cases:
        full = _full_double_sum(z, w)
        assert abs(_two_point_sum(z, w, 2) - full) <= 1e-13 * abs(full)


def test_ginue_two_point_memory_peak(gate_experiments):
    # the oracle holds a few arrays of the rule's size; an all-pairs block of 2048 rows
    # held 207 MB
    tracemalloc.start()
    try:
        ginue_two_point(gate_experiments["bimoment-GinUE-N2"].spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def _one_trial(spec, real_atoms, pair_atoms=None):
    """The (lhs, rhs, scale) of one trial: `discrete_consistency` of a list of one."""
    [sides] = discrete_consistency([(spec, real_atoms, pair_atoms)])
    return sides


def test_discrete_single_atom_border():
    # one-point measure: lhs = a^L w e^{V(a,t)}, rhs = the border term
    t = CouplingSeq.of(0.2)
    for L in (0, 1, 2):
        lhs, rhs, _ = _one_trial(EnsembleSpec("OE", 1, L, t), [(0.8, 1.3)])
        assert lhs == pytest.approx(1.3 * 0.8 ** L * math.exp(0.2 * 0.8))
        assert rhs == pytest.approx(lhs, rel=1e-12)


def test_discrete_atom_count_guards():
    t = CouplingSeq.of(0.1)
    with pytest.raises(ValueError, match="node count"):
        _one_trial(EnsembleSpec("OE", 1, 0, t), [])
    with pytest.raises(ValueError, match="node count"):
        _one_trial(EnsembleSpec("OE", 2, 0, t), [(0.1 * k, 1.0) for k in range(1, 11)])
    with pytest.raises(ValueError, match="exceeds"):
        _one_trial(EnsembleSpec("OE", 3, 0, t), [(0.5, 1.0), (-0.5, 1.0)])


def test_discrete_takes_pfaffian_kinds_at_s_zero():
    t = CouplingSeq.of(0.1)
    with pytest.raises(ValueError, match="GinUE"):
        _one_trial(EnsembleSpec("GinUE", 1, 0, t), [(0.5, 1.0)])
    with pytest.raises(ValueError, match="s = 0"):
        _one_trial(EnsembleSpec("OE", 1, 0, t, CouplingSeq.of(0, 0.4)), [(0.5, 1.0)])


def test_discrete_ginoe_without_pairs_weight_is_the_real_sector():
    # alpha = 0 silences every pair sector, so the atoms in pairs drop out
    t = CouplingSeq.of(0.07, -0.03)
    reals = [(-1.1, 0.7), (-0.3, 1.2), (0.4, 0.9), (1.2, 0.5)]
    pairs = [(complex(-0.5, 0.4), 0.8), (complex(0.6, 0.7), 1.1)]
    for n in (1, 2, 3):
        for L in (0, 1):
            real = _one_trial(EnsembleSpec("OE", n, L, t), reals)
            mixed = _one_trial(EnsembleSpec("GinOE", n, L, t, alpha=0.0), reals, pairs)
            assert mixed[0] == real[0]
            assert mixed[1] == pytest.approx(real[1], rel=1e-14)


def test_discrete_pair_kinds_at_a_negative_L():
    # a negative L reads the pair atoms' negative powers, rows below index 0
    t = CouplingSeq.of(0.07, -0.03)
    reals = [(-1.1, 0.7), (-0.3, 1.2), (0.4, 0.9), (1.2, 0.5)]
    pairs = [(complex(-0.5, 0.4), 0.8), (complex(0.6, 0.7), 1.1)]
    for kind in ("GinOE", "GinSE"):
        for n, L in ((1, -1), (1, -2), (2, -1)):
            lhs, rhs, scale = _one_trial(EnsembleSpec(kind, n, L, t), reals, pairs)
            assert abs(lhs - rhs) <= 1e-12 * scale, (kind, n, L)


def test_discrete_oe_pair_and_triple():
    t = CouplingSeq.of(0.1)
    atoms = [(1.0, 1.0), (-1.0, 1.0)]
    lhs, rhs, _ = _one_trial(EnsembleSpec("OE", 2, 0, t), atoms)
    assert rhs == pytest.approx(lhs, rel=1e-12)
    atoms4 = [(-1.1, 0.7), (-0.3, 1.2), (0.4, 0.9), (1.2, 0.5)]
    lhs, rhs, scale = _one_trial(EnsembleSpec("OE", 3, 0, t), atoms4)
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
            lhs, rhs, scale = _one_trial(EnsembleSpec(kind, n, L, t), reals, pairs)
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
    lhs, rhs, scale = _one_trial(EnsembleSpec(kind, n, L, t), reals, pairs)
    assert abs(lhs - rhs) <= 1e-9 * scale


def test_discrete_matches_fock_vev():
    """Third route: the finite-window expectation of exp(Phi) agrees too.

    With the stored border convention (+sqrt(2) times the plain moments),
    <N+L| exp(Phi) |L> equals the eigenvalue sum times (-1)^{(L+1)(N mod 2)}:
    the sqrt(2) of the border cancels against the phi-mode normalization and
    the remaining sign is the phi parity of the charged vacua.
    """
    from pftau.fock import FockWindow, exp_pair_vev
    from pftau.moments import atomic_pair
    from pftau.skewlin import SkewPair
    t = CouplingSeq.of(0.15)
    atoms = [(0.9, 1.1), (-0.5, 0.8), (0.2, 1.3)]
    # the vev sees t only through the weights: e^{V(x,t)} per real eigenvalue
    folded = [(x, w * math.exp(potential(x, t))) for x, w in atoms]
    for n in (1, 2, 3):
        for L in (0, 1, 2):
            spec = EnsembleSpec("OE", n, L, t)
            lhs, _, _ = _one_trial(spec, atoms)
            stack = atomic_pair(spec, [(folded, None)], size=n + L + 2)
            pair = SkewPair(stack.a_matrix[0], stack.border[0], stack.index_base)
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


@pytest.mark.parametrize("L, L2", [(1, 1), (1, 0)])
def test_ginue_two_point_vanishing_by_rotation_returns_zero(L, L2):
    spec = EnsembleSpec("GinUE", 2, L=L, L2=L2)
    res = ginue_two_point(spec)
    # sum_ij |w_i w_j| |z_i - z_j|^2 on the first rule, by the brute-force double sum
    z, w = _ginue_rule(spec, 0)
    floor = 2e-6 * _full_double_sum(z, np.abs(w)).real
    assert floor > 1e-6
    assert abs(res.value) <= floor and res.error_estimate <= floor


@pytest.mark.parametrize("L, L2, value", [(0, 0, 2 * math.pi ** 2), (1, -1, 4 * math.pi ** 2)],
                         ids=["0-0", "1--1"])
def test_ginue_two_point_nonvanishing_values_unchanged(L, L2, value):
    # the exact values, both real, within 8 ulps in the real part and 1 ulp of the value in
    # the imaginary part: under the OpenBLAS kernels and NumPy SIMD dispatches tried the
    # quadrature reads -4 to +5 ulps and imaginary parts of 0.03 ulp or less
    got = ginue_two_point(EnsembleSpec("GinUE", 2, L=L, L2=L2)).value
    assert abs(got.real - value) <= 8 * math.ulp(value)
    assert abs(got.imag) <= math.ulp(value)


@pytest.mark.parametrize("L, L2, value", [(0, 0, 2 * math.pi ** 2), (1, -1, 4 * math.pi ** 2)],
                         ids=["0-0", "1--1"])
def test_ginue_two_point_closed_forms(L, L2, value):
    # 2 (m0 m2 - |m1|^2) for the weight |z|^2L e^{-|z|^2}: m1 = 0, (m0, m2) = (pi, pi) or (pi, 2 pi)
    res = ginue_two_point(EnsembleSpec("GinUE", 2, L=L, L2=L2))
    assert abs(res.value - value) <= 1e-13


@pytest.mark.parametrize("t, t_bar, closed_form", [
    ((0.2,), (0.2,), math.exp(2 * 0.2 * 0.2)),
    ((0.3,), (-0.1,), math.exp(2 * 0.3 * -0.1)),
    ((0.15,), (0.25,), math.exp(2 * 0.15 * 0.25)),
    ((0.0, 0.1), (0.0, 0.05), (1 - 4 * 0.1 * 0.05) ** -2),
    ((0.0, 0.15), (0.0, -0.1), (1 - 4 * 0.15 * -0.1) ** -2),
    ((0.0, 0.2), (0.0, 0.2), (1 - 4 * 0.2 * 0.2) ** -2),
], ids=["t1-0.2-0.2", "t1-0.3--0.1", "t1-0.15-0.25", "t2-0.1-0.05", "t2-0.15--0.1", "t2-0.2-0.2"])
def test_ginue_two_point_ratio_closed_forms(t, t_bar, closed_form):
    # Z(t)/Z(0) at N = 2, L = L2 = 0: a translation of z gives e^{2 t1 t1'}, and a linear
    # change of variables the Gaussian (1 - 4 t2 t2')^{-N^2/2}
    spec = EnsembleSpec("GinUE", 2, t=CouplingSeq.of(*t), t_bar=CouplingSeq.of(*t_bar))
    ratio = ginue_two_point(spec).value / ginue_two_point(EnsembleSpec("GinUE", 2)).value
    assert abs(ratio / closed_form - 1.0) <= 1e-11


@pytest.mark.parametrize("a, b, L", [(-0.271, 0.3, 1), (0.3, -0.1, 1), (0.091, -0.159, 2)])
def test_ginue_two_point_holds_rounding_accuracy_at_det_powers(a, b, L):
    # exactly 2 (m00 m11 - m10 m01), m_jk = int z^(L+j) zbar^(L+k) e^{-|z|^2 + a z + b zbar}
    # = pi e^{ab} sum_i C(L+j, i) C(L+k, i) i! b^(L+j-i) a^(L+k-i); 1e-13 sits far above
    # rounding and far below what a too-coarse returned rule loses at these t1 != t1'
    def m(j, k):
        return math.pi * math.exp(a * b) * sum(
            math.comb(j, i) * math.comb(k, i) * math.factorial(i) * b ** (j - i) * a ** (k - i)
            for i in range(min(j, k) + 1))

    exact = 2 * (m(L, L) * m(L + 1, L + 1) - m(L + 1, L) * m(L, L + 1))
    spec = EnsembleSpec("GinUE", 2, L=L, L2=-L, t=CouplingSeq.of(a), t_bar=CouplingSeq.of(b))
    assert abs(ginue_two_point(spec).value / exact - 1.0) <= 1e-13


def _gaussian_series_two_point(t, t_bar, L, top=48):
    """2 (m_00 m_11 - m_10 m_01), m_jk = int z^(L+j) zbar^(L+k) e^{V(z,t) + V(zbar,t') - |z|^2}
    d^2 z, exactly for the float couplings up to the series' tail: with
    e^{t1 x + t2 x^2} = sum_a c_a x^a, m_jk = pi sum_a c_a c'_(a+j-k) (L+j+a)!."""
    def coeffs(t1, t2):
        t1, t2 = Fraction(t1), Fraction(t2)
        return [sum(t1 ** (a - 2 * q) * t2 ** q / (math.factorial(a - 2 * q) * math.factorial(q))
                    for q in range(a // 2 + 1)) for a in range(top + 1)]

    c, cb = coeffs(*t), coeffs(*t_bar)

    def m(j, k):
        return sum(c[a] * cb[a + j - k] * math.factorial(L + j + a)
                   for a in range(top + 1) if 0 <= a + j - k <= top)

    return float(2 * (m(0, 0) * m(1, 1) - m(1, 0) * m(0, 1))) * math.pi ** 2


def test_ginue_two_point_climb_returns_a_finer_rule(monkeypatch):
    # the first two rules part here by more than rel_tol, so the ladder climbs; a third
    # rule with fewer angular nodes than the second (56 by 48 against 36 by 56) returned
    # a value 1.4e-10 off, where the second rule alone reads 1.7e-12
    t, t_bar = (0.083, 0.149), (-0.2, -0.193)
    radial, angular = (n * order for n, order in np.reshape(_GINUE_RULES[1], (2, 2)))
    for n_r, r_order, n_theta, t_order in _GINUE_RULES[2:]:
        assert n_r * r_order > radial and n_theta * t_order > angular
    spec = EnsembleSpec("GinUE", 2, L=1, L2=-1, t=CouplingSeq.of(*t),
                        t_bar=CouplingSeq.of(*t_bar))
    exact = _gaussian_series_two_point(t, t_bar, 1)
    assert exact == _gaussian_series_two_point(t, t_bar, 1, top=64)
    first_two = []
    climbs = oracle.converge

    def spy(build, rel_tol, **kw):
        first_two.extend([build(0), build(1)])
        return climbs(build, rel_tol, **kw)

    monkeypatch.setattr(oracle, "converge", spy)
    value = ginue_two_point(spec).value
    assert abs(first_two[1] - first_two[0]) > 2e-6 * abs(first_two[1])
    assert abs(value / exact - 1.0) <= 1e-11


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda nv: st.tuples(
    st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1), st.integers(1, 4)),
             max_size=5),
    st.lists(st.integers(-4, 4), min_size=nv, max_size=nv))))
def test_expansion_matches_the_direct_product(case):
    factors, point = case
    exps, coeffs = oracle._expand(len(point), factors)
    expanded = sum(c * math.prod(x ** e for x, e in zip(point, row))
                   for row, c in zip(exps.tolist(), coeffs.tolist()))
    assert expanded == math.prod((point[a] - point[b]) ** p for a, b, p in factors)


def test_sector_polynomials():
    # one quaternion pair: (z - zbar) from Delta and one from the pair weight
    exps, coeffs, _, _ = oracle._sector_poly("sympl", 1, 0)
    assert sorted(zip(map(tuple, exps.tolist()), coeffs.tolist())) == [
        ((0, 2), 1), ((1, 1), -2), ((2, 0), 1)]
    # three real eigenvalues: the Vandermonde, sum over permutations of x^(2,1,0)
    exps, coeffs, line_rows, line_index = oracle._sector_poly("orth", 0, 3)
    assert len(coeffs) == 6 and set(np.abs(coeffs).tolist()) == {1}
    for row, c in zip(exps.tolist(), coeffs.tolist()):
        assert sorted(row) == [0, 1, 2]
        ascents = sum(row[i] < row[j] for i in range(3) for j in range(i + 1, 3))
        assert c == (-1) ** ascents
    np.testing.assert_array_equal(line_rows[line_index], exps)


@pytest.mark.parametrize("kind", ["GinOE", "GinSE"])
def test_eigen_value_does_not_depend_on_the_expansion_cache(kind):
    spec = EnsembleSpec(kind, 3, 1, CouplingSeq.of(0.1, -0.05))
    oracle._sector_poly.cache_clear()
    moments.clear_cache()
    cold = eigen_integral(spec).value
    moments.clear_cache()
    hits = oracle._sector_poly.cache_info().hits
    warm = eigen_integral(spec).value
    assert oracle._sector_poly.cache_info().hits > hits
    assert (cold.real, cold.imag) == (warm.real, warm.imag)


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
    t = pair_moments("sympl", ZERO_SEQ, range(5), level=0)
    # T[a,b] with the (z - zbar)-free weight obeys T[b,a] = conj(T[a,b])
    for a in range(5):
        for b in range(5):
            assert t[b, a] == pytest.approx(np.conj(t[a, b]), abs=1e-10 * np.max(np.abs(t)))


# ---------------------------------------------------------------------------
# the half-plane ladder: a 2304-node confirming rule, then 5760 nodes, doubled per level

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
# 92160 nodes, two doublings past the 5760-node rule that a converged table comes from
REFERENCE_LEVEL = 3


def _at_level(level):
    """A `converge` that returns its build at `level` without comparing levels."""
    return lambda build, rel_tol, **kwargs: (build(level), 0.0)


def _shipped_pair_calls(monkeypatch):
    """The arguments of every `eigen_integral` and `_kernel_pair_block` call on a spec with a
    pair sector that the shipped configs make, each once."""
    calls = {}
    eigen, block = oracle.eigen_integral, moments._kernel_pair_block

    def spy_eigen(spec, rel_tol=1e-9, insertion=None, poles=None):
        calls.setdefault(("eigen", spec, rel_tol, repr(poles)), (spec, rel_tol, insertion, poles))
        return eigen(spec, rel_tol, insertion, poles)

    def spy_block(spec, p):
        calls.setdefault(("block", spec, tuple(p.tolist())), (spec, p))
        return block(spec, p)

    with monkeypatch.context() as m:
        m.setattr(oracle, "eigen_integral", spy_eigen)
        m.setattr(moments, "_kernel_pair_block", spy_block)
        for path in sorted(CONFIGS.glob("*.json")):
            for e in parse_config(path.read_text()).experiments:
                if (e.spec is not None and e.spec.family != "unitary" and e.spec.mix[0]
                        and e.comparison in ("series-vs-oracle-ratio", "kernel-vs-oracle")):
                    assert run_experiment(e).passed, e.name
    return [(key[0], args) for key, args in calls.items()]


def _assert_ladder_matches_the_reference(monkeypatch, kind, args):
    if kind == "eigen":
        spec, rel_tol, insertion, poles = args
        value = eigen_integral(spec, rel_tol, insertion, poles).value
        ref = oracle._eigen_value_at_level(spec, REFERENCE_LEVEL, insertion, poles)[0]
    else:
        value = moments._kernel_pair_block(*args)
        with monkeypatch.context() as m:
            m.setattr(moments, "converge", _at_level(REFERENCE_LEVEL))
            ref = moments._kernel_pair_block(*args)
    assert np.max(np.abs(value - ref)) <= 1e-13 * np.max(np.abs(ref)), args[0]


def test_the_half_plane_ladder_holds_every_shipped_pair_value(monkeypatch):
    calls = _shipped_pair_calls(monkeypatch)
    # the GinOE and GinSE ratio oracles of the gate and compare_oracle_ginse.json, the
    # determinant averages and kernel pair blocks of the kernel configs
    assert {kind for kind, _ in calls} == {"eigen", "block"}
    for kind, args in calls:
        _assert_ladder_matches_the_reference(monkeypatch, kind, args)


@pytest.mark.parametrize("kind", ["GinOE", "GinSE"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("t", [(0.1,), (0.2, -0.1), (0.3, 0.1)])
def test_the_half_plane_ladder_holds_the_oracle_sweep(monkeypatch, kind, n, t):
    for L in (0, 1, 2):
        spec = EnsembleSpec(kind, n, L, CouplingSeq.of(*t))
        _assert_ladder_matches_the_reference(monkeypatch, "eigen", (spec, 1e-9, None, None))


@pytest.mark.parametrize("kind", ["OE", "GinOE"])
def test_a_value_that_vanishes_by_symmetry_converges_at_level_1(levels, kind):
    # at N = 3, L = 1 and t = 0 every sector is odd under x -> -x, so the value is
    # rounding noise on every level, and no two levels agree relative to it
    spec = EnsembleSpec(kind, 3, 1)
    moments.clear_cache()
    res = eigen_integral(spec)
    assert levels == [0, 1]
    floor = 1e-9 * oracle._eigen_value_at_level(spec, 0)[1]
    assert abs(res.value) < floor and res.error_estimate < floor


def _bits(specs) -> dict:
    """Each plain oracle value and error estimate of `specs`, as the hex of its floats."""
    out = {}
    for spec in specs:
        res = eigen_integral(spec)
        out[spec] = tuple(float(x).hex() for x in (res.value.real, res.value.imag,
                                                  res.error_estimate))
    return out


def test_oracle_values_do_not_depend_on_run_order_or_the_memo(monkeypatch):
    # the 50 distinct specs whose oracle the tau-series ratios read: they share pair tables
    # and line integrals through the per-pass memo, which must not move a bit
    specs = {}
    eigen = oracle.eigen_integral
    with monkeypatch.context() as m:
        m.setattr(oracle, "eigen_integral",
                  lambda spec, *args: specs.setdefault(spec) or eigen(spec, *args))
        for e in ratio_experiments(cutoff=20):
            run_experiment(e)
    specs = list(specs)
    assert len(specs) == 50
    moments.clear_cache()
    forward = _bits(specs)
    moments.clear_cache()
    backward = _bits(specs[::-1])
    alone = {}
    for spec in specs:
        moments.clear_cache()
        alone.update(_bits([spec]))
    assert forward == backward == alone
