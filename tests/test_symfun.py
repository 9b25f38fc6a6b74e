import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pftau.partitions import Partition, enumerate_partitions, length_groups
from pftau.symfun import (CouplingSeq, ZERO_SEQ, c_factor, hseq,
                          miwa_shift, potential, schur_from_h)

finite = st.floats(-2.0, 2.0, allow_nan=False)


def _schur(lam: Partition, t: CouplingSeq):
    """s_lambda(t) of one partition by Jacobi-Trudi over hseq, as a one-row stack; s_empty = 1."""
    if not lam.length:
        return 1.0
    return schur_from_h([lam.parts], hseq(lam.parts[0] + lam.length, t))[0]


def test_potential_examples():
    assert potential(3.7, ZERO_SEQ) == 0.0
    assert potential(2.0, CouplingSeq.of(1.0, 0.0, 3.0)) == pytest.approx(26.0)
    a, b, c = 0.3, -1.2, 0.77
    assert potential(1.0, CouplingSeq.of(a, b, c)) == pytest.approx(a + b + c)


def test_complete_homogeneous_low_orders():
    t1, t2, t3 = 0.37, -0.21, 0.11
    t = CouplingSeq.of(t1, t2, t3)
    assert hseq(0, t)[0] == 1.0
    assert hseq(2, t)[2] == pytest.approx(t2 + t1 ** 2 / 2)
    assert hseq(3, t)[3] == pytest.approx(t3 + t1 * t2 + t1 ** 3 / 6)
    with pytest.raises(ValueError):
        hseq(-1, t)


def test_generating_function_identity():
    rng = np.random.default_rng(5)
    t = CouplingSeq(tuple(rng.uniform(-0.5, 0.5, size=4)))
    h = hseq(8, t)
    # Taylor coefficients of exp(V(z,t)) through degree 8 via exact convolution
    # of the exponential series with the polynomial V
    v = np.zeros(9)
    for n in range(1, 5):
        v[n] = t.entry(n)
    coeff = np.zeros(9)
    coeff[0] = 1.0
    term = np.array(coeff)
    for k in range(1, 9):
        term = np.convolve(term, v)[:9] / k
        coeff += term
    assert np.allclose(h, coeff, atol=1e-12)


def test_schur_examples():
    t = CouplingSeq.of(0.6, -0.3)
    assert _schur(Partition((1,)), t) == pytest.approx(0.6)
    assert _schur(Partition(()), t) == 1.0
    assert _schur(Partition((1, 1)), t) == pytest.approx(0.6 ** 2 / 2 - (-0.3))


def _schur_alternant(lam: Partition, xs: np.ndarray) -> float:
    """Ratio-of-alternants oracle for Schur polynomials in finitely many variables."""
    m = len(xs)
    full = list(lam.parts) + [0] * (m - lam.length)
    num = np.linalg.det(np.array([[x ** (full[j] + m - 1 - j) for j in range(m)] for x in xs]))
    den = np.linalg.det(np.array([[x ** (m - 1 - j) for j in range(m)] for x in xs]))
    return num / den


def test_schur_against_alternant_oracle():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.3, 1.4, size=3)
    t = CouplingSeq(tuple(float(np.sum(xs ** n)) / n for n in range(1, 13)))
    for lam in enumerate_partitions(6, 3):
        assert _schur(lam, t) == pytest.approx(_schur_alternant(lam, xs), rel=1e-10)


def test_schur_single_miwa_variable_collapses_columns():
    x = 0.83
    t = CouplingSeq(tuple(x ** n / n for n in range(1, 10)))
    for lam in enumerate_partitions(6, 3):
        val = _schur(lam, t)
        if lam.length > 1:
            assert abs(val) < 1e-12
    for m in range(7):
        assert _schur(Partition((m,)) if m else Partition(()), t) == pytest.approx(x ** m)


def test_miwa_shift_examples():
    t = CouplingSeq.of(0.2, 0.1)
    assert miwa_shift(t, []) == t
    shifted = miwa_shift(ZERO_SEQ, [(-1.0, 0.5)], order=3)
    assert shifted.values == pytest.approx((0.5, 0.125, 0.5 ** 3 / 3))
    cancel = miwa_shift(ZERO_SEQ, [(1.0, 0.7), (-1.0, 0.7)], order=4)
    assert all(v == 0 for v in cancel.values)


@settings(max_examples=40)
@given(st.lists(st.tuples(finite, finite), max_size=3),
       st.lists(st.tuples(finite, finite), max_size=3))
def test_miwa_additivity(atoms_a, atoms_b):
    t = CouplingSeq.of(0.3, -0.2, 0.05)
    once = miwa_shift(t, atoms_a + atoms_b, order=5)
    twice = miwa_shift(miwa_shift(t, atoms_a, order=5), atoms_b, order=5)
    assert np.allclose(once.values, twice.values, atol=1e-12)


def test_c_factor_examples():
    assert c_factor(ZERO_SEQ, CouplingSeq.of(3.0, 1.0)) == 1.0
    assert c_factor(CouplingSeq.of(1.0), CouplingSeq.of(2.0)) == pytest.approx(math.e ** 2)
    assert c_factor(CouplingSeq.of(0.0, 1.0), CouplingSeq.of(0.0, 3.0)) == pytest.approx(math.e ** 6)


@given(finite, finite, finite, finite)
def test_c_factor_bilinearity(t1, t2, s1, s2):
    t = CouplingSeq.of(t1 / 2, t2 / 2)
    s = CouplingSeq.of(s1 / 2, s2 / 2)
    sp = CouplingSeq.of(0.1, -0.2)
    lhs = c_factor(t, CouplingSeq.of(s1 / 2 + 0.1, s2 / 2 - 0.2))
    rhs = c_factor(t, s) * c_factor(t, sp)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_c_factor_rejects_complex():
    with pytest.raises(ValueError):
        c_factor(CouplingSeq.of(1j), CouplingSeq.of(1.0))


def test_hseq_of_power_sum_rows_is_hseq_of_each_row():
    # rows of power sums p_k = k t_k give, row by row, the bits of the coupling form
    rng = np.random.default_rng(11)
    ts_ = [tuple(rng.uniform(-0.6, 0.6, size=k)) for k in (4, 4, 4)]
    psums = np.array([[k * v for k, v in enumerate(t, start=1)] for t in ts_])
    h = hseq(9, psums)
    assert h.shape == (3, 10)
    for row, t in zip(h, ts_):
        assert np.array_equal(row, hseq(9, CouplingSeq(t)))
    assert np.array_equal(hseq(9, psums[:, :0]), np.eye(1, 10).repeat(3, axis=0))
    with pytest.raises(ValueError):
        hseq(-1, psums)


def test_schur_from_h_complex_support():
    t = CouplingSeq.of(0.2 + 0.1j)
    h = hseq(4, t)
    got = schur_from_h([[2]], h)
    assert got.dtype == complex and got[0] == pytest.approx(h[2])
    per_table = schur_from_h([[2]], h[None])
    assert per_table.dtype == complex and per_table.shape == (1, 1) and per_table[0, 0] == got[0]


def _power_sum_times(xs) -> CouplingSeq:
    return CouplingSeq(tuple(float(np.sum(xs ** n)) / n for n in range(1, 13)))


def test_schur_stack_shared_h_against_alternant_oracle():
    rng = np.random.default_rng(19)
    xs = rng.uniform(0.3, 1.4, size=4)
    h = hseq(12, _power_sum_times(xs))
    lams = enumerate_partitions(7, 4)
    for pos, parts in length_groups(lams):
        got = schur_from_h(parts, h)
        assert got.shape == (len(pos),)
        for k, val in zip(pos, got):
            assert val == pytest.approx(_schur_alternant(lams[k], xs), rel=1e-10)
            assert val == schur_from_h([lams[k].parts], h)[0]
    # the partitions are a (P, length) array
    with pytest.raises(ValueError, match="partitions, length"):
        schur_from_h([1], h)
    with pytest.raises(ValueError, match="partitions, length"):
        schur_from_h([[[1]]], h)


def test_schur_stack_one_h_per_member_against_alternant_oracle():
    rng = np.random.default_rng(29)
    samples = [rng.uniform(0.3, 1.4, size=3) for _ in range(5)]
    h = np.stack([hseq(12, _power_sum_times(xs)) for xs in samples])
    for parts in ((1,), (2, 1), (3, 1, 1), (4, 2, 2)):
        lam = Partition(parts)
        got = schur_from_h([lam.parts], h)
        want = [_schur_alternant(lam, xs) for xs in samples]
        assert got.shape == (5, 1) and got[:, 0] == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValueError, match="too short"):
        schur_from_h([[12, 1]], h[0])
    with pytest.raises(ValueError, match="too short"):
        schur_from_h([[12, 1]], h)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("parts", [(), (3,), (2, 1), (1, 1), (3, 1, 1), (2, 2, 2), (1, 1, 1)])
def test_schur_one_partition_over_member_tables_gathers_columns(parts, cplx):
    rng = np.random.default_rng(31 + len(parts))
    p = rng.normal(size=(40, 6)) + (1j * rng.normal(size=(40, 6)) if cplx else 0.0)
    h = hseq(7, p)
    lam = Partition(parts)
    got = schur_from_h([lam.parts], h)[:, 0]
    # each member's table alone
    want = np.array([schur_from_h(np.reshape(lam.parts, (1, lam.length)), row)[0] for row in h])
    assert got.shape == (40,) and got.dtype == h.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not np.shares_memory(got, h)


def _jacobi_trudi(parts, h) -> np.ndarray:
    """(..., length, length) Jacobi-Trudi matrices of one partition over tables h, gathered
    entry by entry; h_m = 0 for m < 0."""
    ell = len(parts)
    m = np.array([[parts[i] - i + j for j in range(ell)] for i in range(ell)])
    return np.where(m >= 0, h[..., np.maximum(m, 0)], 0.0)


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("shared", [False, True])
def test_schur_lengths_one_and_two_are_the_closed_forms_bit_for_bit(ell, shared):
    rng = np.random.default_rng(41 + ell)
    h = rng.normal(size=(9,) if shared else (300, 9))
    lams = [lam for lam in enumerate_partitions(7, ell) if lam.length == ell]
    parts = np.array([lam.parts for lam in lams])
    got = schur_from_h(parts, h)
    assert got.shape == h.shape[:-1] + (len(lams),)
    for k, lam in enumerate(lams):
        a = _jacobi_trudi(lam.parts, h)
        want = a[..., 0, 0] if ell == 1 else a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        assert np.ascontiguousarray(got[..., k]).tobytes() == np.ascontiguousarray(want).tobytes()


def _exact_det(a) -> Fraction:
    """Determinant of a float matrix in exact rational arithmetic (Gaussian elimination)."""
    a = [[Fraction(float(x)) for x in row] for row in a]
    n, det = len(a), Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p], det = a[p], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _permanent(a) -> float:
    """Permanent of a nonnegative matrix, by a sum over column subsets row by row."""
    n = len(a)
    f = {0: 1.0}
    for i in range(n):
        g = {}
        for mask, v in f.items():
            for j in range(n):
                if not mask >> j & 1:
                    g[mask | 1 << j] = g.get(mask | 1 << j, 0.0) + v * a[i][j]
        f = g
    return f[(1 << n) - 1]


T_POINTS = [(0.3,), (0.6, -0.3), (0.2, 0.1, -0.05), (1.5, -0.7, 0.4), (-0.9, 0.0, 0.3, 0.2)]


@pytest.mark.parametrize("t", T_POINTS)
def test_schur_lengths_three_to_seven_within_eight_ulps_of_the_permanent(t):
    # |det - exact det| <= 8 eps perm(|A|), perm(|A|) the sum of |products| over permutations:
    # the backward-error yardstick of an elimination that cancels
    h = hseq(16, CouplingSeq(t))
    lams = [lam for lam in enumerate_partitions(10, 7) if lam.length >= 3]
    for pos, parts in length_groups(lams):
        got = schur_from_h(parts, h)
        for k, val in zip(pos, got):
            a = _jacobi_trudi(lams[k].parts, h)
            bound = 8 * np.finfo(float).eps * _permanent(np.abs(a).tolist())
            assert abs(Fraction(float(val)) - _exact_det(a.tolist())) <= Fraction(bound)


def test_schur_singular_stacks_give_exact_zeros_without_warnings():
    # at t = (0, 0.1) every odd h vanishes, so pivots and whole columns are exact zeros
    h = hseq(16, CouplingSeq.of(0.0, 0.1))
    lams = [lam for lam in enumerate_partitions(11, 7) if lam.length >= 2]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for pos, parts in length_groups(lams):
            got = schur_from_h(parts, h)
            for k, val in zip(pos, got):
                want = _exact_det(_jacobi_trudi(lams[k].parts, h).tolist())
                if want == 0:
                    assert val == 0.0
                else:
                    assert val == pytest.approx(float(want), rel=1e-13)
        # h_1 = h_2 = h_3 = 0: the first column of (3, 3, 3) is all zeros, in every member
        rng = np.random.default_rng(43)
        tables = rng.normal(size=(6, 9))
        tables[:, 1:4] = 0.0
        assert np.array_equal(schur_from_h([[3, 3, 3], [5, 3, 3]], tables)[:, 0], np.zeros(6))
        # an odd weight puts an odd h in every term: each such matrix alone reads 0
        odd = [schur_from_h([lam.parts], h)[0] for lam in lams if lam.weight % 2]
        assert odd and all(v == 0.0 for v in odd)


@pytest.mark.parametrize("cplx", [False, True])
def test_a_member_alone_is_its_value_in_any_batch_bit_for_bit(cplx):
    rng = np.random.default_rng(47)
    p = rng.normal(size=(30, 6)) * 0.7 + (1j * rng.normal(size=(30, 6)) * 0.7 if cplx else 0.0)
    h = hseq(12, p).reshape(5, 6, 13)
    lams = [lam for lam in enumerate_partitions(8, 6) if lam.length]
    for pos, parts in length_groups(lams):
        got = schur_from_h(parts, h)
        assert got.shape == (5, 6, len(pos))
        order = rng.permutation(len(pos))
        shuffled = schur_from_h(parts[order], h[:, ::-1])
        for b, c in itertools.product(range(5), range(6)):
            alone = np.array([schur_from_h(parts[k:k + 1], h[b, c])[0] for k in range(len(pos))])
            assert got[b, c].tobytes() == alone.tobytes()
            assert shuffled[b, 5 - c].tobytes() == alone[order].tobytes()
