import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pftau.skewlin import (MomentTableError, PfaffianError, SkewPair, abar, pfaffian,
                           pfaffian_combinatorial)


def random_skew(rng, n, cplx=True):
    m = rng.normal(size=(n, n))
    if cplx:
        m = m + 1j * rng.normal(size=(n, n))
    return m - m.T


def test_two_by_two():
    a = 2.3 - 0.7j
    m = np.array([[0, a], [-a, 0]])
    assert pfaffian(m) == pytest.approx(a)
    assert pfaffian_combinatorial(m) == pytest.approx(a)


def test_four_by_four_three_terms():
    rng = np.random.default_rng(3)
    m = random_skew(rng, 4)
    expected = m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
    assert pfaffian(m) == pytest.approx(expected, rel=1e-12)
    assert pfaffian_combinatorial(m) == pytest.approx(expected, rel=1e-12)


def test_pf_squared_equals_det():
    rng = np.random.default_rng(7)
    for n in range(2, 13, 2):
        m = random_skew(rng, n)
        pf = pfaffian(m)
        det = np.linalg.det(m)     # independent LU route
        assert pf ** 2 == pytest.approx(det, rel=1e-9)


def test_elimination_matches_combinatorial():
    rng = np.random.default_rng(13)
    for n in (2, 4, 6, 8):
        m = random_skew(rng, n)
        assert pfaffian(m) == pytest.approx(pfaffian_combinatorial(m), rel=1e-12)


def test_permutation_sign_flip():
    rng = np.random.default_rng(17)
    for n in (4, 6, 8):
        m = random_skew(rng, n)
        perm = rng.permutation(n)
        sign = np.linalg.det(np.eye(n)[perm])
        conj = m[np.ix_(perm, perm)]
        assert pfaffian(conj) == pytest.approx(sign * pfaffian(m), rel=1e-9)


def test_odd_order_refused():
    m = np.zeros((3, 3))
    with pytest.raises(PfaffianError, match="odd order"):
        pfaffian(m)
    with pytest.raises(PfaffianError):
        pfaffian_combinatorial(np.zeros((5, 5)))


def test_non_skew_refused():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PfaffianError, match="skew"):
        pfaffian(m)


def test_structurally_singular_returns_zero():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    m[1, 0] = -1.0
    assert pfaffian(m) == 0.0


def test_combinatorial_dimension_limit():
    with pytest.raises(PfaffianError):
        pfaffian_combinatorial(np.zeros((10, 10)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4, 6, 8]))
def test_pf_property_random(seed, n):
    m = random_skew(np.random.default_rng(seed), n)
    pf = pfaffian(m)
    assert pf ** 2 == pytest.approx(np.linalg.det(m), rel=1e-9)


def _pair(rng, size=8, base=0):
    return SkewPair(random_skew(rng, size), rng.normal(size=size) + 1j * rng.normal(size=size),
                    index_base=base)


def test_abar_examples():
    rng = np.random.default_rng(23)
    pair = _pair(rng)
    assert abar((), 1, pair) == 1.0
    h1, h2, L = 4, 1, 2
    assert abar((h1, h2), L, pair) == pytest.approx(pair.a_matrix[h1 + L, h2 + L])
    assert abar((h1,), L, pair) == pytest.approx(pair.border[h1 + L])


def test_abar_zero_border_gives_zero_for_odd_length():
    rng = np.random.default_rng(29)
    pair = SkewPair(random_skew(rng, 8), np.zeros(8))
    assert abar((3, 2, 0), 0, pair) == 0.0


def test_abar_index_range_error_names_size():
    rng = np.random.default_rng(31)
    pair = _pair(rng, size=4)
    with pytest.raises(MomentTableError, match="size 4"):
        abar((5, 1), 0, pair)


def test_abar_rejects_non_decreasing():
    rng = np.random.default_rng(37)
    pair = _pair(rng)
    with pytest.raises(ValueError, match="strictly decreasing"):
        abar((1, 1), 0, pair)


def test_abar_negative_base_lookup():
    rng = np.random.default_rng(41)
    pair = _pair(rng, size=6, base=-2)
    # index -1 lives at row 1 of the table
    assert abar((1, 0), -2, pair) == pytest.approx(pair.a_matrix[1, 0])


def test_skewness_defect_reported():
    rng = np.random.default_rng(43)
    pair = _pair(rng)
    a = pair.a_matrix
    assert np.max(np.abs(a + a.T)) < 1e-15 * np.max(np.abs(a))


# ---------------------------------------------------------------------------
# stacks: one call for a (batch, n, n) stack or a (batch, charge) index array

def random_skew_stack(rng, batch, n):
    m = rng.normal(size=(batch, n, n)) + 1j * rng.normal(size=(batch, n, n))
    return m - np.swapaxes(m, 1, 2)


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
def test_pfaffian_stack_matches_combinatorial_and_det(n):
    stack = random_skew_stack(np.random.default_rng(100 + n), 12, n)
    got = pfaffian(stack)
    assert got.shape == (12,)
    for m, pf in zip(stack, got):
        assert pf == pytest.approx(pfaffian_combinatorial(m), rel=1e-12)
        assert pf ** 2 == pytest.approx(np.linalg.det(m), rel=1e-9)
        assert pf == pfaffian(m)          # a member alone gives the same bits


def test_pfaffian_stack_singular_members_give_zero_without_warnings():
    rng = np.random.default_rng(47)
    stack = random_skew_stack(rng, 6, 6)
    stack[1] = 0.0                                   # no pivot at the first column
    stack[4, :, 2:] = 0.0                            # first two rows/cols decouple ...
    stack[4, 2:, :] = 0.0                            # ... from a zero block
    regular = [pfaffian_combinatorial(stack[i]) for i in (0, 2, 3, 5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pfaffian(stack)
    assert got[1] == 0.0 and got[4] == 0.0
    assert got[[0, 2, 3, 5]] == pytest.approx(regular, rel=1e-12)


def test_pfaffian_stack_refuses_a_non_skew_member():
    stack = random_skew_stack(np.random.default_rng(53), 5, 4)
    stack[3, 0, 2] += 1e-3
    with pytest.raises(PfaffianError, match="skew"):
        pfaffian(stack)
    with pytest.raises(PfaffianError, match="odd order"):
        pfaffian(np.zeros((2, 3, 3)))
    with pytest.raises(PfaffianError, match="stack"):
        pfaffian(np.zeros((2, 2, 4, 4)))
    with pytest.raises(PfaffianError, match="square matrix, got"):
        pfaffian_combinatorial(np.zeros((2, 4, 4)))


def test_abar_stack_odd_charge_uses_the_border():
    rng = np.random.default_rng(59)
    pair = _pair(rng, size=9, base=-1)
    hs = np.array([(6, 3, 1), (7, 2, 0), (5, 4, 3), (7, 6, -1)])
    L = 0
    got = abar(hs, L, pair)
    for h, val in zip(hs, got):
        rows = h + L - pair.index_base
        ext = np.zeros((4, 4), dtype=complex)
        ext[:3, :3] = pair.a_matrix[np.ix_(rows, rows)]
        ext[:3, 3] = pair.border[rows]
        ext[3, :3] = -pair.border[rows]
        assert val == pytest.approx(pfaffian_combinatorial(ext), rel=1e-12)
        assert val == abar(tuple(h), L, pair)
    # one index: +border entry; charge 0: 1
    assert abar([[4], [2]], 1, pair) == pytest.approx(pair.border[[6, 4]])
    assert np.array_equal(abar(np.zeros((3, 0), dtype=int), 0, pair), np.ones(3))


def test_abar_stack_index_range_error_names_size():
    pair = _pair(np.random.default_rng(61), size=5)
    with pytest.raises(MomentTableError, match="size 5.*need at least size 7"):
        abar([[3, 1], [6, 2]], 0, pair)
    with pytest.raises(ValueError, match="strictly decreasing"):
        abar([[3, 1], [2, 2]], 0, pair)


@pytest.mark.parametrize("h", [(3, 1), (4,), [(3, 1), (2, 0)], [(4, 2, 0)]])
def test_abar_on_a_non_skew_table_raises(h):
    rng = np.random.default_rng(71)
    m = rng.normal(size=(6, 6))
    pair = SkewPair(m + m.T, rng.normal(size=6))
    with pytest.raises(PfaffianError, match="skew"):
        abar(h, 0, pair)
