import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pftau
from pftau import skewlin
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
    assert np.array_equal(abar(np.zeros((1, 0), dtype=int), 1, pair), [1.0])
    h1, h2, L = 4, 1, 2
    assert abar([[h1, h2]], L, pair) == pytest.approx([pair.a_matrix[h1 + L, h2 + L]])
    assert abar([[h1]], L, pair) == pytest.approx([pair.border[h1 + L]])
    with pytest.raises(ValueError, match=r"\(batch, charge\) index array"):
        abar((h1, h2), L, pair)


def test_abar_zero_border_gives_zero_for_odd_length():
    rng = np.random.default_rng(29)
    pair = SkewPair(random_skew(rng, 8), np.zeros(8))
    assert abar([[3, 2, 0]], 0, pair)[0] == 0.0


def test_abar_index_range_error_names_size():
    rng = np.random.default_rng(31)
    pair = _pair(rng, size=4)
    with pytest.raises(MomentTableError, match="size 4"):
        abar([[5, 1]], 0, pair)


def test_abar_rejects_non_decreasing():
    rng = np.random.default_rng(37)
    pair = _pair(rng)
    with pytest.raises(ValueError, match="strictly decreasing"):
        abar([[1, 1]], 0, pair)


def test_abar_negative_base_lookup():
    rng = np.random.default_rng(41)
    pair = _pair(rng, size=6, base=-2)
    # index -1 lives at row 1 of the table
    assert abar([[1, 0]], -2, pair) == pytest.approx([pair.a_matrix[1, 0]])


def test_skewness_defect_reported():
    rng = np.random.default_rng(43)
    pair = _pair(rng)
    a = pair.a_matrix
    assert np.max(np.abs(a + a.T)) < 1e-15 * np.max(np.abs(a))


# ---------------------------------------------------------------------------
# stacks: members as the diagonal blocks of one table, or a (batch, charge) index array

def random_skew_stack(rng, batch, n):
    m = rng.normal(size=(batch, n, n)) + 1j * rng.normal(size=(batch, n, n))
    return m - np.swapaxes(m, 1, 2)


def _block_table(stack):
    """The members of a (batch, n, n) stack as the diagonal blocks of one table, and the
    index rows that pick each member back out of it."""
    batch, n, _ = stack.shape
    table = np.zeros((batch * n, batch * n), dtype=stack.dtype)
    rows = np.arange(batch * n).reshape(batch, n)
    table[rows[:, :, None], rows[:, None, :]] = stack
    return table, rows


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
def test_pfaffian_stack_matches_combinatorial_and_det(n):
    stack = random_skew_stack(np.random.default_rng(100 + n), 12, n)
    got = pfaffian(*_block_table(stack))
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
        got = pfaffian(*_block_table(stack))
        alone = [pfaffian(m) for m in stack]
    assert got[1] == 0.0 and got[4] == 0.0
    assert alone[1] == 0.0 and alone[4] == 0.0
    assert got[[0, 2, 3, 5]] == pytest.approx(regular, rel=1e-12)


def test_pfaffian_stack_refuses_a_non_skew_member():
    stack = random_skew_stack(np.random.default_rng(53), 5, 4)
    stack[3, 0, 2] += 1e-3
    with pytest.raises(PfaffianError, match="skew"):
        pfaffian(*_block_table(stack))
    with pytest.raises(PfaffianError, match="skew"):
        pfaffian(stack[3])
    with pytest.raises(PfaffianError, match="odd order"):
        pfaffian(np.zeros((3, 3)))
    # one matrix or one table: a stack of them is no input
    for fn in (pfaffian, pfaffian_combinatorial):
        with pytest.raises(PfaffianError, match="square matrix, got"):
            fn(np.zeros((2, 4, 4)))


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
        assert val == abar(h[None], L, pair)[0]
    # one index: +border entry; charge 0: 1
    assert abar([[4], [2]], 1, pair) == pytest.approx(pair.border[[6, 4]])
    assert np.array_equal(abar(np.zeros((3, 0), dtype=int), 0, pair), np.ones(3))


def test_abar_stack_index_range_error_names_size():
    pair = _pair(np.random.default_rng(61), size=5)
    with pytest.raises(MomentTableError, match="size 5.*need at least size 7"):
        abar([[3, 1], [6, 2]], 0, pair)
    with pytest.raises(ValueError, match="strictly decreasing"):
        abar([[3, 1], [2, 2]], 0, pair)


@pytest.mark.parametrize("h", [[(3, 1)], [(4,)], [(3, 1), (2, 0)], [(4, 2, 0)]])
def test_abar_on_a_non_skew_table_raises(h):
    rng = np.random.default_rng(71)
    m = rng.normal(size=(6, 6))
    pair = SkewPair(m + m.T, rng.normal(size=6))
    with pytest.raises(PfaffianError, match="skew"):
        abar(h, 0, pair)


# ---------------------------------------------------------------------------
# principal minors of one table: pfaffian(table, rows)

def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


def _minor_case(seed, charge, scale):
    """A table bordered for odd charge, with two dead indices (zero row and
    column), and `rows` of 60 members: strictly decreasing indices, then the
    border index for odd charge."""
    rng = np.random.default_rng(seed)
    size = 14
    m = random_skew(rng, size, cplx=seed % 2 == 0)
    m[[3, 9], :] = 0.0
    m[:, [3, 9]] = 0.0
    n = charge + charge % 2
    if charge % 2:
        border = rng.normal(size=size) + 1j * rng.normal(size=size)
        border[[3, 9]] = 0.0
        table = np.zeros((size + 1, size + 1), dtype=complex)
        table[:size, :size], table[:size, size], table[size, :size] = m, border, -border
    else:
        table = m.astype(complex)
    rows = np.array([np.sort(rng.choice(size, charge, replace=False))[::-1] for _ in range(60)],
                    dtype=int).reshape(60, charge)
    if charge % 2:
        rows = np.concatenate([rows, np.full((60, 1), size)], axis=1)
    assert rows.shape == (60, n)
    return scale * table, rows


@pytest.mark.parametrize("scale", [1.0, 1e-200])
@pytest.mark.parametrize("charge", range(9))
def test_principal_minors_are_path_independent(charge, scale):
    table, rows = _minor_case(200 + charge, charge, scale)
    before = table.copy()
    got = pfaffian(table, rows)
    stack = table[rows[:, :, None], rows[:, None, :]]
    assert np.array_equal(table, before)
    assert got.shape == (len(rows),)
    alone = [pfaffian(member) for member in stack]
    assert np.array_equal(_bits(got), _bits(alone))
    # members holding a dead index vanish exactly, the others do not (unless
    # the scaled table underflows)
    dead = np.isin(rows, [3, 9]).any(axis=1)
    assert np.all(got[dead] == 0.0) and (charge < 2 or dead.any())
    if scale == 1.0:
        assert np.all(got[~dead] != 0.0)
        for member, pf in zip(stack, got):
            assert pf == pytest.approx(pfaffian_combinatorial(member), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("charge", [6, 7, 8])
def test_principal_minors_large_batches_match_members_alone(charge):
    # 400 members put the trailing blocks over the 64 KiB that _update
    # handles one row at a time; each member alone goes through whole blocks
    table, rows = _minor_case(300 + charge, charge, 1.0)
    rows = np.concatenate([rows] * 7)[:400]
    got = pfaffian(table, rows)
    assert np.array_equal(_bits(got), _bits([pfaffian(table, r[None])[0] for r in rows]))
    assert np.array_equal(_bits(got), _bits([pfaffian(table[np.ix_(r, r)]) for r in rows]))


def test_principal_minors_pivot_floor_is_each_members_own():
    # index 4 couples to everything at ~1e-295 and indices 3, 5 at 1e10: a pivot
    # column of ~1e-295 is usable in a member of scale O(1) (floor 1e-300) but
    # not in one holding the 1e10 entry (floor 1e-290), at the first step or a later one
    rng = np.random.default_rng(223)
    m = np.triu(rng.uniform(0.5, 1.0, size=(7, 7)), 1)
    m[0, 1] = 3.0
    m[:, 4] *= 1e-295
    m[4, :] *= 1e-295
    m[3, 5] = 1e10
    m = m - m.T
    for rows, dead in (([[4, 0, 1, 2], [4, 3, 1, 5], [2, 1, 0, 4]], [False, True, False]),
                       ([[0, 1, 4, 2, 3, 6], [0, 1, 4, 2, 3, 5]], [False, True])):
        rows = np.array(rows)
        got = pfaffian(m, rows)
        assert np.array_equal(_bits(got), _bits([pfaffian(m[np.ix_(r, r)]) for r in rows]))
        assert np.array_equal(got == 0.0, dead)


def test_principal_minors_check_the_table_not_the_block():
    rng = np.random.default_rng(211)
    m = random_skew(rng, 6)
    m[0, 5], m[5, 0] = 1e6, -1e6
    rows = np.array([[3, 2, 1, 0]])
    block = m[np.ix_(rows[0], rows[0])]
    # a defect of 1e-8: above SKEW_RTOL of the block's own scale, within the table's
    m[2, 1] += 1e-8
    with pytest.raises(PfaffianError, match="skew"):
        pfaffian(m[np.ix_(rows[0], rows[0])])
    assert pfaffian(m, rows)[0] == pytest.approx(pfaffian_combinatorial(block), rel=1e-6)
    assert abar(rows, 0, SkewPair(m, np.zeros(6)))[0] == pfaffian(m, rows)[0]
    # a defect in rows no member gathers: the blocks are skew, the table is not
    m[2, 1] -= 1e-8
    m[4, 5] += 1e-3
    assert pfaffian(m[np.ix_(rows[0], rows[0])]) == pytest.approx(
        pfaffian_combinatorial(block), rel=1e-12)
    with pytest.raises(PfaffianError, match="skew"):
        pfaffian(m, rows)
    with pytest.raises(PfaffianError, match="skew"):
        abar(rows, 0, SkewPair(m, np.zeros(6)))


def test_principal_minors_refuse_bad_rows():
    m = random_skew(np.random.default_rng(227), 5)
    with pytest.raises(PfaffianError, match="odd order"):
        pfaffian(m, [[0, 1, 2]])
    with pytest.raises(PfaffianError, match="size 5"):
        pfaffian(m, [[0, 5]])
    with pytest.raises(PfaffianError, match="size 5"):
        pfaffian(m, [[-1, 2]])
    with pytest.raises(PfaffianError, match=r"\(batch, n\) indices"):
        pfaffian(m, [0, 1])
    with pytest.raises(PfaffianError, match="square matrix"):
        pfaffian(np.zeros((2, 2, 4, 4)), [[0, 1]])
    with pytest.raises(PfaffianError, match="square matrix or a stack"):
        pfaffian(np.zeros((2, 4, 3)), [[0, 1]])
    # a stack's rows index its block diagonal, and no member may straddle two tables
    with pytest.raises(PfaffianError, match="size 8"):
        pfaffian(np.zeros((2, 4, 4)), [[0, 8]])
    with pytest.raises(PfaffianError, match="one table of the stack"):
        pfaffian(np.zeros((2, 4, 4)), [[3, 4]])
    assert np.array_equal(pfaffian(m, np.zeros((3, 0), dtype=int)), np.ones(3))


# ---------------------------------------------------------------------------
# a (tables, size, size) stack: rows index its block diagonal, each table checked alone

def _stack_rows(rows, tables, size):
    """`rows` of one table, for every table of a stack, as rows of its block diagonal."""
    return (np.arange(tables)[:, None, None] * size + rows).reshape(-1, rows.shape[1])


@pytest.mark.parametrize("charge", [2, 4, 6])
def test_minors_over_a_stack_are_the_per_table_calls_bit_for_bit(charge):
    # table 0 has a dead index (a zero row and column), table 1 has scale 1e-200 next to
    # the scale-1 tables, and table 2 couples index 4 to the rest at ~1e-295, a pivot
    # column usable under its own floor (1e-300) but not under table 3's (1e-290)
    rng = np.random.default_rng(233 + charge)
    size = 9
    tables = np.stack([random_skew(rng, size) for _ in range(4)])
    tables[0, 3, :] = tables[0, :, 3] = 0.0
    tables[1] *= 1e-200
    tables[2, 4, :] *= 1e-295
    tables[2, :, 4] *= 1e-295
    tables[3, 0, 1], tables[3, 1, 0] = 1e10, -1e10
    rows = np.array([np.sort(rng.choice(size, charge, replace=False))[::-1] for _ in range(40)])
    rows = np.concatenate([rows, [[4] + [k for k in range(size) if k != 4][:charge - 1]]])
    got = pfaffian(tables, _stack_rows(rows, 4, size)).reshape(4, -1)
    for table, pfs in zip(tables, got):
        assert np.array_equal(_bits(pfs), _bits(pfaffian(table, rows)))
    dead = np.isin(rows, 3).any(axis=1)
    assert dead.any() and np.all(got[0, dead] == 0.0) and np.all(got[0, ~dead] != 0.0)
    assert charge > 2 or np.all(got[1] != 0.0)
    assert np.all(got[2] != 0.0)


def test_a_skew_defect_in_a_small_table_is_refused_beside_a_large_one():
    # a defect of 1e-8: above SKEW_RTOL of its own table, within that of the 1e6 table
    rng = np.random.default_rng(239)
    tables = np.stack([1e6 * random_skew(rng, 6), random_skew(rng, 6)])
    tables[1, 2, 1] += 1e-8
    rows = _stack_rows(np.array([[3, 2, 1, 0]]), 2, 6)
    with pytest.raises(PfaffianError, match="skew"):
        pfaffian(tables, rows)
    with pytest.raises(PfaffianError, match="skew"):
        pfaffian(tables, rows[:1])     # a member of the sound table only
    with pytest.raises(PfaffianError, match="skew"):
        abar([[3, 2, 1, 0]], 0, SkewPair(tables, np.zeros((2, 6))))


@pytest.mark.parametrize("charge", [0, 1, 2, 3, 4])
def test_abar_over_a_stack_of_pairs_is_each_pair_alone(charge):
    rng = np.random.default_rng(241 + charge)
    size, base = 9, -1
    pairs = [_pair(rng, size, base) for _ in range(3)]
    stack = SkewPair(np.stack([p.a_matrix for p in pairs]), np.stack([p.border for p in pairs]),
                     index_base=base)
    hs = np.array([np.sort(rng.choice(size, charge, replace=False))[::-1] for _ in range(25)],
                  dtype=int).reshape(25, charge) + base
    got = abar(hs, 0, stack)
    assert got.shape == (3, 25)
    for pair, coeffs in zip(pairs, got):
        assert np.array_equal(_bits(coeffs), _bits(abar(hs, 0, pair)))


@pytest.mark.parametrize("charge", [0, 1, 2, 3, 4])
def test_abar_over_a_stack_reads_each_pair_at_its_own_offset(charge):
    rng = np.random.default_rng(251 + charge)
    size, base = 10, -1
    pairs = [_pair(rng, size, base) for _ in range(3)]
    stack = SkewPair(np.stack([p.a_matrix for p in pairs]), np.stack([p.border for p in pairs]),
                     index_base=base)
    hs = np.array([np.sort(rng.choice(size - 2, charge, replace=False))[::-1] for _ in range(25)],
                  dtype=int).reshape(25, charge) + base
    offsets = [2, 0, 1]
    got = abar(hs, offsets, stack)
    assert got.shape == (3, 25)
    for pair, L, coeffs in zip(pairs, offsets, got):
        assert np.array_equal(_bits(coeffs), _bits(abar(hs, L, pair)))
    with pytest.raises(ValueError, match="one offset per pair"):
        abar(hs, [0, 1], stack)
    with pytest.raises(ValueError, match="one offset per pair"):
        abar(hs, offsets, pairs[0])
    if charge:   # the top index of some row, read at the last pair's offset, is past the table
        with pytest.raises(MomentTableError, match="size 10"):
            abar(hs + 1, [0, 0, 2], stack)


def test_pfaffian_leaves_its_input_alone():
    rng = np.random.default_rng(229)
    for stack in (random_skew_stack(rng, 1, 6), random_skew_stack(rng, 4, 6)):
        table, rows = _block_table(stack)
        before = stack.copy(), table.copy()
        pfaffian(table, rows)
        pfaffian(stack[0])
        assert np.array_equal(stack, before[0]) and np.array_equal(table, before[1])


# ---------------------------------------------------------------------------
# real tables in real arithmetic, and the last step's one trailing entry

def _complex_elimination(table, rows):
    """`pfaffian(table, rows)` by the complex elimination, on a complex copy of the table."""
    m = np.asarray(table, dtype=complex)
    scale = np.max(np.abs(m), axis=(-2, -1) if m.ndim == 3 else None, initial=0.0)
    return skewlin._minors(m, scale, np.asarray(rows, dtype=int))


def _real_bits(x):
    # the real parts to the bit, but for the sign of an exact zero: a zero minor's sign
    # follows the signs of the complex elimination's zero imaginary parts
    return np.asarray(np.real(x) + 0.0, dtype=float).view(np.uint64)


def _real_case(rng, tables, size, scale):
    """A stack of real pairs with a dead index (zero row, column and border entry) in table
    0, a pivot column of ~1e-295 in table 1, and scales 1e6 apart."""
    a = rng.normal(size=(tables, size, size))
    a = a - a.swapaxes(1, 2)
    border = rng.normal(size=(tables, size))
    a[0, 5, :] = a[0, :, 5] = border[0, 5] = 0.0
    a[1, 2, :] *= 1e-295
    a[1, :, 2] *= 1e-295
    a[-1] *= 1e6
    return SkewPair(scale * a, scale * border, index_base=-1)


def _decreasing_rows(rng, batch, size, charge):
    return np.array([np.sort(rng.choice(size, charge, replace=False))[::-1]
                     for _ in range(batch)], dtype=int).reshape(batch, charge)


@pytest.mark.parametrize("scale", [1.0, 1e-200])
@pytest.mark.parametrize("charge", range(9))
def test_real_tables_give_the_complex_eliminations_real_parts(charge, scale, monkeypatch):
    # a stack of pairs through abar, odd charges bordered, then one table and its members
    # alone; 400 members of charge 6 to 8 put the first trailing blocks over the 64 KiB
    # that `_update` takes one row at a time
    rng = np.random.default_rng(500 + charge)
    size, batch = 12, 400 if charge >= 6 else 40
    stack = _real_case(rng, 4, size, scale)
    hs = _decreasing_rows(rng, batch, size, charge) + stack.index_base
    table, rows = stack.a_matrix[1].real, hs[:8] - stack.index_base
    members = [table[np.ix_(r, r)] for r in rows] if charge % 2 == 0 else []

    def eliminate():
        return [abar(hs, 0, stack), skewlin.pfaffian(table, rows) if charge % 2 == 0
                else np.ones(0), [skewlin.pfaffian(m) for m in members]]

    got = eliminate()
    monkeypatch.setattr(skewlin, "pfaffian", lambda m, rows=None: (
        _complex_elimination(m, rows) if rows is not None
        else complex(_complex_elimination(m, np.arange(len(m))[None])[0])))
    for g, w in zip(got, eliminate()):
        assert np.array_equal(_real_bits(g), _real_bits(w)) and not np.imag(g).any()
    assert charge < 2 or (got[0][0] == 0.0).any()
    assert scale != 1.0 or (got[0][1:] != 0.0).all()


def _full_block_pfaffians(take, idx, dead, dtype):
    # the elimination whose last step, too, updates its whole trailing block
    n, batch = idx.shape
    real = dtype == np.float64
    mul = np.multiply if real else skewlin._cmul
    result, alive = np.ones(batch, dtype=dtype), np.ones(batch, dtype=bool)
    members = np.arange(batch)
    while n > 2:
        col = np.abs(take(idx[1:], idx[0]))
        ip = np.argmax(col, axis=0) + 1
        alive &= ~dead(np.max(col, axis=0))
        idx = idx.copy()
        idx[1], idx[ip, members] = idx[ip, members], idx[1].copy()
        result = np.where(ip != 1, -result, result)
        pivot = np.where(alive, take(idx[1], idx[0]), 1.0)
        result = mul(result, take(idx[0], idx[1]))
        rest, n = idx[2:], n - 2
        tau = take(rest, idx[0]) * (1.0 / pivot) if real else take(rest, idx[0]) / pivot
        a = take(rest[:, None], rest[None, :])
        skewlin._update(a, tau, take(idx[1], rest))
        take, idx = skewlin._gather(a), np.broadcast_to(np.arange(n)[:, None], (n, batch))
    if n:
        result = mul(result, take(idx[0], idx[1]))
    return np.where(alive, result, 0.0)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("charge", [4, 6, 8])
def test_the_last_step_is_the_full_block_update_bit_for_bit(charge, cplx, monkeypatch):
    # every sign of zero included, on members of one and of many, whole blocks and by rows
    rng = np.random.default_rng(600 + charge + 10 * cplx)
    size = 11
    tables = np.stack([random_skew(rng, size, cplx) for _ in range(3)])
    tables[0, 4, :] = tables[0, :, 4] = 0.0
    tables[1] *= 1e-200
    rows = [_stack_rows(_decreasing_rows(rng, batch, size, charge), 3, size)
            for batch in (1, 7, 400)]
    singles = [m[np.ix_(r, r)] for m, r in zip(tables, _decreasing_rows(rng, 3, size, charge))]
    got = [pfaffian(tables, r) for r in rows] + [[pfaffian(m) for m in singles]]
    monkeypatch.setattr(skewlin, "_pfaffians", _full_block_pfaffians)
    want = [pfaffian(tables, r) for r in rows] + [[pfaffian(m) for m in singles]]
    for g, w in zip(got, want):
        assert _bits(g).tobytes() == _bits(w).tobytes()


def test_a_stack_of_real_and_complex_tables_gives_each_table_alone():
    # every member runs in its stack's dtype, so sharing a stack moves no bit; a table with
    # zero imaginary parts gives the real parts of its float64 elimination
    rng = np.random.default_rng(701)
    size = 9
    tables = np.stack([random_skew(rng, size, cplx=k % 2 == 1) for k in range(4)]).astype(complex)
    tables[2, 3, :] = tables[2, :, 3] = 0.0
    rows = _decreasing_rows(rng, 30, size, 6)
    got = pfaffian(tables, _stack_rows(rows, 4, size)).reshape(4, -1)
    assert got.dtype == complex
    for table, pfs in zip(tables, got):
        alone = pfaffian(table, rows)
        assert _bits(pfs).tobytes() == _bits(alone).tobytes()
    assert np.array_equal(_real_bits(got[0]), _real_bits(pfaffian(tables[0].real, rows)))
    assert not got[::2].imag.any() and got[1::2].imag.all()


def test_a_real_table_never_takes_the_complex_product(monkeypatch):
    # float64 in, float64 out, through the stack, the bordered table and one matrix alone
    def refuse(x, y):
        raise AssertionError("a float64 table reached the complex product")

    monkeypatch.setattr(skewlin, "_cmul", refuse)
    rng = np.random.default_rng(702)
    stack = _real_case(rng, 3, 10, 1.0)
    for charge in range(7):
        hs = _decreasing_rows(rng, 20, 10, charge) + stack.index_base
        assert abar(hs, 0, stack).dtype == np.float64
    table = stack.a_matrix[0]
    assert pfaffian(table, _decreasing_rows(rng, 20, 10, 6)).dtype == np.float64
    assert isinstance(pfaffian(table), complex)
    with pytest.raises(AssertionError, match="complex product"):
        pfaffian(table.astype(complex))


# a child process prints the sha256 of 120 complex Pfaffians and one stack of principal minors
_COMPLEX_PFAFFIAN_BYTES = """
import hashlib
import numpy as np
from pftau.skewlin import pfaffian
rng = np.random.default_rng(0)
vals = []
for n in (2, 4, 6, 8, 10, 12) * 20:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    vals.append(pfaffian(m - m.T))
m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
rows = np.array([rng.choice(12, size=6, replace=False) for _ in range(50)])
print(hashlib.sha256(np.array(vals).tobytes() + pfaffian(m - m.T, rows).tobytes()).hexdigest())
"""


def test_complex_pfaffian_bits_do_not_follow_numpy_simd_dispatch():
    # NumPy's vector complex multiply may fuse multiply-adds on some dispatch targets; every
    # complex product of the elimination is `_cmul`'s, so the bits are the same without them
    src = str(Path(pftau.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    hashes = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}):
        proc = subprocess.run([sys.executable, "-c", _COMPLEX_PFAFFIAN_BYTES], env=dict(env, **extra),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.strip())
    assert len(hashes[0]) == 64 and hashes[0] == hashes[1]
