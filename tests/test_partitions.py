import numpy as np
import pytest
from hypothesis import given, strategies as st

from pftau.partitions import (Partition, conjugate, enumerate_partitions,
                              is_even_partition, partition_table,
                              shifted_indices)


def test_empty_bounds_give_only_empty_partition():
    assert enumerate_partitions(0, 5) == [Partition(())]
    assert enumerate_partitions(3, 0) == [Partition(())]


def test_small_enumeration_order():
    got = enumerate_partitions(2, 2)
    assert got == [Partition(()), Partition((1,)), Partition((2,)), Partition((1, 1))]


def test_weight_four_length_two():
    got = [lam for lam in enumerate_partitions(4, 2) if lam.weight == 4]
    assert got == [Partition((4,)), Partition((3, 1)), Partition((2, 2))]


def test_partition_normalization_and_validation():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition((3, 1)).weight == 4
    assert Partition((3, 1)).length == 2
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_shifted_indices_examples():
    assert shifted_indices(Partition(()), 2) == (1, 0)
    assert shifted_indices(Partition((3, 1)), 2) == (4, 1)
    assert shifted_indices(Partition((2,)), 3) == (4, 1, 0)
    with pytest.raises(ValueError):
        shifted_indices(Partition((1, 1, 1)), 2)


def test_shifted_indices_strictly_decreasing_and_nonnegative():
    for lam in enumerate_partitions(10, 5):
        for n in range(max(lam.length, 1), 6):
            h = shifted_indices(lam, n)
            assert all(h[i] > h[i + 1] for i in range(n - 1))
            assert h[-1] >= 0


def test_shifted_indices_injective():
    for n in range(1, 6):
        seen = {}
        for lam in enumerate_partitions(10, n):
            h = shifted_indices(lam, n)
            assert h not in seen, f"collision {lam} vs {seen[h]}"
            seen[h] = lam


def test_conjugate_examples():
    assert conjugate(Partition((2, 1))) == Partition((2, 1))
    assert conjugate(Partition((3,))) == Partition((1, 1, 1))
    assert conjugate(Partition(())) == Partition(())


def test_conjugate_involution_weight_12():
    for lam in enumerate_partitions(12, 12):
        assert conjugate(conjugate(lam)) == lam


def _euler_partition_counts(nmax):
    # classical recurrence from the pentagonal-number expansion
    p = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_counts_match_classical_recurrence():
    counts = _euler_partition_counts(20)
    everything = enumerate_partitions(20, 20)
    for w in range(21):
        assert sum(1 for lam in everything if lam.weight == w) == counts[w]


@given(st.integers(0, 9), st.integers(0, 9))
def test_enumeration_unique_and_bounded(max_weight, max_length):
    lams = enumerate_partitions(max_weight, max_length)
    assert len(set(lams)) == len(lams)
    for lam in lams:
        assert lam.weight <= max_weight
        assert lam.length <= max_length


def test_even_partition_predicate():
    assert is_even_partition(Partition((4, 2, 2)))
    assert not is_even_partition(Partition((3, 2)))
    assert is_even_partition(Partition(()))


def test_partition_table_is_memoised_and_read_only():
    table = partition_table(7, 3)
    assert partition_table(7, 3) is table
    lams = enumerate_partitions(7, 3)
    assert [tuple(row) for row in table.shifted] == [shifted_indices(lam, 3) for lam in lams]
    seen = []
    for pos, parts in table.groups:
        for k, row in zip(pos, parts):
            assert tuple(row) == lams[k].parts
            seen.append(int(k))
    assert sorted(seen) == list(range(len(lams)))
    lams.pop()                                   # each call hands out a new list
    assert len(enumerate_partitions(7, 3)) == len(lams) + 1
    for arr in [table.shifted] + [a for group in table.groups for a in group]:
        with pytest.raises(ValueError):
            arr[...] = 0
    assert np.array_equal(partition_table(0, 0).shifted, np.zeros((1, 0)))
