"""Integer partitions: enumeration, shifted indices, conjugation.

Partitions label the terms of the Schur-function series; the shifted
indices h_i = lambda_i - i + N pick which rows/columns of a moment
matrix enter a series coefficient.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts (trailing zeros stripped)."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """1-based part access, zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "()" if not self.parts else "(" + ",".join(map(str, self.parts)) + ")"


EMPTY = Partition()


def _descend(remaining: int, max_part: int, max_length: int) -> Iterator[tuple[int, ...]]:
    yield ()
    if max_length == 0 or remaining == 0 or max_part == 0:
        return
    for first in range(min(remaining, max_part), 0, -1):
        for rest in _descend(remaining - first, first, max_length - 1):
            yield (first,) + rest


def enumerate_partitions(max_weight: int, max_length: int) -> list[Partition]:
    """All partitions with weight <= max_weight and length <= max_length.

    Ordered by (weight, largest-first lex), so the empty partition comes
    first and e.g. (2) precedes (1,1).  The ordering is the canonical one
    used for series truncation and caching.  Memoised: each call returns a
    new list of the same (frozen) partitions.
    """
    if max_weight < 0 or max_length < 0:
        raise ValueError("bounds must be nonnegative")
    return list(_canonical(max_weight, max_length))


@functools.lru_cache(maxsize=None)
def _canonical(max_weight: int, max_length: int) -> tuple[Partition, ...]:
    seen = {p for p in _descend(max_weight, max_weight, max_length)}
    out = [Partition(p) for p in seen]
    out.sort(key=lambda lam: (lam.weight, tuple(-p for p in lam.parts)))
    return tuple(out)


def shifted_indices(lam: Partition, n: int) -> tuple[int, ...]:
    """Strictly decreasing indices h_i = lambda_i - i + n, i = 1..n."""
    if lam.length > n:
        raise ValueError(f"partition length {lam.length} exceeds n={n}")
    return tuple(lam.part(i) - i + n for i in range(1, n + 1))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def length_groups(lams: Sequence[Partition]) -> tuple:
    """((positions, parts), ...) per partition length, lengths ascending.

    `positions` index into `lams`; `parts` is the (count, length) array of
    the partitions there.  Both are read-only.
    """
    by_length: dict = {}
    for pos, lam in enumerate(lams):
        by_length.setdefault(lam.length, []).append(pos)
    groups = []
    for ell, pos in sorted(by_length.items()):
        parts = np.array([lams[p].parts for p in pos], dtype=int).reshape(len(pos), ell)
        groups.append((_frozen(np.array(pos, dtype=int)), _frozen(parts)))
    return tuple(groups)


@dataclass(frozen=True)
class PartitionTable:
    """Index arrays of one series' partitions lams = enumerate_partitions(max_weight, n).

    `shifted[k]` is shifted_indices(lams[k], n); `groups` is
    length_groups(lams).  All arrays are read-only.
    """

    shifted: np.ndarray
    groups: tuple


@functools.lru_cache(maxsize=None)
def partition_table(max_weight: int, n: int) -> PartitionTable:
    """Memoised index arrays of enumerate_partitions(max_weight, n), in its order."""
    lams = enumerate_partitions(max_weight, n)
    shifted = np.array([shifted_indices(lam, n) for lam in lams], dtype=int).reshape(len(lams), n)
    return PartitionTable(_frozen(shifted), length_groups(lams))


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram."""
    if not lam.parts:
        return EMPTY
    return Partition(tuple(sum(1 for p in lam.parts if p >= j) for j in range(1, lam.parts[0] + 1)))


def is_even_partition(lam: Partition) -> bool:
    """True when every part is even (the orthogonal-group series predicate)."""
    return all(p % 2 == 0 for p in lam.parts)
