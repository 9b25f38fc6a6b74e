"""Skew-symmetric linear algebra: Pfaffians and bordered series coefficients.

Two independent routes are kept side by side: Gaussian elimination in the
Parlett-Reid style for production, and the defining signed sum over
perfect matchings as an oracle for small sizes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SKEW_RTOL = 1e-10


class PfaffianError(ValueError):
    pass


class MomentTableError(IndexError):
    """Raised when a series coefficient needs moment entries outside the table."""


def _check_skew(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PfaffianError(f"expected a square matrix, got shape {m.shape}")
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale > 0 and np.max(np.abs(m + m.T)) > SKEW_RTOL * scale:
        raise PfaffianError("matrix is not skew-symmetric within tolerance")
    return m


def pfaffian(m: np.ndarray) -> complex:
    """Pfaffian by skew Gaussian elimination with partial pivoting.

    A structurally singular input (no usable pivot in some column) gives 0.
    Odd order is refused: the caller has lost a border column somewhere.
    """
    a = _check_skew(m).copy()
    n = a.shape[0]
    if n % 2 != 0:
        raise PfaffianError("pfaffian undefined for odd order")
    if n == 0:
        return 1.0 + 0.0j
    scale = max(np.max(np.abs(a)), 1.0)
    result = 1.0 + 0.0j
    for k in range(0, n - 2, 2):
        col = np.abs(a[k + 1:, k])
        ip = int(np.argmax(col)) + k + 1
        if col[ip - (k + 1)] <= 1e-300 * scale:
            return 0.0 + 0.0j
        if ip != k + 1:
            a[[k + 1, ip], :] = a[[ip, k + 1], :]
            a[:, [k + 1, ip]] = a[:, [ip, k + 1]]
            result = -result
        pivot = a[k + 1, k]
        result *= a[k, k + 1]
        tau = a[k + 2:, k] / pivot
        row = a[k + 1, k + 2:]
        a[k + 2:, k + 2:] -= np.outer(tau, row) - np.outer(row, tau)
    result *= a[n - 2, n - 1]
    return complex(result)


def pfaffian_combinatorial(m: np.ndarray, max_dim: int = 8) -> complex:
    """Defining signed sum over perfect matchings; oracle for dims <= 8."""
    a = _check_skew(m)
    n = a.shape[0]
    if n % 2 != 0:
        raise PfaffianError("pfaffian undefined for odd order")
    if n > max_dim:
        raise PfaffianError(f"combinatorial pfaffian limited to dim {max_dim}")

    def rec(idx: tuple[int, ...]) -> complex:
        if not idx:
            return 1.0 + 0.0j
        i0 = idx[0]
        total = 0.0 + 0.0j
        for pos in range(1, len(idx)):
            j = idx[pos]
            rest = idx[1:pos] + idx[pos + 1:]
            sign = -1.0 if pos % 2 == 0 else 1.0
            total += sign * a[i0, j] * rec(rest)
        return total

    return complex(rec(tuple(range(n))))


@dataclass
class SkewPair:
    """Skew moment matrix plus border vector, indexed by absolute mode index.

    Row/column r of `a_matrix` (and entry r of `border`) hold the moment of
    absolute index `index_base + r`; index_base < 0 supports negative
    determinant exponents.
    """

    a_matrix: np.ndarray
    border: np.ndarray
    index_base: int = 0
    provenance: str = ""

    def __post_init__(self) -> None:
        self.a_matrix = np.asarray(self.a_matrix, dtype=complex)
        self.border = np.asarray(self.border, dtype=complex)
        if self.a_matrix.shape[0] != self.a_matrix.shape[1]:
            raise ValueError("moment matrix must be square")
        if self.border.shape[0] != self.a_matrix.shape[0]:
            raise ValueError("border length must match matrix dimension")

    @property
    def size(self) -> int:
        return self.a_matrix.shape[0]

    def skewness_defect(self) -> float:
        scale = max(float(np.max(np.abs(self.a_matrix))), 1e-300)
        return float(np.max(np.abs(self.a_matrix + self.a_matrix.T))) / scale

    def lookup(self, indices) -> np.ndarray:
        rows = np.asarray(indices, dtype=int) - self.index_base
        if np.any(rows < 0) or np.any(rows >= self.size):
            need = int(max(np.max(np.asarray(indices)) - self.index_base + 1, 0))
            raise MomentTableError(
                f"moment table of size {self.size} (base {self.index_base}) cannot serve "
                f"indices {tuple(indices)}; need at least size {need}")
        return rows


def abar(h: tuple[int, ...], L: int, pair: SkewPair) -> complex:
    """Bordered-Pfaffian series coefficient for shifted indices h at offset L.

    Even length: Pf of the submatrix at rows/cols h_i + L.  Odd length: the
    border vector occupies the last row/column, so a single index gives
    +border[h_1 + L].  Empty h gives 1.
    """
    n = len(h)
    if n == 0:
        return 1.0 + 0.0j
    if any(h[i] <= h[i + 1] for i in range(n - 1)):
        raise ValueError(f"shifted indices must be strictly decreasing, got {h}")
    rows = pair.lookup([hi + L for hi in h])
    sub = pair.a_matrix[np.ix_(rows, rows)]
    if n % 2 == 0:
        return pfaffian(sub)
    bord = pair.border[rows]
    ext = np.zeros((n + 1, n + 1), dtype=complex)
    ext[:n, :n] = sub
    ext[:n, n] = bord
    ext[n, :n] = -bord
    return pfaffian(ext)
