"""Skew-symmetric linear algebra: Pfaffians and bordered series coefficients.

Two independent routes are kept side by side: Gaussian elimination in the
Parlett-Reid style for production, run over a whole stack of matrices at
once (Wimmer, arXiv:1102.3440), and the defining signed sum over perfect
matchings as an oracle for small sizes.  `pfaffian` and `abar` take one
matrix (one index tuple) or a whole stack of them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SKEW_RTOL = 1e-10
# the matching sum has (n-1)!! terms: 105 at n = 8
COMBINATORIAL_MAX_DIM = 8


class PfaffianError(ValueError):
    pass


class MomentTableError(IndexError):
    """Raised when a series coefficient needs moment entries outside the table."""


def _check_skew(m, ndims: tuple = (2,)) -> tuple[np.ndarray, np.ndarray]:
    """A square matrix, or with ndims=(2, 3) also a (batch, n, n) stack, as complex,
    and the largest |entry| of each member (0 for an empty one).

    Each member must be skew within SKEW_RTOL of its own largest entry.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in ndims or m.shape[-1] != m.shape[-2]:
        kind = "square matrix" if ndims == (2,) else "square matrix or a stack of them"
        raise PfaffianError(f"expected a {kind}, got shape {m.shape}")
    scale = np.max(np.abs(m), axis=(-2, -1), initial=0.0)
    if m.size:
        defect = np.max(np.abs(m + np.swapaxes(m, -1, -2)), axis=(-2, -1))
        if np.any(defect > SKEW_RTOL * scale):
            raise PfaffianError("matrix is not skew-symmetric within tolerance")
    return m, scale


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise complex product, each real product rounded on its own.

    NumPy's vector complex multiply may fuse multiply-adds, depending on the
    CPU's SIMD path; this form gives the same bits as scalar arithmetic.
    """
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def pfaffian(m):
    """Pfaffian by skew Gaussian elimination with partial pivoting.

    `m` is one matrix (a complex comes back) or a (batch, n, n) stack (an
    array of batch Pfaffians comes back).  Parlett-Reid elimination with the
    batch as a vectorised axis: a member with no usable pivot in some column
    gives exactly 0 and the others are unaffected.  Odd order is refused:
    the caller has lost a border column somewhere.
    """
    a, scale = _check_skew(m, ndims=(2, 3))
    one = a.ndim == 2
    a = a[None].copy() if one else a.copy()
    batch, n = a.shape[0], a.shape[1]
    if n % 2 != 0:
        raise PfaffianError("pfaffian undefined for odd order")
    result = np.ones(batch, dtype=complex)
    floor = 1e-300 * np.maximum(np.reshape(scale, batch), 1.0)
    alive = np.ones(batch, dtype=bool)
    members = np.arange(batch)
    for k in range(0, n - 2, 2):
        col = np.abs(a[:, k + 1:, k])
        off = np.argmax(col, axis=1)
        alive &= ~(col[members, off] <= floor)
        ip = off + k + 1
        # swap row and column k+1 with the pivot's (a no-op where ip == k+1)
        saved = a[:, k + 1, :].copy()
        a[:, k + 1, :] = a[members, ip, :]
        a[members, ip, :] = saved
        saved = a[:, :, k + 1].copy()
        a[:, :, k + 1] = a[members, :, ip]
        a[members, :, ip] = saved
        result = np.where(ip != k + 1, -result, result)
        # a dead member divides by 1 instead of its vanishing pivot
        pivot = np.where(alive, a[:, k + 1, k], 1.0)
        result = _cmul(result, a[:, k, k + 1])
        tau = a[:, k + 2:, k] / pivot[:, None]
        row = a[:, k + 1, k + 2:]
        a[:, k + 2:, k + 2:] -= tau[:, :, None] * row[:, None, :] - row[:, :, None] * tau[:, None, :]
    if n:
        result = _cmul(result, a[:, n - 2, n - 1])
    result = np.where(alive, result, 0.0)
    return complex(result[0]) if one else result


def pfaffian_combinatorial(m: np.ndarray) -> complex:
    """Defining signed sum over perfect matchings; oracle for dims <= COMBINATORIAL_MAX_DIM."""
    a, _ = _check_skew(m)
    n = a.shape[0]
    if n % 2 != 0:
        raise PfaffianError("pfaffian undefined for odd order")
    if n > COMBINATORIAL_MAX_DIM:
        raise PfaffianError(f"combinatorial pfaffian limited to dim {COMBINATORIAL_MAX_DIM}")

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

    def lookup(self, indices) -> np.ndarray:
        """Table rows of absolute indices, in any array shape."""
        indices = np.asarray(indices, dtype=int)
        rows = indices - self.index_base
        bad = (rows < 0) | (rows >= self.size)
        if np.any(bad):
            need = int(max(np.max(rows) + 1, 0))
            first = int(indices[np.unravel_index(np.argmax(bad), bad.shape)])
            raise MomentTableError(
                f"moment table of size {self.size} (base {self.index_base}) cannot serve "
                f"index {first}; need at least size {need}")
        return rows


def abar(h, L: int, pair: SkewPair):
    """Bordered-Pfaffian series coefficient(s) for shifted indices h at offset L.

    `h` is one tuple of strictly decreasing shifted indices (a complex comes
    back) or a (batch, charge) array of them, one per row (an array comes
    back).  Even charge: Pf of the submatrix at rows/cols h_i + L.  Odd
    charge: the border vector occupies the last row/column, so a single
    index gives +border[h_1 + L].  Charge 0 gives 1.  All submatrices come
    out of one fancy-index gather and go through one `pfaffian` stack.
    """
    hs = np.asarray(h, dtype=int)
    one = hs.ndim == 1
    if one:
        hs = hs[None]
    if hs.ndim != 2:
        raise ValueError(f"expected an index tuple or a (batch, charge) array, got shape {hs.shape}")
    rising = np.any(hs[:, :-1] <= hs[:, 1:], axis=1)
    if np.any(rising):
        raise ValueError("shifted indices must be strictly decreasing, "
                         f"got {tuple(hs[np.argmax(rising)].tolist())}")
    rows = pair.lookup(hs + L)
    table = pair.a_matrix
    if hs.shape[1] % 2:
        n = pair.size
        table = np.zeros((n + 1, n + 1), dtype=complex)
        table[:n, :n] = pair.a_matrix
        table[:n, n] = pair.border
        table[n, :n] = -pair.border
        rows = np.concatenate([rows, np.full((len(rows), 1), n)], axis=1)
    pf = pfaffian(table[rows[:, :, None], rows[:, None, :]])
    return complex(pf[0]) if one else pf
