"""Skew-symmetric linear algebra: Pfaffians and bordered series coefficients.

Two independent routes are kept side by side: Gaussian elimination in the
Parlett-Reid style for production, run over every principal submatrix that
a batch of index rows picks from one table at once (Wimmer, arXiv:1102.3440),
and the defining signed sum over perfect matchings as an oracle for small
sizes.  One matrix is the one-row case of the same elimination.
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


def _check_skew(m, stack: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """A square matrix, or with `stack` also a (tables, n, n) stack of them, as float64 if
    its type is real and as complex otherwise, and the largest |entry| of each (0 for an
    empty one), in an array of shape m.shape[:-2].

    Each must be skew within SKEW_RTOL of its own largest entry.
    """
    m = np.asarray(m)
    m = m.astype(float if m.dtype.kind in "biuf" else complex, copy=False)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2]:
        raise PfaffianError(f"expected a square matrix{' or a stack of them' * stack}, "
                            f"got shape {m.shape}")
    axes = (-2, -1) if m.ndim == 3 else None   # one matrix: a plain, faster reduction
    scale = np.max(np.abs(m), axis=axes, initial=0.0)
    if m.size and (np.max(np.abs(m + m.swapaxes(-1, -2)), axis=axes) > SKEW_RTOL * scale).any():
        raise PfaffianError("matrix is not skew-symmetric within tolerance")
    return m, scale


def _cmul(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise complex product, each real product rounded on its own, into `out`
    (which may not share memory with x or y) or a new array.

    NumPy's vector complex multiply may fuse multiply-adds, depending on the
    CPU's SIMD path; this form gives the same bits as scalar arithmetic.
    """
    if out is None:
        out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _update(a: np.ndarray, tau: np.ndarray, row: np.ndarray) -> None:
    """a -= tau_i row_j - row_i tau_j on an (s, s, batch) block, in place, through
    C-contiguous `out=` buffers; a block over 64 KiB goes one row at a time, as
    fresh pages for full-size temporaries cost more than the arithmetic."""
    whole = a.nbytes <= 1 << 16
    x = np.empty(a.shape if whole else row.shape, dtype=a.dtype)
    y = np.empty_like(x)
    for block, t, r in [(a, tau[:, None], row[:, None])] if whole else zip(a, tau, row):
        np.multiply(t, row, out=x)
        np.multiply(r, tau, out=y)
        np.subtract(x, y, out=x)
        np.subtract(block, x, out=block)


def _gather(a: np.ndarray):
    """take(r, c) on an (n, n, batch) stack: entry (r[..., b], c[..., b]) of member b."""
    (n, _, batch), flat = a.shape, np.ascontiguousarray(a).reshape(-1)
    return lambda r, c: flat.take((r * n + c) * batch + np.arange(batch))


def _pfaffians(take, idx: np.ndarray, dead, dtype) -> np.ndarray:
    """Pfaffian of each member b, the matrix take(idx[:, b] x idx[:, b]), by
    Parlett-Reid elimination with the batch axis last.  A pivot step swaps
    indices, not entries, and gathers only what is still read: the pivot
    column and row and the trailing block, a C-contiguous (n-2, n-2, batch)
    array, of which the last step updates only the one entry it returns.
    A member whose pivot column's largest |entry| c is `dead(c)` divides by
    1 instead and gives exactly 0.

    A float64 `dtype` runs in real arithmetic, which gives the real parts of
    the complex elimination bit for bit: its products are the complex ones
    with zero imaginary parts, and its tau = x * (1 / pivot) is what
    NumPy's complex division (Smith's method) reduces to on real operands.
    """
    n, batch = idx.shape
    if n % 2 != 0:
        raise PfaffianError("pfaffian undefined for odd order")
    real = dtype == np.float64
    mul = np.multiply if real else _cmul
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
        row = take(idx[1], rest)
        if n == 2:
            # entry (0, 1) of `_update`'s block, by the same operations in the same order
            last = take(rest[0], rest[1]) - (tau[0] * row[1] - row[0] * tau[1])
            return np.where(alive, mul(result, last), 0.0)
        a = take(rest[:, None], rest[None, :])
        _update(a, tau, row)
        take, idx = _gather(a), np.broadcast_to(np.arange(n)[:, None], (n, batch))
    if n:
        result = mul(result, take(idx[0], idx[1]))
    return np.where(alive, result, 0.0)


def pfaffian(m, rows=None):
    """Pfaffian by skew Gaussian elimination with partial pivoting.

    Without `rows`, the Pfaffian of the matrix `m` (a complex).  With `rows`, a
    (batch, n) index array, the Pfaffians of the principal submatrices
    m[rows[b]][:, rows[b]] of the table `m` (an array).  The table's dtype is the
    arithmetic: a real table is eliminated and answered in float64, any other in
    complex.  `m` may also be a (tables, size, size) stack, whose rows index its
    block diagonal without building it: row r is row r % size of table r // size,
    and every member lies in one table.  Each table is checked once, so the skew
    tolerance is SKEW_RTOL of the table's largest entry, not the block's.  A member
    with no usable pivot gives exactly 0 and the others are unaffected.  Odd order
    is refused: the caller has lost a border column somewhere.
    """
    if rows is None:
        m, scale = _check_skew(m)
        return complex(_minors(m, scale, np.arange(len(m))[None])[0])
    return _minors(*_check_skew(m, stack=True), np.asarray(rows, dtype=int))


# bytes per elimination: the members are eliminated in slices whose first trailing block
# stays within 256 KiB, so peak memory does not grow with a stack
_MINOR_BUDGET = 1 << 18


def _minors(table: np.ndarray, scale: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`pfaffian(table, rows)` of a checked table or stack and its scales, in the arithmetic
    of the table's dtype: the tables are gathered from, never copied whole."""
    size = table.shape[-1]
    span = table.size // size if size else 0
    if rows.ndim != 2 or rows.size and not 0 <= rows.min() <= rows.max() < span:
        raise PfaffianError(f"expected (batch, n) indices into a table of size {span}")
    if table.ndim == 3 and rows.shape[1] and (rows // size != rows[:, :1] // size).any():
        raise PfaffianError("every member must lie in one table of the stack")
    if not rows.shape[1]:
        return np.ones(len(rows), dtype=table.dtype)
    flat = table.reshape(-1)

    def eliminate(r):
        # member b lies in table k[b], whose rows start at off[b]: entry (i, j) of the block
        # diagonal, i and j in that table, is flat[i * size + j - off[b]]
        k = r[:, 0] // size
        off = k * size

        def take(i, j):
            return flat.take(i * size + j - off)

        def dead(c):
            # c <= 1e-300 max(scale, 1) with the scale of each member's table, as for the
            # member alone; that scale bounds the member's own, which is gathered only in doubt
            out = c <= 1e-300 * np.maximum(scale.reshape(-1)[k], 1.0)
            if (out & (c > 1e-300)).any():
                own = np.max(np.abs(take(r.T[:, None], r.T[None, :])), axis=(0, 1))
                out = c <= 1e-300 * np.maximum(own, 1.0)
            return out

        return _pfaffians(take, r.T, dead, table.dtype)

    step = max(1, _MINOR_BUDGET // (table.itemsize * max(rows.shape[1] - 2, 1) ** 2))
    parts = [eliminate(rows[s:s + step]) for s in range(0, len(rows), step) or range(1)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def pfaffian_combinatorial(m: np.ndarray) -> complex:
    """Defining signed sum over perfect matchings; oracle for dims <= COMBINATORIAL_MAX_DIM."""
    a = _check_skew(m)[0].astype(complex)
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
    determinant exponents.  A (tables, size, size) `a_matrix` with a
    (tables, size) `border` is a stack of pairs that share the index base.
    Both take the type of their entries, float64 at least: a real pair stays real.
    """

    a_matrix: np.ndarray
    border: np.ndarray
    index_base: int = 0

    def __post_init__(self) -> None:
        a_matrix, border = np.asarray(self.a_matrix), np.asarray(self.border)
        dtype = np.result_type(a_matrix, border, float)
        self.a_matrix = a_matrix.astype(dtype, copy=False)
        self.border = border.astype(dtype, copy=False)
        if self.a_matrix.shape[-2] != self.a_matrix.shape[-1]:
            raise ValueError("moment matrix must be square")
        if self.border.shape != self.a_matrix.shape[:-1]:
            raise ValueError("border length must match matrix dimension")

    @property
    def size(self) -> int:
        return self.a_matrix.shape[-1]

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


def abar(h, L: int | np.ndarray, pair: SkewPair) -> np.ndarray:
    """Bordered-Pfaffian series coefficients for shifted indices at offset L.

    `h` is a (batch, charge) array of strictly decreasing shifted indices, one
    coefficient per row.  Even charge: Pf of the submatrix at rows/cols
    h_i + L.  Odd charge: the border vector occupies the last row/column, so
    a single index gives +border[h_1 + L].  Charge 0 gives 1.  Every
    coefficient is a principal minor of the one (bordered) table, so the
    table is checked once and the skew tolerance is SKEW_RTOL of its largest
    entry: a block of a caller-built table passes with a defect above
    SKEW_RTOL of its own scale if the table's scale covers it.  A stack of
    pairs gives a (tables, batch) array: every row of `h` on every table, all
    in one elimination, each table checked on its own, and `L` may then be
    one offset per pair, an int array of shape (tables,).  The coefficients
    are in the pair's dtype.
    """
    hs = np.asarray(h, dtype=int)
    if hs.ndim != 2:
        raise ValueError(f"expected a (batch, charge) index array, got shape {hs.shape}")
    rising = np.any(hs[:, :-1] <= hs[:, 1:], axis=1)
    if np.any(rising):
        raise ValueError("shifted indices must be strictly decreasing, "
                         f"got {tuple(hs[np.argmax(rising)].tolist())}")
    L = np.asarray(L, dtype=int)
    if L.ndim and L.shape != pair.a_matrix.shape[:-2]:
        raise ValueError(f"expected one offset per pair of a stack, got shape {L.shape}")
    rows = pair.lookup(hs + L[..., None, None])   # (batch, charge), or per pair (tables, ...)
    table = pair.a_matrix
    if hs.shape[1] % 2:
        n = pair.size
        table = np.zeros(table.shape[:-2] + (n + 1, n + 1), dtype=table.dtype)
        table[..., :n, :n] = pair.a_matrix
        table[..., :n, n] = pair.border
        table[..., n, :n] = -pair.border
        rows = np.concatenate([rows, np.full(rows.shape[:-1] + (1,), n)], axis=-1)
    if table.ndim == 3:
        # row r of table k is row k * size + r of the stack's block diagonal
        offsets = np.arange(len(table))[:, None, None] * table.shape[-1]
        rows = (offsets + rows).reshape(len(table) * len(hs), rows.shape[-1])
    # the module-level `pfaffian`, so perfbench's tracer counts every coefficient stack
    return pfaffian(table, rows).reshape(table.shape[:-2] + hs.shape[:1])
