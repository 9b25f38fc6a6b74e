"""Symmetric-function layer: h_n, Schur functions, Miwa shifts, V, c(t,s).

Coupling sequences are the deformation parameters of the ensembles and
double as the "times" of the series machinery.  Entries may be complex
(Miwa shifts at complex points need this); c_factor is real-input only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .skewlin import _cmul


@dataclass(frozen=True)
class CouplingSeq:
    """Finite coupling sequence (t_1, ..., t_K); entries beyond K are zero."""

    values: tuple = ()

    def __post_init__(self) -> None:
        def norm(v):
            if isinstance(v, complex):
                return float(v.real) if v.imag == 0.0 else complex(v)
            return float(v)
        object.__setattr__(self, "values", tuple(norm(v) for v in self.values))

    @classmethod
    def of(cls, *values) -> "CouplingSeq":
        return cls(tuple(values))

    @property
    def order(self) -> int:
        return len(self.values)

    def entry(self, n: int):
        """1-based coefficient t_n (zero beyond the stored order)."""
        return self.values[n - 1] if 1 <= n <= len(self.values) else 0.0

    def is_real(self) -> bool:
        return all(not isinstance(v, complex) or v.imag == 0.0 for v in self.values)

    def top_index(self) -> int:
        """Largest n with t_n != 0, or 0 for the zero sequence."""
        for n in range(len(self.values), 0, -1):
            if self.values[n - 1] != 0:
                return n
        return 0

    def __str__(self) -> str:
        return "(" + ", ".join(repr(v) for v in self.values) + ")"


ZERO_SEQ = CouplingSeq()


def potential(x, t: CouplingSeq):
    """V(x,t) = sum_n t_n x^n, a finite sum over the stored order."""
    acc = 0.0
    xp = 1.0
    for v in t.values:
        xp = xp * x
        acc = acc + v * xp
    return acc


def hseq(nmax: int, t) -> np.ndarray:
    """h_0..h_nmax from the recurrence n h_n = sum_k p_k h_{n-k}, p_k = k t_k.

    `t` is a CouplingSeq (one table comes back) or a (batch, K) array whose
    rows are power sums p_1..p_K (a (batch, nmax+1) array comes back).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if isinstance(t, CouplingSeq):
        p = np.array([k * v for k, v in enumerate(t.values, start=1)])
    else:
        p = np.asarray(t).T
    h = np.zeros((nmax + 1,) + p.shape[1:], dtype=np.result_type(p, float))
    h[0] = 1.0
    for n in range(1, nmax + 1):
        acc = 0.0
        for k in range(1, min(n, len(p)) + 1):
            acc = acc + p[k - 1] * h[n - k]
        h[n] = acc / n
    return h.T


def schur_from_h(parts, h):
    """Jacobi-Trudi determinants det(h_{lam_i - i + j}), h_m = 0 for m < 0, of the partitions
    of one length in the rows of the (P, length) array `parts`, over the tables h_0..h_K on
    the last axis of `h`: an array of shape h.shape[:-1] + (P,).

    One fraction-free (Bareiss) elimination with partial pivoting, by elementwise operations
    in a fixed order, so each member's bits are its own; complex entries multiply by `_cmul`
    and size pivots by |re| + |im|, so no SIMD path of NumPy's sets them.  The last step is
    the closed form of the trailing 2 x 2 block, whose bits a row swap would only negate, so
    lengths 1 and 2 take no pivot step.  A dead pivot column leaves exact zeros and reads 0.
    """
    parts, h = np.asarray(parts, dtype=int), np.asarray(h)
    if parts.ndim != 2:
        raise ValueError(f"expected a (partitions, length) array, got shape {parts.shape}")
    ell = parts.shape[1]
    if ell == 0:
        return np.ones(h.shape[:-1] + parts.shape[:1], dtype=h.dtype)
    # a[i, j] is entry (i, j), m = lam_i - i + j, over the batch: the P partitions by the
    # tables in reverse order (h.T), flattened, which the closing reshape and .T put back
    k = np.arange(ell)
    m = (parts.T - k[:, None])[:, None] + k[:, None]
    try:
        a = h.T[np.maximum(m, 0)]
    except IndexError:
        raise ValueError(f"h table too short: need index {m.max()}") from None
    a[m < 0] = 0
    shape, a = a.shape[2:], a.reshape(ell, ell, -1)
    real = a.dtype.kind != "c"
    mul = np.multiply if real else _cmul
    for s in range(ell, 1, -1):
        row = a[0]
        if s > 2:
            # the first largest entry of column 0 is the pivot; its row trades places with
            # row 0, negated, so the determinant keeps its sign
            size = np.abs(a[:, 0]) if real else np.abs(a[:, 0].real) + np.abs(a[:, 0].imag)
            ip, members = np.argmax(size, axis=0), np.arange(a.shape[-1])
            row = a[ip, :, members].T
            a[ip, :, members] = -a[0].T
        a = mul(row[0], a[1:, 1:]) - mul(row[1:], a[1:, :1])
        if s < ell:
            a /= prev + (prev == 0)    # after a dead pivot, by 1
        prev = row[0]
    return a[0, 0].reshape(shape).T


def miwa_shift(t: CouplingSeq, atoms: Sequence[tuple], order: int | None = None) -> CouplingSeq:
    """t_n -> t_n - (1/n) * sum_i a_i p_i^n for n = 1..order.

    atoms is a list of (weight a_i, point p_i); the bracket shift t +- [a]
    used by the bilinear-identity checks is atoms=[(-+1, a)].
    """
    k = t.order if order is None else order
    vals = []
    for n in range(1, k + 1):
        shift = 0.0
        for a, p in atoms:
            shift = shift + a * p ** n
        vals.append(t.entry(n) - shift / n)
    return CouplingSeq(tuple(vals))


def c_factor(t: CouplingSeq, s: CouplingSeq) -> float:
    """exp(sum_n n t_n s_n); couples the two deformation directions."""
    if not (t.is_real() and s.is_real()):
        raise ValueError("c_factor is defined for real coupling sequences")
    k = min(t.order, s.order)
    return math.exp(sum(n * t.entry(n).real * s.entry(n).real for n in range(1, k + 1)))
