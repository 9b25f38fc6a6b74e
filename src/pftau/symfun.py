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

from .partitions import Partition


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


def schur_from_h(lam, h):
    """Jacobi-Trudi determinants det(h_{lam_i - i + j}) given long-enough h tables.

    Either `lam` is a (batch, length) array of partitions of one length, one
    per row, over one table h_0..h_K (a value per partition), or `lam` is one
    Partition over a (batch, K+1) array with a table per member (a value per
    table); h_m = 0 for m < 0.
    """
    per_table = isinstance(lam, Partition)
    parts = np.array([lam.parts], dtype=int).reshape(1, lam.length) if per_table \
        else np.asarray(lam, dtype=int)
    h = np.asarray(h)
    if parts.ndim != 2 or h.ndim != 1 + per_table:
        raise ValueError("expected a partition stack over one h table, or one Partition "
                         f"over a stack of them; got shapes {parts.shape} and {h.shape}")
    batch, ell = parts.shape
    if ell == 0:
        return np.ones(len(h) if per_table else batch, dtype=h.dtype)
    # m = lam_i - i + j (i, j 1-based) peaks at lam_1 - 1 + ell
    top = int(np.max(parts[:, 0], initial=0)) + ell - 1
    if top >= h.shape[-1]:
        raise ValueError(f"h table too short: need index {top}")
    m = parts[:, :, None] + (np.arange(ell)[None, :] - np.arange(ell)[:, None])
    idx = np.maximum(m, 0)
    if per_table:    # entry (i, j) is a column of h
        mats, m = h.T[idx[0]], m[0, :, :, None]
    else:
        mats, m = h[idx].transpose(1, 2, 0), m.transpose(1, 2, 0)
    if m.min() < 0:
        mats = np.where(m >= 0, mats, 0)
    # mats[i, j] is entry (i, j) over the batch
    if ell == 1:
        return mats[0, 0]
    if ell == 2:
        return mats[0, 0] * mats[1, 1] - mats[0, 1] * mats[1, 0]
    # h underflowed to exact zeros leaves singular stacks: det 0 after a division by 0
    with np.errstate(divide="ignore"):
        return np.linalg.det(mats.transpose(2, 0, 1))


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
