"""Finite-window free-fermion calculus with the extra Majorana-type mode.

Modes psi_i create level i, psi^+_i empties it; the vacuum has every
negative level filled.  A window [lo, hi) truncates the sea: levels below
lo are frozen occupied, levels >= hi frozen empty.  Any expectation value
whose mode indices stay inside the window is exact.

The extra mode phi squares to 1/2 and anticommutes with every psi; since
phi|0> = |0>/sqrt(2) and the psi's generate the whole module from the
vacuum, its action is forced to be diagonal on occupation states:
phi |S> = (-1)^{p(S)} / sqrt(2) |S>, with p(S) the number of creations
and annihilations separating S from the sea.

An occupation state is an int bitmask over the window: bit i - lo is set
when level i is filled, so the frozen sea below lo is implicit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .skewlin import SkewPair

_SQRT2 = math.sqrt(2.0)


class WindowError(ValueError):
    pass


@dataclass(frozen=True)
class FockWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if not (self.lo < 0 <= self.hi):
            raise WindowError(f"window [{self.lo}, {self.hi}) must straddle zero")

    def check_mode(self, i: int) -> None:
        if not (self.lo <= i < self.hi):
            raise WindowError(f"mode {i} outside window [{self.lo}, {self.hi})")

    def check_charge(self, charge: int) -> None:
        if not (self.lo <= min(0, charge) and max(0, charge) <= self.hi):
            raise WindowError(f"charge {charge} does not fit window [{self.lo}, {self.hi})")

    def sea(self) -> int:
        """The state with every level of the window below 0 filled."""
        return (1 << -self.lo) - 1

    def occupied(self, state: int) -> frozenset:
        """The filled levels of the window in `state`."""
        return frozenset(self.lo + b for b in range(self.hi - self.lo) if state >> b & 1)


class FockVector:
    """Sparse vector over occupation basis states (bitmasks, see `FockWindow.occupied`)."""

    __slots__ = ("window", "amp")

    def __init__(self, window: FockWindow, amp: dict | None = None):
        self.window = window
        self.amp = amp or {}

    def prune(self) -> "FockVector":
        """Drop the states whose amplitude is exactly 0, and only those: moment tables span
        factorial ranges, so an amplitude far below the largest one still counts."""
        self.amp = {k: v for k, v in self.amp.items() if v != 0}
        return self

    def scaled(self, c: complex) -> "FockVector":
        return FockVector(self.window, {k: c * v for k, v in self.amp.items()})

    def add_into(self, other: "FockVector") -> "FockVector":
        for k, v in other.amp.items():
            self.amp[k] = self.amp.get(k, 0.0) + v
        return self

    def coefficient(self, state: int) -> complex:
        return complex(self.amp.get(state, 0.0))

    def is_zero(self) -> bool:
        return not self.amp or all(v == 0 for v in self.amp.values())


def charged_vacuum(charge: int, window: FockWindow) -> FockVector:
    """|L>: the sea with L extra levels filled (L >= 0) or emptied (L < 0)."""
    window.check_charge(charge)
    # levels lo .. charge - 1 filled
    return FockVector(window, {(1 << (charge - window.lo)) - 1: 1.0 + 0.0j})


def _sign_above(state: int, bit: int) -> float:
    """(-1)^(filled levels above the one at `bit`)."""
    return -1.0 if (state >> (bit + 1)).bit_count() % 2 else 1.0


def apply_psi(i: int, vec: FockVector) -> FockVector:
    vec.window.check_mode(i)
    bit = i - vec.window.lo
    out: dict = {}
    for state, c in vec.amp.items():
        if state >> bit & 1:
            continue
        ns = state | 1 << bit
        out[ns] = out.get(ns, 0.0) + c * _sign_above(state, bit)
    return FockVector(vec.window, out)


def apply_psi_dag(i: int, vec: FockVector) -> FockVector:
    vec.window.check_mode(i)
    bit = i - vec.window.lo
    out: dict = {}
    for state, c in vec.amp.items():
        if not state >> bit & 1:
            continue
        ns = state ^ 1 << bit
        out[ns] = out.get(ns, 0.0) + c * _sign_above(ns, bit)
    return FockVector(vec.window, out)


def apply_phi(vec: FockVector) -> FockVector:
    sea = vec.window.sea()
    out: dict = {}
    for state, c in vec.amp.items():
        sign = -1.0 if (state ^ sea).bit_count() % 2 else 1.0
        out[state] = c * sign / _SQRT2
    return FockVector(vec.window, out)


def apply_linear(coeffs_psi: dict, coeffs_dag: dict, vec: FockVector) -> FockVector:
    """sum_i v_i psi_i + sum_i u_i psi^+_i applied once: one loop per mode adds
    v (0 + c sign), the `apply_psi` (`apply_psi_dag`) amplitude c sign scaled by v, into
    the result, in the order and with the roundings of building, scaling and adding
    one vector per mode."""
    out: dict = {}
    items = list(vec.amp.items())
    for coeffs, dag in ((coeffs_psi, False), (coeffs_dag, True)):
        for i, v in coeffs.items():
            if v == 0:
                continue
            vec.window.check_mode(i)
            bit = i - vec.window.lo
            flip, above = 1 << bit, bit + 1
            filled = flip if dag else 0
            for state, c in items:
                if state & flip == filled:
                    ns = state ^ flip
                    # the levels above `bit` are the same in state and ns: `_sign_above`
                    sign = -1.0 if (state >> above).bit_count() & 1 else 1.0
                    out[ns] = out.get(ns, 0.0) + v * (0.0 + c * sign)
    return FockVector(vec.window, out).prune()


def apply_pair_sum(pair: SkewPair, vec: FockVector) -> FockVector:
    """Phi = (1/2) sum A_ij psi_i psi_j + phi sum a_i psi_i, one application, in one pass over
    the states of `vec`.  For levels i > j, (1/2)(A_ij psi_i psi_j + A_ji psi_j psi_i) is
    (1/2)(A_ij - A_ji) psi_i psi_j, whose two signs are both read off the state, as level j
    lies below i; and phi on a state with one more level filled is minus phi on the state."""
    w, base = vec.window, pair.index_base
    # the table rows of the levels inside the window, and the bit of the first
    first = max(w.lo - base, 0)
    rows = slice(first, max(min(w.hi - base, pair.size), first))
    a = pair.a_matrix[rows, rows]
    half, border = (0.5 * (a - a.T)).tolist(), pair.border[rows].tolist()
    shift, sea = base + first - w.lo, w.sea()
    out: dict = {}
    for state, c in vec.amp.items():
        empty = [(k, 1 << b, _sign_above(state, b)) for k, b in
                 enumerate(range(shift, shift + len(border))) if not state >> b & 1]
        phi = (1.0 if (state ^ sea).bit_count() & 1 else -1.0) / _SQRT2
        for n, (i, flip_i, sign_i) in enumerate(empty):
            if border[i] != 0:
                ns = state | flip_i
                out[ns] = out.get(ns, 0.0) + phi * border[i] * sign_i * c
            row = half[i]
            for j, flip_j, sign_j in empty[:n]:
                if row[j] != 0:
                    ns = state | flip_i | flip_j
                    out[ns] = out.get(ns, 0.0) + row[j] * sign_i * sign_j * c
    return FockVector(w, out).prune()


def apply_word(word: Iterable, vec: FockVector) -> FockVector:
    """Apply a product of operators, rightmost factor first.

    Word entries: ("psi", i), ("psi_dag", i), ("phi",), ("psi_z", z),
    ("psi_dag_z", z), ("linear", vdict, udict), ("pair", SkewPair).
    """
    ops = list(word)
    modes = range(vec.window.lo, vec.window.hi)
    for op in reversed(ops):
        tag = op[0]
        if tag == "psi":
            vec = apply_psi(op[1], vec)
        elif tag == "psi_dag":
            vec = apply_psi_dag(op[1], vec)
        elif tag == "phi":
            vec = apply_phi(vec)
        elif tag == "psi_z":      # psi(z) = sum_i z^i psi_i
            vec = apply_linear({i: op[1] ** i for i in modes}, {}, vec)
        elif tag == "psi_dag_z":  # psi^+(z) = sum_i z^{-i-1} psi^+_i
            vec = apply_linear({}, {i: op[1] ** (-i - 1) for i in modes}, vec)
        elif tag == "linear":
            vec = apply_linear(op[1], op[2], vec)
        elif tag == "pair":
            vec = apply_pair_sum(op[1], vec)
        else:
            raise ValueError(f"unknown operator tag {tag!r}")
        if vec.is_zero():
            break
    return vec


def vev(bra_charge: int, word: Iterable, ket_charge: int, window: FockWindow) -> complex:
    """<bra_charge| word |ket_charge>; exact zero on charge imbalance."""
    ket = charged_vacuum(ket_charge, window)
    bra = charged_vacuum(bra_charge, window)
    result = apply_word(word, ket)
    (bra_state, _), = bra.amp.items()
    return result.coefficient(bra_state)


def exp_pair_vev(bra_charge: int, pair: SkewPair, ket_charge: int,
                 window: FockWindow) -> complex:
    """<bra| exp(Phi) |ket> with quadratic-plus-border Phi, by Taylor expansion.

    Each application of Phi raises the charge by 1 (the border term) or by 2 (the
    pair term), so no term past order bra - ket reaches <bra|.
    """
    ket = charged_vacuum(ket_charge, window)
    (bra_state, _), = charged_vacuum(bra_charge, window).amp.items()
    total = ket.coefficient(bra_state)
    term = ket
    for k in range(1, bra_charge - ket_charge + 1):
        term = apply_pair_sum(pair, term).scaled(1.0 / k)
        total += term.coefficient(bra_state)
    return complex(total)
