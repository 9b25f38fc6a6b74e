import math

import numpy as np
import pytest

from pftau import fock
from pftau.fock import (FockVector, FockWindow, WindowError, apply_linear, apply_pair_sum,
                        apply_phi, apply_psi, apply_psi_dag, charged_vacuum, exp_pair_vev, vev)
from pftau.moments import EnsembleSpec, moment_pair
from pftau.skewlin import SkewPair, pfaffian
from pftau.symfun import ZERO_SEQ
from pftau.tauseries import tau_series

W = FockWindow(-4, 8)


def rand_vector(rng, window=W, pieces=4):
    vec = FockVector(window, {})
    for _ in range(pieces):
        x = charged_vacuum(0, window)
        for i in rng.integers(window.lo, window.hi - 1, size=3):
            x = apply_psi(int(i), x)
        if not x.is_zero():
            vec.add_into(x.scaled(complex(rng.normal(), rng.normal())))
    return vec


def test_window_validation():
    with pytest.raises(WindowError):
        FockWindow(0, 4)
    with pytest.raises(WindowError):
        charged_vacuum(9, W)
    with pytest.raises(WindowError):
        apply_psi(99, charged_vacuum(0, W))


def test_charged_vacuum_occupations():
    v0 = charged_vacuum(0, W)
    (state,), = [list(v0.amp)]
    assert W.occupied(state) == frozenset(range(-4, 0))
    assert state == W.sea()
    v2 = charged_vacuum(2, W)
    (state2,), = [list(v2.amp)]
    assert W.occupied(state2) == frozenset(range(-4, 0)) | {0, 1}
    vm = charged_vacuum(-2, W)
    (statem,), = [list(vm.amp)]
    assert W.occupied(statem) == frozenset(range(-4, -2))


def test_vacuum_orthonormality():
    for l1 in range(-2, 4):
        for l2 in range(-2, 4):
            assert vev(l1, [], l2, W) == (1.0 if l1 == l2 else 0.0)


def test_vacuum_annihilation_conditions():
    v0 = charged_vacuum(0, W)
    for i in range(W.lo, 0):
        assert apply_psi(i, v0).is_zero()
    for i in range(0, W.hi):
        assert apply_psi_dag(i, v0).is_zero()


def test_anticommutators_exact():
    rng = np.random.default_rng(2)
    vec = rand_vector(rng)
    for i, j in [(-2, -2), (1, 1), (2, 5), (-1, 3), (0, -3)]:
        both = apply_psi(i, apply_psi_dag(j, vec)).add_into(apply_psi_dag(j, apply_psi(i, vec)))
        for state in set(both.amp) | set(vec.amp):
            want = vec.amp.get(state, 0.0) if i == j else 0.0
            assert both.amp.get(state, 0.0) == want
        pp = apply_psi(i, apply_psi(j, vec)).add_into(apply_psi(j, apply_psi(i, vec)))
        assert pp.is_zero() or max(abs(v) for v in pp.amp.values()) == 0


def test_phi_squares_to_half_and_anticommutes():
    rng = np.random.default_rng(3)
    vec = rand_vector(rng)
    twice = apply_phi(apply_phi(vec))
    for state, c in vec.amp.items():
        assert twice.amp[state] == pytest.approx(0.5 * c)
    for i in (-2, 0, 3):
        anti = apply_phi(apply_psi(i, vec)).add_into(apply_psi(i, apply_phi(vec)))
        assert all(abs(v) < 1e-15 for v in anti.amp.values())


def test_phi_vacuum_expectation():
    for L in range(-3, 5):
        assert vev(L, [("phi",)], L, W) == pytest.approx((-1) ** L / math.sqrt(2))


def test_phi_parity_counts_from_the_sea_of_each_window():
    # an odd number of frozen sea levels must not flip the phi sign
    for window in (FockWindow(-5, 6), FockWindow(-1, 3)):
        for L in range(-1, 3):
            assert vev(L, [("phi",)], L, window) == pytest.approx((-1) ** L / math.sqrt(2))


def test_single_field_gives_power():
    z = 0.7 - 0.2j
    for L in (0, 1, 2, -1):
        assert vev(L + 1, [("psi_z", z)], L, W) == pytest.approx(z ** L)


def test_vandermonde_identity():
    rng = np.random.default_rng(5)
    for n, L in [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]:
        zs = 0.8 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        got = vev(n + L, [("psi_z", z) for z in zs], L, W)
        vdm = np.prod([zs[i] - zs[j] for i in range(n) for j in range(i + 1, n)])
        want = np.prod(zs ** L) * vdm
        assert got == pytest.approx(want, rel=1e-12)


def test_charge_imbalance_exactly_zero():
    assert vev(2, [("psi_z", 0.3)], 0, W) == 0.0
    assert vev(0, [("phi",), ("psi", 1)], 0, W) == 0.0


def test_an_amplitude_far_below_the_largest_is_kept():
    # psi_0 |0> beside 1e20 psi_1 |0>: only an exact zero may be dropped
    assert vev(1, [("linear", {0: 1.0, 1: 1e20}, {})], 0, FockWindow(-4, 9)) == 1.0


def test_wick_pfaffian_even_and_odd():
    rng = np.random.default_rng(8)

    def rand_word():
        v = {i: complex(rng.normal(), rng.normal()) for i in range(-3, 6)}
        u = {i: complex(rng.normal(), rng.normal()) for i in range(-3, 6)}
        return ("linear", v, u)

    for n in (4, 6):
        words = [rand_word() for _ in range(n)]
        direct = vev(1, words, 1, W)
        mat = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                mat[i, j] = vev(1, [words[i], words[j]], 1, W)
                mat[j, i] = -mat[i, j]
        assert direct == pytest.approx(pfaffian(mat), rel=1e-11)
    for n in (3, 5):
        words = [rand_word() for _ in range(n)]
        assert vev(1, words, 1, W) == 0.0


def test_window_independence_bit_identical():
    z1, z2 = 0.6 + 0.3j, -0.4 + 0.9j
    small = vev(2, [("psi_z", z1), ("psi_z", z2)], 0, FockWindow(-3, 5))
    large = vev(2, [("psi_z", z1), ("psi_z", z2)], 0, FockWindow(-6, 9))
    assert small == large   # exact equality, not approximate


def test_psi_dag_field():
    # <L-1| psi^+(p) |L> = sum_i p^{-i-1} <L-1|psi^+_i|L> = p^{-L} picks i = L-1
    p = 1.7
    for L in (0, 1, 2):
        got = vev(L - 1, [("psi_dag_z", p)], L, W)
        assert got == pytest.approx(p ** (-L))


def test_exp_pair_vev_matches_word_expansion():
    rng = np.random.default_rng(13)
    m = 6
    raw = rng.normal(size=(m, m))
    amat = raw - raw.T
    border = rng.normal(size=m)
    pair = SkewPair(amat.astype(complex), border.astype(complex))
    # charge 2: exp(Phi) contributes 1 + Phi + Phi^2/2 ... explicitly
    direct = exp_pair_vev(2, pair, 0, W)
    one = vev(2, [("pair", pair)], 0, W)
    two = vev(2, [("pair", pair), ("pair", pair)], 0, W) / 2
    assert direct == pytest.approx(one + two, rel=1e-12)


def _apply_linear_per_mode(coeffs_psi, coeffs_dag, vec):
    # one FockVector per mode, scaled and added: the loop the fused kernel replaces
    total = FockVector(vec.window)
    for i, v in coeffs_psi.items():
        if v != 0:
            total.add_into(apply_psi(i, vec).scaled(v))
    for i, u in coeffs_dag.items():
        if u != 0:
            total.add_into(apply_psi_dag(i, vec).scaled(u))
    return total.prune()


def _amp_bits(vec):
    return list(vec.amp), np.array(list(vec.amp.values()), dtype=complex).tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_fused_linear_is_the_per_mode_loop_bit_for_bit(seed):
    # states, keys and their order, amplitudes to the bit (signed zeros included), and
    # the prune; coefficients as Python and NumPy scalars, real and complex, some zero,
    # and amplitudes of both signs of zero
    rng = np.random.default_rng(400 + seed)
    vec = rand_vector(rng, pieces=6)
    vec.amp.update({k: complex(-0.0, v.imag) for k, v in list(vec.amp.items())[:2]})
    modes = range(W.lo, W.hi)
    draw = [lambda: complex(rng.normal(), rng.normal()), lambda: float(rng.normal()),
            lambda: np.complex128(rng.normal() + 1e-18j), lambda: 0.0, lambda: -0.0 + 0j]
    for _ in range(4):
        v = {i: draw[int(rng.integers(5))]() for i in modes if rng.random() < 0.6}
        u = {i: draw[int(rng.integers(5))]() for i in modes if rng.random() < 0.6}
        for cv, cu in ((v, u), (v, {}), ({}, u)):
            assert _amp_bits(apply_linear(cv, cu, vec)) == _amp_bits(
                _apply_linear_per_mode(cv, cu, vec))
    # the coefficients of psi(z) and psi^+(z), as `apply_word` forms them
    z = complex(rng.normal(), rng.normal())
    for cv, cu in (({i: z ** i for i in modes}, {}), ({}, {i: z ** (-i - 1) for i in modes})):
        assert _amp_bits(apply_linear(cv, cu, vec)) == _amp_bits(
            _apply_linear_per_mode(cv, cu, vec))


def _apply_pair_sum_per_column(pair, vec):
    # per table column, one vector per entry, scaled and added: the loop the one pass replaces
    w = vec.window
    total = FockVector(w)
    for jj in range(pair.size):
        j = pair.index_base + jj
        if not (w.lo <= j < w.hi):
            continue
        pv = apply_psi(j, vec)
        for ii in range(pair.size):
            i = pair.index_base + ii
            if pair.a_matrix[ii, jj] != 0 and w.lo <= i < w.hi:
                total.add_into(apply_psi(i, pv).scaled(0.5 * pair.a_matrix[ii, jj]))
    border = FockVector(w)
    for jj in range(pair.size):
        j = pair.index_base + jj
        if pair.border[jj] != 0 and w.lo <= j < w.hi:
            border.add_into(apply_psi(j, vec).scaled(pair.border[jj]))
    if border.amp:
        total.add_into(apply_phi(border))
    return total.prune()


@pytest.mark.parametrize("skew", [True, False])
@pytest.mark.parametrize("base, size, window", [
    pytest.param(0, 6, W, id="inside"),
    pytest.param(-3, 8, W, id="negative-base"),
    pytest.param(-2, 14, W, id="cut-above"),
    pytest.param(-6, 9, FockWindow(-3, 9), id="cut-below"),
])
def test_pair_sum_in_one_pass_is_the_per_column_loop(skew, base, size, window):
    rng = np.random.default_rng([size, 10 + base, skew])
    for complex_table in (False, True):
        raw = rng.normal(size=(size, size)) + (1j * rng.normal(size=(size, size))
                                               if complex_table else 0.0)
        border = rng.normal(size=size)
        border[rng.integers(size)] = 0.0
        pair = SkewPair(raw - raw.T if skew else raw, border, base)
        # vacua, and any eight occupation states of the window
        states = rng.integers(0, 1 << (window.hi - window.lo), size=8).tolist()
        mixed = FockVector(window, {k: complex(*rng.normal(size=2)) for k in states})
        for vec in (charged_vacuum(0, window), charged_vacuum(-1, window), mixed):
            got, want = apply_pair_sum(pair, vec), _apply_pair_sum_per_column(pair, vec)
            assert got.amp and set(got.amp) == set(want.amp)
            assert all(abs(got.amp[k] - v) <= 1e-13 * abs(v) for k, v in want.amp.items())


def _exp_pair_vev_unbounded(bra_charge, pair, ket_charge, window):
    # Phi applied until the term vanishes or the window's bound: the loop the charge bound ends
    ket = charged_vacuum(ket_charge, window)
    (bra_state, _), = charged_vacuum(bra_charge, window).amp.items()
    total, term, k = ket.coefficient(bra_state), ket, 0
    while not term.is_zero() and k < 2 * (window.hi - window.lo) + 2:
        k += 1
        term = apply_pair_sum(pair, term).scaled(1.0 / k)
        total += term.coefficient(bra_state)
    return complex(total)


def test_exp_pair_vev_stops_at_the_bra_charge(monkeypatch):
    rng = np.random.default_rng(21)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    pairs = [SkewPair(raw - raw.T, rng.normal(size=8) + 1j * rng.normal(size=8)),
             moment_pair(EnsembleSpec("OE", 3), 8), moment_pair(EnsembleSpec("GinSE", 1, 1), 8)]
    window = FockWindow(-1, 9)
    calls = []
    monkeypatch.setattr(fock, "apply_pair_sum", lambda pair, vec: calls.append(1)
                        or apply_pair_sum(pair, vec))
    for pair in pairs:
        for ket, bra in ((0, 0), (0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 1)):
            calls.clear()
            got = exp_pair_vev(bra, pair, ket, window)
            assert len(calls) == max(bra - ket, 0)
            want = _exp_pair_vev_unbounded(bra, pair, ket, window)
            assert np.array(got).tobytes() == np.array(want).tobytes()


_FORMULA_CASES = [(kind, n, L) for kind, ns in (("OE", (1, 2, 3, 4)), ("SE", (1, 2)),
                                                ("GinOE", (2, 3)), ("GinSE", (1, 2)))
                  for n in ns for L in (0, 1)]


@pytest.mark.parametrize("kind, n, L", _FORMULA_CASES)
def test_the_fermionic_vacuum_expectation_is_the_series_at_t_zero(kind, n, L):
    # <N+L| e^Phi |L> over the package's own moment table against the tau series at t = 0,
    # N the charge n_eff: equal at even charge, times -1/sqrt(2) at odd charge, where the
    # phi mode's parity enters; at odd charge and L = 1 both vanish
    spec = EnsembleSpec(kind, n, L)
    charge = spec.n_eff
    value = exp_pair_vev(charge + L, moment_pair(spec, 12), L, FockWindow(-1, 14))
    series = tau_series(spec, 10).evaluate(ZERO_SEQ)
    if charge % 2 and L == 1:
        assert abs(value) <= 1e-14 and abs(series) <= 1e-14
    else:
        factor = 1.0 if charge % 2 == 0 else -1.0 / math.sqrt(2.0)
        assert abs(value - factor * series) <= 1e-14 * abs(series)
