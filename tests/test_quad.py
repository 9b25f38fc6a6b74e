import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from pftau import moments
from pftau.quad import (LinePanels, QuadratureError, _cumulative_matrix, _gl_rule,
                        _polar_grid, angular_table, converge, full_plane_grid,
                        gaussian_halfwidth, half_plane_grid, polar_gram, power_table,
                        real_line_breakpoints)

SQRT_PI = math.sqrt(math.pi)
_erfc = np.vectorize(math.erfc, otypes=[float])


_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def _erfc_series(x: Decimal) -> Decimal:
    # erfc(x) = 1 - 2/sqrt(pi) sum_n (-1)^n x^(2n+1) / (n! (2n+1)), to the context's precision
    total, term, n = Decimal(0), x, 0
    while abs(term) > Decimal("1e-45"):
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 1 - 2 * total / _PI.sqrt()


def _erfc_continued_fraction(x: Decimal, depth: int = 100) -> Decimal:
    # sqrt(pi) e^{x^2} erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    tail = Decimal(0)
    for k in range(depth, 0, -1):
        tail = (Decimal(k) / 2) / (x + tail)
    return (-x * x).exp() / _PI.sqrt() / (x + tail)


def _erfc_oracle(x: float) -> float:
    """Independent erfc, correctly rounded in practice: 40-digit `decimal` arithmetic (the
    alternating series near 0, the continued fraction outside, each converged far past
    float64) rounded once to a float."""
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(abs(x))
        value = _erfc_series(d) if d <= Decimal("1.8") else _erfc_continued_fraction(d)
        return float(value if x >= 0 else 2 - value)


def test_erfc_oracle_branches_agree_at_the_cut():
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal("1.8")
        assert abs(_erfc_series(x) / _erfc_continued_fraction(x) - 1) < Decimal("1e-20")
    assert _erfc_oracle(1.0) == 0.15729920705028513
    assert _erfc_oracle(-1.0) == 2.0 - 0.15729920705028513


def test_ginoe_pair_weight_erfc_factor_matches_the_oracle():
    # erfc(sqrt 2 Im z), the erfc factor of the GinOE pair weight, on the half-plane
    # grids of two pair tables (u up to 18.5, erfc down to 1e-150, all normal): math.erfc
    # read 2 ulps at most with x86-64 glibc, and 4 leaves room for another libm while an
    # erfc that rounds e^{-u^2} before scaling it, off by 100 ulps and more, fails
    moments.clear_cache()
    for radius in (gaussian_halfwidth(1.0, 0.0, 16), gaussian_halfwidth(1.0, 0.2, 40)):
        grid = half_plane_grid(radius, level=0)
        got = moments._orth_erfc(grid, radius, 0)
        u = np.multiply.outer(math.sqrt(2.0) * grid.radii, np.sin(grid.angles))
        want = np.array([_erfc_oracle(x) for x in u.ravel().tolist()]).reshape(u.shape)
        assert got.dtype == np.float64 and not got.flags.writeable
        assert np.min(want) > 1e-151
        assert np.max(np.abs(got - want) / np.spacing(want)) <= 4.0
    moments.clear_cache()


def _line_sum(f, halfwidth, level, n_center=12, order=24, inner_cut=None):
    lp = LinePanels(real_line_breakpoints(halfwidth, n_center, inner_cut, level), order)
    return lp.integrate(f(lp.nodes))


def _plane_sum(f, radius, level):
    grid = half_plane_grid(radius, level=level)
    return complex(np.sum(grid.weights * f(grid.nodes)))


def _line_integral(f, halfwidth, rel_tol=1e-10, max_level=6, **rule):
    return converge(lambda lvl: _line_sum(f, halfwidth, lvl, **rule), rel_tol, max_level)


def _plane_integral(f, radius, rel_tol=1e-9, max_level=5):
    return converge(lambda lvl: _plane_sum(f, radius, lvl), rel_tol, max_level)


def test_gaussian_integral():
    value, residual = _line_integral(lambda x: np.exp(-x * x), 8.0)
    assert value.real == pytest.approx(SQRT_PI, rel=1e-12)
    assert residual < 1e-10 * SQRT_PI


def test_gaussian_second_moment():
    value, _ = _line_integral(lambda x: x * x * np.exp(-x * x), 8.0)
    assert value.real == pytest.approx(SQRT_PI / 2, rel=1e-12)


def test_essential_singularity_closed_form():
    # int exp(-x^2 - a/x^2) dx = sqrt(pi) exp(-2 sqrt(a))
    a = 0.25
    value, _ = _line_integral(lambda x: np.exp(-x * x - a / (x * x)), 8.0, rel_tol=1e-10,
                              inner_cut=0.02)
    assert value.real == pytest.approx(SQRT_PI * math.exp(-1.0), rel=1e-8)


def test_half_plane_gaussian_mass():
    value, _ = _plane_integral(lambda z: np.exp(-np.abs(z) ** 2), 7.0)
    assert value.real == pytest.approx(math.pi / 2, rel=1e-10)


def test_half_plane_imaginary_moment():
    value, _ = _plane_integral(lambda z: 2 * np.imag(z) * np.exp(-np.abs(z) ** 2), 7.0)
    assert value.real == pytest.approx(SQRT_PI, rel=1e-10)


def test_half_plane_real_ginibre_weight_stable():
    f = lambda z: _erfc(math.sqrt(2) * np.imag(z)) * np.exp(-np.real(z * z))
    value, _ = _plane_integral(f, 7.0, rel_tol=1e-7)
    doubled = _plane_sum(f, 7.0, level=2)
    assert value.real > 0
    assert abs(value - doubled) < 1e-6 * abs(doubled)
    # the stable value equals log(1 + sqrt 2) to high accuracy; frozen here
    assert value.real == pytest.approx(0.8813735870195428, rel=1e-9)


def test_odd_integrand_vanishes():
    res = _line_sum(lambda x: x * np.exp(-x * x), 6.0, level=0)
    assert abs(res) < 1e-12


def test_refinement_cauchy_factor():
    # low order so the panel error is visible; doubling panels must shrink
    # deltas by at least 4x while above the floating floor
    vals = [_line_sum(lambda x: np.exp(-x * x), 6.0, level, n_center=2, order=4)
            for level in range(4)]
    deltas = [abs(vals[i + 1] - vals[i]) for i in range(3)]
    for a, b in zip(deltas, deltas[1:]):
        if a < 1e-14:
            break
        assert a / max(b, 1e-300) >= 4.0


def test_nonconvergence_carries_best_estimate():
    rough = lambda x: np.cos(37.0 * x) ** 2 / (1.0 + x * x)
    with pytest.raises(QuadratureError) as err:
        _line_integral(rough, 1.0, rel_tol=1e-14, max_level=2, n_center=1, order=2)
    assert np.isfinite(err.value.residual)
    assert abs(err.value.best) > 0


def test_converge_returns_first_agreeing_level():
    built = []

    def build(level):
        built.append(level)
        return np.array([1.0, 2.0]) + 10.0 ** (-4 * level)

    value, residual = converge(build, rel_tol=1e-6)
    # levels 1 and 2 differ by ~1e-4, levels 2 and 3 by ~1e-8 <= 1e-6 * max|value|
    assert built == [0, 1, 2, 3]
    assert np.array_equal(value, build(3))
    assert residual == pytest.approx(1e-8 - 1e-12, rel=1e-6)


def test_converge_zero_floor_accepts_noise_table():
    noise = lambda level: np.array([1e-13 * (-1) ** level])
    with pytest.raises(QuadratureError):
        converge(noise, rel_tol=1e-9)
    value, residual = converge(noise, rel_tol=1e-9, zero_floor=1e-10)
    assert abs(value[0]) == 1e-13 and residual == pytest.approx(2e-13)


@pytest.mark.parametrize("max_level", [0, -1])
def test_converge_rejects_fewer_than_two_levels(max_level):
    built = []
    with pytest.raises(ValueError, match="max_level"):
        converge(lambda level: built.append(level) or 1.0, rel_tol=1e-9, max_level=max_level)
    assert built == []


def test_converge_raises_with_finest_value_and_residual():
    with pytest.raises(QuadratureError) as err:
        converge(lambda level: 1.0 + 0.5 * level, rel_tol=1e-9, max_level=2)
    assert err.value.best == 2.0
    assert err.value.residual == 0.5


def test_power_table_by_running_products():
    x = LinePanels(real_line_breakpoints(9.0, 12, inner_cut=0.01)).nodes
    ks = np.arange(-30, 31)
    table = power_table(x, ks)
    assert table.shape == (len(ks), len(x))
    # x^0, x^1 and x^-1 are exact; every other power is a running product
    assert np.array_equal(table[30], np.ones_like(x))
    assert np.array_equal(table[31], x)
    assert np.array_equal(table[29], 1.0 / x)
    for k, row in zip(ks, table):
        exact = x ** int(k)
        assert np.max(np.abs(row / exact - 1.0)) <= 1e-14, k
    # any order and any subset of exponents gives the same rows
    picks = [7, -3, 0, 7, 2]
    assert np.array_equal(power_table(x, picks), table[np.array(picks) + 30])


def test_complex_power_table_rounds_each_real_product_on_its_own():
    # the bits of Python's scalar running products, whatever NumPy's SIMD complex multiply
    # does; the downward powers are running products of 1/z
    rng = np.random.default_rng(11)
    z = rng.normal(size=200) + 1j * rng.uniform(0.05, 1.5, size=200)
    table = power_table(z, np.arange(-6, 25))
    for j, zj in enumerate(z.tolist()):
        up, down = 1.0 + 0.0j, 1.0 + 0.0j
        for k in range(25):
            assert table[k + 6, j] == up, (j, k)
            up *= zj
        inv = table[5, j]
        for k in range(1, 7):
            down *= inv
            assert table[6 - k, j] == down, (j, k)


def test_grid_invariants():
    grid = half_plane_grid(5.0)
    assert np.all(grid.weights > 0)
    assert np.all(np.imag(grid.nodes) > 0)
    fine, finer = (half_plane_grid(5.0, level=k) for k in (1, 2))
    assert np.all(np.imag(fine.nodes) > 0)
    # level 0 is the cheap confirming rule; past level 1 each level doubles both the
    # radial and the angular panel count
    assert len(grid.nodes) < len(fine.nodes)
    assert len(finer.nodes) == 4 * len(fine.nodes)
    # the stored polar factors multiply back to the nodes and weights
    for g in (grid, fine, full_plane_grid(5.0)):
        z = g.radii[:, None] * np.exp(1j * g.angles[None, :])
        assert np.array_equal(z.ravel(), g.nodes)
        assert np.array_equal(np.outer(g.radial_weights, g.angle_weights).ravel(), g.weights)


@pytest.mark.parametrize("k", [0, 1])
def test_plane_grid_level_k_plus_1_is_the_eight_panel_level_k_grid(k):
    # the base panel counts are half of (8, 6) and (8, 8), so each level is the grid that
    # those counts give one level lower, node for node and bit for bit; the half-plane
    # ladder has one cheap rule before that base, so there it is level k + 2, and level
    # k + 1 is the (4, 3) base's level k
    four_three = _polar_grid("half-plane", math.pi, 5.5, 4, 20, 3, 24, k)
    eight_six = _polar_grid("half-plane", math.pi, 5.5, 8, 20, 6, 24, k)
    for new, old in ((half_plane_grid(5.5, level=k + 1), four_three),
                     (half_plane_grid(5.5, level=k + 2), eight_six),
                     (full_plane_grid(5.5, level=k + 1), full_plane_grid(5.5, 8, 20, 8, 24, k))):
        assert new.domain == old.domain
        for name in ("radii", "radial_weights", "angles", "angle_weights"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name


def _direct_gram(grid, f, rows, cols):
    z = grid.nodes
    return np.array([[np.sum(grid.weights * f * z ** a * np.conj(z) ** b) for b in cols]
                     for a in rows])


def _assert_gram_matches_direct(grid, f, rows, cols):
    table = polar_gram(grid, f, rows, cols)
    direct = _direct_gram(grid, f, rows, cols)
    assert table.shape == (len(rows), len(cols))
    assert np.max(np.abs(table - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_polar_gram_half_plane_erfc_weight_negative_exponents():
    # the GinOE pair weight does not separate in r and theta; base -1 gives
    # the negative exponents of an L < 0 table
    grid = half_plane_grid(gaussian_halfwidth(1.0, 0.0, 16), level=1)
    z = grid.nodes
    f = _erfc(math.sqrt(2.0) * np.imag(z)) * np.exp(-np.real(z * z))
    idx = np.arange(-1, 7)
    _assert_gram_matches_direct(grid, f, idx, idx)


def test_polar_gram_full_plane_distinct_row_and_column_powers():
    # GinUE bimoment exponents: z^(j + L) zbar^(k - L2), with a weight that
    # carries a potential and so depends on the angle
    n, L, L2 = 5, 2, 1
    grid = full_plane_grid(gaussian_halfwidth(1.0, 0.2, 2 * n + L + L2 + 2))
    z = grid.nodes
    f = np.exp(-np.abs(z) ** 2 + 0.2 * z + 0.1 * np.conj(z) ** 2)
    _assert_gram_matches_direct(grid, f, np.arange(n) + L, np.arange(n) - L2)


@pytest.mark.parametrize("make", [half_plane_grid, full_plane_grid])
@pytest.mark.parametrize("weight", ["real", "complex"])
def test_polar_gram_non_contiguous_rows_and_columns(make, weight):
    # the sum and difference ranges hold entries that no (row, column) pair reads
    grid = make(gaussian_halfwidth(1.0, 0.3, 12), level=1)
    z = grid.nodes
    f = np.exp(-np.abs(z) ** 2 + 0.3 * np.real(z))
    if weight == "complex":
        f = f * np.exp(0.2j * np.imag(z * z))
    _assert_gram_matches_direct(grid, f, (0, 3, 5), (1, 4))


def _complex_exponential_gram(grid, f, rows, cols):
    """`polar_gram` of a complex weight by the contraction it once took: the weight times the
    complex exponentials e^{i d theta} of every difference d, then the radial powers."""
    rows, cols = np.asarray(rows)[:, None], np.asarray(cols)[None, :]
    s_lo, s_hi = rows.min() + cols.min(), rows.max() + cols.max()
    d_lo, d_hi = rows.min() - cols.max(), rows.max() - cols.min()
    f = np.reshape(f, (len(grid.radii), len(grid.angles))) * grid.angle_weights
    radial = grid.radial_weights * power_table(grid.radii, np.arange(s_lo, s_hi + 1))
    out = radial @ (f @ np.exp(1j * np.outer(grid.angles, np.arange(d_lo, d_hi + 1))))
    return out[rows + cols - s_lo, rows - cols - d_lo]


@pytest.mark.parametrize("make", [half_plane_grid, full_plane_grid])
def test_a_complex_weight_gram_is_the_gram_of_its_real_and_imaginary_parts(make):
    # a weight with a potential in z and in zbar, at distinct row and column powers
    grid = make(gaussian_halfwidth(1.0, 0.3, 16), level=1)
    z = grid.nodes
    f = np.exp(-np.abs(z) ** 2 + 0.3 * z + 0.1 * np.conj(z) ** 2)
    rows, cols = np.arange(7) + 1, np.arange(7) - 1
    table = polar_gram(grid, f, rows, cols)
    parts = polar_gram(grid, f.real, rows, cols) + 1j * polar_gram(grid, f.imag, rows, cols)
    assert table.tobytes() == parts.tobytes()
    ref = _complex_exponential_gram(grid, f, rows, cols)
    assert np.max(np.abs(table - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_angular_table_columns_do_not_depend_on_its_width():
    grid = half_plane_grid(5.0, level=1)
    narrow, wide = angular_table(grid, 6), angular_table(grid, 40)
    assert narrow.shape == (2, len(grid.angles), 13)
    assert np.array_equal(narrow[:, :, 6], np.stack([np.ones(len(grid.angles)),
                                                     np.zeros(len(grid.angles))]))
    assert wide[:, :, 34:47].tobytes() == narrow.tobytes()
    # a gram served from a wider table than it asks for keeps its bits
    f = np.exp(-np.abs(grid.nodes) ** 2)
    idx = np.arange(-1, 6)
    assert (polar_gram(grid, f, idx, idx, lambda g, w: angular_table(g, w + 17)).tobytes()
            == polar_gram(grid, f, idx, idx).tobytes())


def test_breakpoints_cluster_toward_zero():
    bp = real_line_breakpoints(8.0, inner_cut=0.01)
    pos = bp[bp > 0]
    assert pos[0] == pytest.approx(0.01)
    assert np.all(np.diff(pos) > 0)


def test_cumulative_against_closed_form():
    from scipy.special import erf
    lp = LinePanels(real_line_breakpoints(8.0, 12), order=24)
    cum = lp.cumulative(np.exp(-lp.nodes ** 2))
    exact = SQRT_PI / 2 * (erf(lp.nodes) + erf(8.0))
    assert np.max(np.abs(cum - exact)) < 1e-13


def test_gaussian_halfwidth_monotone():
    assert gaussian_halfwidth(1.0, 0.0, 0) < gaussian_halfwidth(0.5, 0.0, 0)
    assert gaussian_halfwidth(1.0, 0.0, 10) > gaussian_halfwidth(1.0, 0.0, 0)


def _cumulative_of_one_row(lp: LinePanels, values: np.ndarray) -> np.ndarray:
    """Reference: the spectral cumulative integral of one row, panel by panel."""
    v = values.reshape(lp.n_panels, lp.order)
    half = (lp.panels[:, 1] - lp.panels[:, 0]) / 2.0
    local = (v @ _cumulative_matrix(lp.order).T) * half[:, None]
    totals = (v * _gl_rule(lp.order)[1][None, :]).sum(axis=1) * half
    offsets = np.concatenate([[0.0], np.cumsum(totals)[:-1]])
    return (local + offsets[:, None]).ravel()


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("inner_cut", [None, 0.05])
def test_line_integrals_of_a_stack_are_its_rows_bit_for_bit(level, inner_cut):
    lp = LinePanels(real_line_breakpoints(6.0, 12, inner_cut=inner_cut, level=level))
    rng = np.random.default_rng(3)
    real = rng.standard_normal((5, len(lp.nodes)))
    for rows in (real, real + 1j * rng.standard_normal(real.shape)):
        cums, totals = lp.cumulative(rows), lp.integrate(rows)
        assert cums.shape == rows.shape and totals.shape == (len(rows),)
        for row, cum, total in zip(rows, cums, totals):
            assert lp.cumulative(row).tobytes() == cum.tobytes()
            assert _cumulative_of_one_row(lp, row).tobytes() == cum.tobytes()
            one = lp.integrate(row)
            assert isinstance(one, complex)
            assert np.complex128(one).tobytes() == np.complex128(total).tobytes()
            assert one == complex(np.sum(lp.weights * row))
