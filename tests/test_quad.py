import math

import numpy as np
import pytest

from pftau.quad import (LinePanels, QuadratureError, _cumulative_matrix, _gl_rule,
                        _polar_grid, angular_table, converge, erfc_vec, full_plane_grid,
                        gaussian_halfwidth, half_plane_grid, polar_gram, power_table,
                        real_line_breakpoints)

SQRT_PI = math.sqrt(math.pi)


def _erfc_series(x: float, terms: int = 120) -> float:
    parts = []
    term = x
    for n in range(terms):
        if n > 0:
            term *= -x * x / n
        parts.append(term / (2 * n + 1))
    return 1.0 - 2.0 / SQRT_PI * math.fsum(parts)


def _erfc_continued_fraction(x: float, depth: int = 500) -> float:
    # sqrt(pi) e^{x^2} erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    tail = 0.0
    for k in range(depth, 0, -1):
        tail = (k / 2.0) / (x + tail)
    return math.exp(-x * x) / SQRT_PI / (x + tail)


def _erfc_oracle(x: float) -> float:
    """Independent erfc: alternating series near 0, continued fraction outside."""
    if x < 0:
        return 2.0 - _erfc_oracle(-x)
    return _erfc_series(x) if x <= 1.8 else _erfc_continued_fraction(x)


def test_erfc_basics():
    assert erfc_vec(0.0) == 1.0
    for x in np.linspace(-4, 4, 33):
        assert erfc_vec(x) + erfc_vec(-x) == pytest.approx(2.0, abs=1e-14)


def test_erfc_cross_checked_value():
    series = _erfc_series(1.0)
    cf = _erfc_continued_fraction(1.0)
    assert series == pytest.approx(cf, rel=1e-13)
    assert erfc_vec(1.0) == pytest.approx(series, rel=1e-13)
    assert erfc_vec(1.0) == pytest.approx(0.15729920705028513, rel=1e-14)


def test_erf_plus_erfc_identity_against_oracle():
    for x in np.linspace(-4, 4, 17):
        erf_oracle = 1.0 - _erfc_oracle(x)
        assert erf_oracle + erfc_vec(x) == pytest.approx(1.0, abs=1e-13)


def test_erfc_range_and_underflow():
    assert erfc_vec(27.0) < 1e-300
    assert erfc_vec(-6.0) == pytest.approx(2.0, abs=1e-14)


def test_erfc_matches_scipy_within_four_ulps():
    from scipy import special
    x = np.concatenate([np.linspace(-7.0, 30.0, 200_001), np.linspace(26.4, 26.7, 30_001),
                        np.geomspace(1e-300, 1.0, 600), -np.geomspace(1e-300, 1.0, 600),
                        [-1.0, 1.0, -8.0, 8.0]])
    got, want = erfc_vec(x), special.erfc(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.any(want == 0.0) and np.any(want[x < 27.0] == 0.0)   # the underflow edge is covered
    normal = want >= np.finfo(float).tiny
    ulps = np.abs(got - want)[normal] / np.spacing(want[normal])
    assert np.max(ulps) <= 4.0
    assert np.max(np.abs(got - want)[~normal]) <= 2 * np.finfo(float).smallest_subnormal


def test_erfc_scalars_and_special_values():
    assert type(erfc_vec(0.5)) is float and type(erfc_vec(np.float64(-3.0))) is float
    assert erfc_vec(np.inf) == 0.0 and erfc_vec(-np.inf) == 2.0 and erfc_vec(1e200) == 0.0
    assert math.isnan(erfc_vec(math.nan))
    assert erfc_vec(np.zeros((2, 3))).shape == (2, 3)


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
    f = lambda z: erfc_vec(math.sqrt(2) * np.imag(z)) * np.exp(-np.real(z * z))
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
    f = erfc_vec(math.sqrt(2.0) * np.imag(z)) * np.exp(-np.real(z * z))
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
