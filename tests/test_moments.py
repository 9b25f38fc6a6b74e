import math

import numpy as np
import pytest

from pftau import moments
from pftau.moments import (EnsembleSpec, ValidationError, clip_support, complex_bimoment_matrix,
                           kernel_matrix, kernel_prefactor, moment_pair)
from pftau.quad import QuadratureError, erfc_vec
from pftau.symfun import CouplingSeq, ZERO_SEQ, potential

SQRT_PI = math.sqrt(math.pi)


def _skew_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a + a.T))) / float(np.max(np.abs(a)))


def test_spec_defaults_and_mix():
    assert EnsembleSpec("OE", 2).mix == (0.0, 1.0)
    assert EnsembleSpec("SE", 2).mix == (0.0, 1.0)
    assert EnsembleSpec("GinOE", 2).mix == (1.0, 1.0)
    assert EnsembleSpec("GinSE", 2).mix == (1.0, 0.0)
    assert EnsembleSpec("GinSE", 2, alpha=0.5, beta=0.25).mix == (0.5, 0.25)
    assert EnsembleSpec("SE", 3).n_eff == 6
    assert EnsembleSpec("GinOE", 3).n_eff == 3
    with pytest.raises(ValueError):
        EnsembleSpec("UE", 1)
    with pytest.raises(ValueError):
        EnsembleSpec("OE", -1)


def test_spec_validation_gate():
    bad = EnsembleSpec("OE", 1, t=CouplingSeq.of(0, 0, 0.2))
    with pytest.raises(ValidationError):
        moment_pair(bad, 4)


def test_ginse_structure_closed_form():
    pair = moment_pair(EnsembleSpec("GinSE", 2), 8)
    a = pair.a_matrix.real
    mx = np.max(np.abs(a))
    for m in range(7):
        assert a[m, m + 1] == pytest.approx(math.pi * math.factorial(m + 1) / 2, rel=1e-9)
    off = a.copy()
    for m in range(7):
        off[m, m + 1] = off[m + 1, m] = 0.0
    assert np.max(np.abs(off)) < 1e-9 * mx
    for m in range(1, 6):
        assert a[m, m + 1] / a[m - 1, m] == pytest.approx(m + 1, rel=1e-6)
    assert np.max(np.abs(pair.a_matrix.imag)) < 1e-12 * mx


def test_se_moment_closed_form():
    pair = moment_pair(EnsembleSpec("SE", 1), 4)
    assert pair.a_matrix[2, 1].real == pytest.approx(SQRT_PI / 4, rel=1e-10)
    assert np.all(pair.border == 0)


def test_oe_raw_already_antisymmetric():
    s = CouplingSeq.of(0.0, 0.4)
    pair = moment_pair(EnsembleSpec("OE", 2, 0, ZERO_SEQ, s), 6)
    assert _skew_defect(pair.a_matrix) < 1e-12


def test_oe_border_includes_gaussian():
    pair = moment_pair(EnsembleSpec("OE", 1), 5)
    # a_n = sqrt(2) * int x^n e^{-x^2/2} dx
    assert pair.border[0].real == pytest.approx(math.sqrt(2) * math.sqrt(2 * math.pi), rel=1e-10)
    assert abs(pair.border[1]) < 1e-12
    assert pair.border[2].real == pytest.approx(math.sqrt(2) * math.sqrt(2 * math.pi), rel=1e-10)


def test_ginoe_pair_is_real_and_skew():
    pair = moment_pair(EnsembleSpec("GinOE", 2), 6)
    mx = np.max(np.abs(pair.a_matrix))
    assert np.max(np.abs(pair.a_matrix.imag)) < 1e-12 * mx
    assert _skew_defect(pair.a_matrix) < 1e-12


def test_ginse_conjugation_reflection_of_raw_moments():
    # the quaternion sector's raw table: the (z - zbar) factor rides along
    raw = moments.pair_moments("GinSE", ZERO_SEQ, ZERO_SEQ, range(6), level=1,
                               extra=lambda z: z - np.conj(z))
    for n in range(6):
        for m in range(6):
            assert raw[m, n] == pytest.approx(-np.conj(raw[n, m]), abs=1e-9 * np.max(np.abs(raw)))


def test_moment_tables_monotone_consistent():
    small = moment_pair(EnsembleSpec("GinSE", 2), 5)
    large = moment_pair(EnsembleSpec("GinSE", 2), 9)
    assert np.allclose(small.a_matrix, large.a_matrix[:5, :5], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kind", ["GinSE", "GinOE"])
@pytest.mark.parametrize("level", [0, 1])
def test_pair_weight_from_polar_factors_matches_the_node_formula(kind, level):
    t = CouplingSeq.of(0.1, -0.05)
    grid, w = moments._pair_rule(kind, t, ZERO_SEQ, 20, level)
    assert w.dtype == np.float64 and w.shape == (len(grid.radii), len(grid.angles))
    # the weight as formed from the complex nodes
    z = grid.nodes
    e = (-np.abs(z) ** 2 if kind == "GinSE" else -np.real(z * z)) + 2 * np.real(potential(z, t))
    ref = np.exp(e) if kind == "GinSE" else erfc_vec(math.sqrt(2.0) * np.imag(z)) * np.exp(e)
    assert np.max(np.abs(w.ravel() - ref)) <= 1e-13


def test_sector_cache_hits():
    moments.clear_cache()
    before = moments.TABLE_BUILDS
    moment_pair(EnsembleSpec("SE", 1), 6)
    mid = moments.TABLE_BUILDS
    moment_pair(EnsembleSpec("SE", 1), 6)
    assert moments.TABLE_BUILDS == mid > before


def test_orth_sectors_shared_between_oe_and_ginoe():
    moments.clear_cache()
    moment_pair(EnsembleSpec("OE", 2), 6)
    mid = moments.TABLE_BUILDS
    moment_pair(EnsembleSpec("GinOE", 2), 6)   # adds only the complex sector
    assert moments.TABLE_BUILDS == mid + 1


def test_kernel_rejects_coincident_points():
    with pytest.raises(ValueError, match="distinct"):
        kernel_matrix(EnsembleSpec("SE", 1), (0.1, 0.1))


def test_kernel_symmetry_and_skew():
    km = kernel_matrix(EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2)), (0.1, -0.1))
    assert km.kstar[0, 1] == pytest.approx(km.kstar[1, 0], rel=1e-10)
    assert km.k[0, 1] == pytest.approx(-km.k[1, 0], rel=1e-10)
    assert km.k[0, 0] == 0.0


def test_kernel_pole_on_support_rejected():
    with pytest.raises(QuadratureError, match="pole"):
        kernel_matrix(EnsembleSpec("OE", 2), (0.45, -0.1))


def test_kernel_prefactor():
    p = np.array([0.1, -0.1])
    assert kernel_prefactor(p, 0) == pytest.approx(1.0 / (p[1] - p[0]))
    assert kernel_prefactor(p, 3) == pytest.approx(1.0 / (p[1] - p[0]))  # (L+1)(2-N) = 0


def test_clip_support():
    assert clip_support(8.0, [], 0.5, 0.0, 4) == 8.0
    assert clip_support(8.0, [20.0], 0.5, 0.0, 4) == 8.0
    clipped = clip_support(12.0, [10.0], 0.5, 0.0, 4)
    assert clipped == pytest.approx(9.2)
    with pytest.raises(QuadratureError):
        clip_support(8.0, [2.0], 0.5, 0.0, 4)


def test_bimoment_diagonal_closed_form():
    m = complex_bimoment_matrix(EnsembleSpec("GinUE", 2), 4)
    for j in range(4):
        assert m[j, j].real == pytest.approx(math.pi * math.factorial(j), rel=1e-9)
    offdiag = m - np.diag(np.diag(m))
    assert np.max(np.abs(offdiag)) < 1e-9 * np.max(np.abs(m))
    for j in range(1, 4):
        assert (m[j, j] / m[j - 1, j - 1]).real == pytest.approx(j, rel=1e-9)


def test_bimoment_one_by_one_is_plain_weight():
    spec = EnsembleSpec("GinUE", 1, 0, CouplingSeq.of(0.2), t_bar=CouplingSeq.of(0.2))
    m = complex_bimoment_matrix(spec, 1)
    assert np.linalg.det(m) == pytest.approx(m[0, 0])


def test_ginue_validator():
    assert EnsembleSpec("GinUE", 2).validate().ok
    assert not EnsembleSpec("GinUE", 2, s=CouplingSeq.of(0, 0.4)).validate().ok
    assert not EnsembleSpec("GinUE", 2, t=CouplingSeq.of(0, 0.6)).validate().ok
    assert not EnsembleSpec("GinUE", 2, L2=3).validate().ok
    with pytest.raises(ValueError):
        complex_bimoment_matrix(EnsembleSpec("SE", 1), 2)


def _valid(kind, t=(), s=(), L=0, alpha=None):
    return EnsembleSpec(kind, 1, L, CouplingSeq(t), CouplingSeq(s), alpha=alpha).validate()


def test_validator_examples():
    assert _valid("OE").ok
    bad = _valid("OE", t=(0, 0, 0.1))
    assert not bad.ok and "odd top degree 3" in bad.reason
    assert _valid("OE", s=(0, 0.5), L=-1).ok


def test_validator_rules():
    assert not _valid("OE", L=-1).ok
    assert not _valid("OE", s=(0.3,)).ok                   # odd s index
    assert not _valid("OE", s=(0, -0.2)).ok                # wrong sign
    assert _valid("SE", t=(0.3, 0.2)).ok
    assert not _valid("SE", t=(0.0, 0.6)).ok
    assert not _valid("GinSE", t=(0.1,), s=(0, 0.4)).ok
    assert not _valid("GinOE", t=(0.1,), s=(0, 0.4)).ok
    # with the complex sector disabled the real-line rules apply
    assert _valid("GinOE", t=(0.1,), s=(0, 0.4), alpha=0.0).ok
    with pytest.raises(ValueError, match="unknown ensemble kind"):
        EnsembleSpec("XX", 0)
    # even negative top degree decays by itself on the real line
    assert _valid("OE", t=(0, 0, 0, -0.1)).ok
    assert not _valid("OE", t=(0, 0, 0, 0.1)).ok


def test_validator_accepts_truncated_miwa_tail():
    from pftau.symfun import miwa_shift
    t = miwa_shift(CouplingSeq.of(0.1), [(-1.0, 0.1)], 0.5, order=12)
    assert EnsembleSpec("SE", 1, 0, t).validate().ok


# Reference (ok, reason) of EnsembleSpec.validate on every combination below,
# one letter per reason and "." for ok.  A key is (kind, t label); its three
# groups are alpha = None, 0.0, 0.5, each running over s (outer) and L (inner).
# "t3s" passes the complex-sector bound but not the real-line one, so GinOE
# rejects it only through its real-sector check.
_T_GRID = {"0": (), "t1": (0.3,), "t2+": (0.1, 0.3), "t2++": (0.0, 0.6), "t2-": (0.0, -0.3),
           "t2--": (0.0, -0.6), "t3": (0.0, 0.0, 0.1), "t3s": (0.0, 0.0, 0.006),
           "t4-": (0.0, 0.0, 0.0, -0.1), "t4+": (0.0, 0.0, 0.0, 0.1),
           "t6": (0.1, 0.0, 0.0, 0.0, 0.0, 1e-8), "tc": (complex(0.1, 0.2),)}
_S_GRID = ((), (0.3,), (0.0, 0.4), (0.0, -0.2))
_L_GRID = (-2, -1, 0, 1)
_ALPHAS = (None, 0.0, 0.5)
_VALIDATION_REASONS = {
    'a': 'L=-2 puts a pole at the origin and s = 0 cannot damp it',
    'b': 'L=-1 puts a pole at the origin and s = 0 cannot damp it',
    'c': 'odd top s-index 1 blows up on one side of the origin',
    'd': 'nonpositive top s-coefficient s_2 blows up at the origin',
    'e': 'quadratic coupling t_2=0.6 overwhelms the Gaussian',
    'f': 'odd top degree 3 grows at +infinity',
    'g': 'positive top degree 4 grows at infinity',
    'h': 'deformation couplings must be real',
    'i': 's-deformation diverges near 0 along some phase ray of the complex sector; only s = 0 is admissible there',
    'j': 'quadratic coupling t_2=-0.6 overwhelms the Gaussian',
    'k': 'degree-3 coupling outruns the Gaussian on some ray of the complex sector',
    'l': 'degree-4 coupling outruns the Gaussian on some ray of the complex sector',
    'm': 'antiholomorphic determinant power too negative at the origin',
    'n': 's != 0 blows up near 0 on some ray of the full plane',
    'o': '|t_2| >= 1/2 overwhelms the full-plane Gaussian',
    'p': 'degree-3 t-coupling outruns the full-plane Gaussian',
    'q': 'degree-4 t-coupling outruns the full-plane Gaussian',
    'r': 'degree-6 t-coupling outruns the full-plane Gaussian',
    's': 'couplings must be real',
}
_VALIDATION_TABLE = {
    ('OE', '0'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('OE', 't1'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('OE', 't2+'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('OE', 't2++'): 'eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee',
    ('OE', 't2-'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('OE', 't2--'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('OE', 't3'): 'ffffffffffffffff ffffffffffffffff ffffffffffffffff',
    ('OE', 't3s'): 'ffffffffffffffff ffffffffffffffff ffffffffffffffff',
    ('OE', 't4-'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('OE', 't4+'): 'gggggggggggggggg gggggggggggggggg gggggggggggggggg',
    ('OE', 't6'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('OE', 'tc'): 'hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh',
    ('SE', '0'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('SE', 't1'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('SE', 't2+'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('SE', 't2++'): 'eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee',
    ('SE', 't2-'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('SE', 't2--'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('SE', 't3'): 'ffffffffffffffff ffffffffffffffff ffffffffffffffff',
    ('SE', 't3s'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('SE', 't4-'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('SE', 't4+'): 'gggggggggggggggg gggggggggggggggg gggggggggggggggg',
    ('SE', 't6'): 'ab..cccc....dddd ab..cccc....dddd ab..cccc....dddd',
    ('SE', 'tc'): 'hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh',
    ('GinOE', '0'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinOE', 't1'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinOE', 't2+'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinOE', 't2++'): 'eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee',
    ('GinOE', 't2-'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinOE', 't2--'): 'jjjjjjjjjjjjjjjj ab..cccc....dddd jjjjjjjjjjjjjjjj',
    ('GinOE', 't3'): 'kkkkkkkkkkkkkkkk ffffffffffffffff kkkkkkkkkkkkkkkk',
    ('GinOE', 't3s'): 'abffiiiiiiiiiiii ffffffffffffffff abffiiiiiiiiiiii',
    ('GinOE', 't4-'): 'llllllllllllllll ab..cccc....dddd llllllllllllllll',
    ('GinOE', 't4+'): 'llllllllllllllll gggggggggggggggg llllllllllllllll',
    ('GinOE', 't6'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinOE', 'tc'): 'hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh',
    ('GinSE', '0'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 't1'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 't2+'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 't2++'): 'eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee eeeeeeeeeeeeeeee',
    ('GinSE', 't2-'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 't2--'): 'jjjjjjjjjjjjjjjj ab..cccc....dddd jjjjjjjjjjjjjjjj',
    ('GinSE', 't3'): 'kkkkkkkkkkkkkkkk ffffffffffffffff kkkkkkkkkkkkkkkk',
    ('GinSE', 't3s'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 't4-'): 'llllllllllllllll ab..cccc....dddd llllllllllllllll',
    ('GinSE', 't4+'): 'llllllllllllllll gggggggggggggggg llllllllllllllll',
    ('GinSE', 't6'): 'ab..iiiiiiiiiiii ab..cccc....dddd ab..iiiiiiiiiiii',
    ('GinSE', 'tc'): 'hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh hhhhhhhhhhhhhhhh',
    ('GinUE', '0'): 'm...nnnnnnnnnnnn m...nnnnnnnnnnnn m...nnnnnnnnnnnn',
    ('GinUE', 't1'): 'm...nnnnnnnnnnnn m...nnnnnnnnnnnn m...nnnnnnnnnnnn',
    ('GinUE', 't2+'): 'm...nnnnnnnnnnnn m...nnnnnnnnnnnn m...nnnnnnnnnnnn',
    ('GinUE', 't2++'): 'oooonnnnnnnnnnnn oooonnnnnnnnnnnn oooonnnnnnnnnnnn',
    ('GinUE', 't2-'): 'm...nnnnnnnnnnnn m...nnnnnnnnnnnn m...nnnnnnnnnnnn',
    ('GinUE', 't2--'): 'oooonnnnnnnnnnnn oooonnnnnnnnnnnn oooonnnnnnnnnnnn',
    ('GinUE', 't3'): 'ppppnnnnnnnnnnnn ppppnnnnnnnnnnnn ppppnnnnnnnnnnnn',
    ('GinUE', 't3s'): 'ppppnnnnnnnnnnnn ppppnnnnnnnnnnnn ppppnnnnnnnnnnnn',
    ('GinUE', 't4-'): 'qqqqnnnnnnnnnnnn qqqqnnnnnnnnnnnn qqqqnnnnnnnnnnnn',
    ('GinUE', 't4+'): 'qqqqnnnnnnnnnnnn qqqqnnnnnnnnnnnn qqqqnnnnnnnnnnnn',
    ('GinUE', 't6'): 'rrrrnnnnnnnnnnnn rrrrnnnnnnnnnnnn rrrrnnnnnnnnnnnn',
    ('GinUE', 'tc'): 'ssssnnnnnnnnnnnn ssssnnnnnnnnnnnn ssssnnnnnnnnnnnn',
}


def test_validator_matches_its_reference_table():
    codes = {reason: code for code, reason in _VALIDATION_REASONS.items()}

    def code(v):
        assert v.ok == (v.reason is None)
        return "." if v.ok else codes[v.reason]

    assert set(_VALIDATION_TABLE) == {(kind, label) for kind in moments.KINDS for label in _T_GRID}
    for (kind, label), expected in _VALIDATION_TABLE.items():
        got = " ".join("".join(code(_valid(kind, _T_GRID[label], s, L, alpha))
                               for s in _S_GRID for L in _L_GRID) for alpha in _ALPHAS)
        assert got == expected, (kind, label)


def test_negative_det_power_needs_s_and_works():
    spec = EnsembleSpec("SE", 1, -1, s=CouplingSeq.of(0.0, 0.4))
    pair = moment_pair(spec, 6)
    assert pair.index_base == -1
    assert np.isfinite(pair.a_matrix).all()
    with pytest.raises(ValidationError):
        moment_pair(EnsembleSpec("SE", 1, -1), 6)
