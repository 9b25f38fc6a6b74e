import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pftau import moments
from pftau.moments import EnsembleSpec, moment_pair
from pftau.partitions import (Partition, conjugate, enumerate_partitions, is_even_partition,
                              partition_table)
from pftau.symfun import CouplingSeq, ZERO_SEQ, hseq, schur_from_h
from pftau.tauseries import (TauApprox, group_series, hirota_residual, schur_values,
                             series_terms, tau_charge_family, tau_series,
                             wave_polynomial_check)

SQRT_PI = math.sqrt(math.pi)


def test_value_at_zero_is_empty_coefficient():
    tau = tau_series(EnsembleSpec("GinSE", 1, 1), 8)
    # the empty partition heads partition_table order
    assert tau.lams[0] == Partition(())
    assert tau.evaluate(ZERO_SEQ) == pytest.approx(tau.terms[0])


def test_se_single_coefficient():
    tau = tau_series(EnsembleSpec("SE", 1), 8)
    assert tau.lams[0] == Partition(())
    assert tau.terms[0] == pytest.approx(SQRT_PI / 2, rel=1e-10)


def test_se_ratio_reaches_gaussian_shift_identity():
    tau = tau_series(EnsembleSpec("SE", 1), 12)
    t = CouplingSeq.of(0.3)
    ratio = tau.evaluate(t) / tau.evaluate(ZERO_SEQ)
    assert complex(ratio).real == pytest.approx(math.exp(0.09), rel=1e-6)
    assert abs(complex(ratio).imag) < 1e-12


def test_truncation_monotone_for_small_couplings():
    spec = EnsembleSpec("SE", 1)
    t = CouplingSeq.of(0.25, -0.1)
    target = tau_series(spec, 18).evaluate(t)
    errs = [abs(tau_series(spec, w).evaluate(t) - target) for w in (4, 6, 8, 10)]
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def test_alpha_zero_ginoe_matches_oe_coefficientwise():
    cut = 8
    oe = tau_series(EnsembleSpec("OE", 2, 1), cut)
    gin0 = tau_series(EnsembleSpec("GinOE", 2, 1, alpha=0.0), cut)
    assert gin0.lams == oe.lams == enumerate_partitions(cut, 2)
    assert np.array_equal(gin0.terms, oe.terms)   # exact equality


def test_reality_of_evaluations():
    for kind, n in (("GinSE", 2), ("GinOE", 2), ("OE", 2), ("SE", 2)):
        tau = tau_series(EnsembleSpec(kind, n, 1), 10)
        for t in (CouplingSeq.of(0.2), CouplingSeq.of(0.1, -0.05)):
            val = tau.evaluate(t)
            assert abs(val.imag) <= 1e-8 * max(abs(val), 1e-300)


_small = st.floats(-0.3, 0.3, allow_nan=False)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["GinSE", "GinOE"]), st.integers(1, 2), _small, _small)
# a tiny t_2 underflows h to exact zeros: singular Jacobi-Trudi stacks, det 0
@example("GinSE", 2, 0.0, 2.082e-155)
def test_reality_property(kind, n, t1, t2):
    tau = tau_series(EnsembleSpec(kind, n, 0), 8)
    val = tau.evaluate(CouplingSeq.of(t1, t2 / 3.0))
    assert abs(val.imag) <= 1e-8 * max(abs(val), 1e-300)


def test_ordered_terms_canonical():
    tau = tau_series(EnsembleSpec("SE", 1), 5)
    keys = [(lam.weight, tuple(-p for p in lam.parts)) for lam in tau.lams]
    assert keys == sorted(keys)


def test_group_series_examples():
    assert group_series("orthogonal", 3, ZERO_SEQ, 6) == 1.0
    t1 = CouplingSeq.of(0.4)
    assert group_series("orthogonal", 3, t1, 2) == pytest.approx(1 + 0.4 ** 2 / 2)
    assert group_series("symplectic", 2, t1, 2) == pytest.approx(1 + 0.4 ** 2 / 2)
    t12 = CouplingSeq.of(0.4, 0.3)
    assert group_series("orthogonal", 3, t12, 2) == pytest.approx(1 + 0.4 ** 2 / 2 + 0.3)
    assert group_series("symplectic", 2, t12, 2) == pytest.approx(1 + 0.4 ** 2 / 2 - 0.3)
    with pytest.raises(ValueError):
        group_series("unitary", 2, t1, 4)


def test_group_series_predicate_duality():
    sets_o = {lam for lam in enumerate_partitions(10, 10) if is_even_partition(lam)}
    sets_s = {lam for lam in enumerate_partitions(10, 10) if is_even_partition(conjugate(lam))}
    assert {conjugate(lam) for lam in sets_o} == sets_s


def test_hirota_requires_distinct_nonzero_points():
    fam = tau_charge_family(EnsembleSpec("SE", 1), [1, 2, 3, 4], 6)
    with pytest.raises(ValueError, match="distinct"):
        hirota_residual(fam, ZERO_SEQ, 3.0, 3.0)
    with pytest.raises(ValueError, match="nonzero"):
        hirota_residual(fam, ZERO_SEQ, 0.0, 3.0)
    with pytest.raises(ValueError, match="consecutive"):
        hirota_residual({1: fam[1], 2: fam[2], 4: fam[4], 3: fam[3], 7: fam[1]},
                        ZERO_SEQ, 3.0, 4.0)
    at_l1 = tau_charge_family(EnsembleSpec("SE", 1, 1), [1, 2, 3, 4], 6)
    with pytest.raises(ValueError, match=r"built at L = \[0, 1\], not at one L"):
        hirota_residual({**fam, 4: at_l1[4]}, ZERO_SEQ, 3.0, 4.0)


def test_hirota_se_example_monotone_decay():
    spec = EnsembleSpec("SE", 1)
    t = CouplingSeq.of(0.2)
    charges = [1, 2, 3, 4]
    r10 = hirota_residual(tau_charge_family(spec, charges, 10), t, 4.0, 5.0)
    r14 = hirota_residual(tau_charge_family(spec, charges, 14), t, 4.0, 5.0)
    assert r14.relative < r10.relative
    # exact factor recorded; see the decay experiments for the sharper shifts
    assert r10.relative / r14.relative > 1.5


def test_hirota_ginoe_family_decay():
    spec = EnsembleSpec("GinOE", 2)
    t = CouplingSeq.of(0.2)
    charges = [1, 2, 3, 4]
    r10 = hirota_residual(tau_charge_family(spec, charges, 10), t, 8.0, 10.0)
    r14 = hirota_residual(tau_charge_family(spec, charges, 14), t, 8.0, 10.0)
    assert r14.relative < r10.relative


def test_grafted_border_leaves_even_charges_alone():
    spec = EnsembleSpec("SE", 1)
    fam = tau_charge_family(spec, [1, 2, 3, 4], 8)
    direct = tau_series(spec, 8)
    # same values up to the (tiny) table-resolution difference of the two
    # independently sized moment tables; the graft itself never touches
    # even charges at all
    assert fam[2].lams == direct.lams == enumerate_partitions(8, 2)
    assert fam[2].terms == pytest.approx(direct.terms, rel=1e-11)
    # odd members are nonvacuous thanks to the graft
    assert abs(fam[1].evaluate(ZERO_SEQ)) > 0


def test_wave_polynomial_trivial_and_se():
    rep0 = wave_polynomial_check(EnsembleSpec("SE", 0), 6, (2.0, 3.0))
    assert rep0.fit_deviation_t == 0.0
    rep = wave_polynomial_check(EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2)), 12,
                                (2.0, 3.0, 5.0))
    assert rep.degree == 2
    assert rep.fit_deviation_t < 1e-4


def test_wave_polynomial_monotone_in_cutoff():
    # from cutoff 4 on the fit deviation is rounding noise, whose order across
    # cutoffs is not monotone; what holds is the rounding floor of the wave-poly verdict
    from pftau.hub import WAVE_FIT_FLOOR
    spec = EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.2))
    for w in (4, 6, 8, 10, 12):
        assert wave_polynomial_check(spec, w, (2.0, 3.0, 5.0)).fit_deviation_t <= WAVE_FIT_FLOOR, w


def test_wave_polynomial_rejects_vanishing_tau():
    spec = EnsembleSpec("OE", 1, 1)   # odd weight: tau(0) = 0
    with pytest.raises(ValueError, match="vanishes"):
        wave_polynomial_check(spec, 8, (2.0, 3.0))


def test_tau_series_insufficient_table_raises():
    from pftau.skewlin import MomentTableError
    spec = EnsembleSpec("SE", 1)
    small_pair = moment_pair(spec, 3)
    with pytest.raises(MomentTableError):
        series_terms(small_pair, spec.n_eff, spec.L, 8)


def test_schur_values_scatter_back_to_partition_order():
    t = CouplingSeq.of(0.4, -0.2, 0.1)
    lams = enumerate_partitions(6, 3)
    coeffs = np.linspace(1.0, 2.0, len(lams)) * (1 - 0.5j)
    h = hseq(6, t)
    want = [schur_from_h(np.reshape(lam.parts, (1, lam.length)), h)[0] for lam in lams]
    assert schur_values(6, 3, t) == pytest.approx(want, rel=1e-13)
    got = TauApprox(3, 0, 6, coeffs).term_values(t)
    assert got == pytest.approx([c * w for c, w in zip(coeffs, want)], rel=1e-13)


def test_schur_values_memo_is_read_only_and_dropped_by_clear_cache():
    moments.clear_cache()
    t = CouplingSeq.of(0.1, -0.05)
    vals = schur_values(8, 2, t)
    assert not vals.flags.writeable
    assert schur_values(8, 2, t) is vals
    assert [key[0] for key in moments._SECTOR_CACHE] == ["schur_values"]
    moments.clear_cache()
    assert not moments._SECTOR_CACHE
    assert schur_values(8, 2, t) is not vals


def _term_values_by_group(tau: TauApprox, t: CouplingSeq) -> np.ndarray:
    """Reference: coefficient * s_lambda(t), one Jacobi-Trudi stack and product per length."""
    h = hseq(tau.cutoff + tau.charge + 1, t)
    out = np.zeros(len(tau.terms), dtype=np.result_type(tau.terms, h))
    for pos, parts in partition_table(tau.cutoff, tau.charge).groups:
        out[pos] = tau.terms[pos] * schur_from_h(parts, h)
    return out


def test_term_values_do_not_depend_on_the_schur_memo():
    t = CouplingSeq.of(0.07, -0.03)
    series = [tau_series(EnsembleSpec(kind, 2, 1), 12) for kind in ("OE", "GinOE")]
    want = [_term_values_by_group(tau, t).tobytes() for tau in series]
    for order in ((0, 1), (1, 0)):
        moments.clear_cache()
        # the first call builds the memo, the other series reads it, then both again
        for k in order + order:
            assert series[k].term_values(t).tobytes() == want[k]


# ---------------------------------------------------------------------------
# the series memo: coefficients once per (spec at t = 0, cutoff) and pass

def test_tau_series_is_shared_across_t_and_refuses_writes():
    from pftau.hub import S_NZ, T_A, T_B

    moments.clear_cache()
    tau = tau_series(EnsembleSpec("GinOE", 2, 1, T_A), 10)
    assert tau_series(EnsembleSpec("GinOE", 2, 1, T_B), 10) is tau
    assert not tau.terms.flags.writeable
    with pytest.raises(ValueError):
        tau.terms[0] = 0.0
    # s, the cutoff and the kind stay in the key
    se = tau_series(EnsembleSpec("SE", 1, 0, T_A), 10)
    assert tau_series(EnsembleSpec("SE", 1, 0, T_B, S_NZ), 10) is not se
    assert tau_series(EnsembleSpec("SE", 1, 0, T_B), 12) is not se
    assert tau_series(EnsembleSpec("OE", 2, 1, T_A), 10) is not tau
    # a memo hit still checks its own t
    with pytest.raises(moments.ValidationError):
        tau_series(EnsembleSpec("SE", 1, 0, CouplingSeq.of(0.0, 0.9)), 10)
    moments.clear_cache()
    assert tau_series(EnsembleSpec("GinOE", 2, 1, T_A), 10) is not tau


def test_one_ratio_pass_builds_each_coefficient_stack_once(monkeypatch):
    from pftau import hub, tauseries

    monkeypatch.setattr(moments, "_DISK_CACHE", None)
    stacks = []
    abar = tauseries.abar
    monkeypatch.setattr(tauseries, "abar", lambda *args: stacks.append(args) or abar(*args))
    exps = hub.ratio_experiments(cutoff=20)

    def bits(verdicts):
        return [repr((v.name, v.passed, v.margin, v.details)) for v in verdicts]

    moments.clear_cache()
    warm = bits(hub.run_suite(exps))
    # 16 (kind, N, L) numerators share their stacks with the t = 0 denominators; the two
    # s != 0 numerators add one each
    assert len(stacks) == 18
    stacks.clear()
    assert bits(hub.run_suite(exps)) == warm
    assert not stacks
    # every verdict is the one of a run that starts each experiment from an empty memo
    cold = []
    for e in exps:
        moments.clear_cache()
        cold += bits(hub.run_suite([e]))
    assert cold == warm
    # one stack per experiment, two where s != 0 keeps the denominator apart
    assert len(stacks) == len(exps) + sum(e.spec.s != ZERO_SEQ for e in exps)
    moments.clear_cache()
