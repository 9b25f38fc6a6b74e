"""Acceptance gate: one test per criterion, each printing a verdict line (`pytest -v -s`).
Criteria 1 and 9 check identities directly; the rest judge one run of the shipped suite."""
import math
import time
from collections import namedtuple

import numpy as np
import pytest

from pftau import hub, moments
from pftau.fock import FockWindow, apply_phi, charged_vacuum, vev
from pftau.hub import COMPARISONS, resolve_params, run_experiment
from pftau.moments import EnsembleSpec as Spec
from pftau.skewlin import pfaffian, pfaffian_combinatorial
from pftau.symfun import CouplingSeq

# the comparison kinds whose shipped verdicts each criterion judges
JUDGES = {2: {"ginse-structure"}, 3: {"series-vs-oracle-ratio"}, 4: {"closed-form-anchor"},
          5: {"discrete-exact"}, 6: {"kernel-vs-oracle"}, 7: {"group-series-vs-mc"},
          8: {"hirota-decay", "wave-poly"}, 10: {"bimoment-vs-direct"}, 11: {"reality"}}
T_A, T_B, T02 = CouplingSeq.of(0.3), CouplingSeq.of(0.1, -0.05), CouplingSeq.of(0.2)
KINDS = ("OE", "SE", "GinSE", "GinOE")
Run = namedtuple("Run", "e v seconds")


@pytest.fixture(scope="module")
def gate(gate_experiments) -> list[Run]:
    """Each shipped experiment run once, in suite order from an empty moment cache."""
    runs = []
    moments.clear_cache()
    for e in gate_experiments.values():
        start = time.perf_counter()
        runs.append(Run(e, run_experiment(e), time.perf_counter() - start))
    return runs


def _judged(gate, criterion, pins: dict, **shared) -> list[Run]:
    """The runs `criterion` judges: {name: read fields and resolved params} must be `pins`."""
    runs = [r for r in gate if r.e.comparison in JUDGES[criterion]]
    assert {r.e.name: {key: getattr(r.e, "spec" if key == "ensemble" else key)
                       for key in COMPARISONS[r.e.comparison].reads}
            | resolve_params(r.e.comparison, r.e.params, r.e.spec) for r in runs} == {
        name: shared | pin for name, pin in pins.items()}
    return runs


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if passed else 'FAIL'}  {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_pfaffian_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_det = 0.0
    for n in range(2, 13, 2):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = m - m.T
        pf, det = pfaffian(m), np.linalg.det(m)
        worst_det = max(worst_det, abs(pf * pf - det) / abs(det))
    worst_comb = 0.0
    for n in (2, 4, 6, 8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = m - m.T
        a, b = pfaffian(m), pfaffian_combinatorial(m)
        worst_comb = max(worst_comb, abs(a - b) / abs(b))
    elapsed = time.perf_counter() - start
    _report("criterion-1 pfaffian", worst_det < 1e-9 and worst_comb < 1e-12 and elapsed < 1.0,
            f"Pf^2=det rel {worst_det:.2e}; vs combinatorial {worst_comb:.2e}; {elapsed:.2f}s")


def test_criterion_02_ginse_moment_structure(gate):
    [r] = _judged(gate, 2, {"ginse-moment-structure": {"ensemble": Spec("GinSE", 2)}},
                  tolerance=1e-6)
    assert hub.GINSE_STRUCTURE_SIZE == 8
    _report("criterion-2 GinSE moments", r.v.passed and r.seconds < 10.0,
            f"off-superdiagonal {r.v.details['off_superdiagonal_fraction']:.2e}, "
            f"ratio error {r.v.margin:.2e}; {r.seconds:.1f}s")


def test_criterion_03_series_vs_oracle_ratios(gate):
    runs = _judged(gate, 3, {
        f"ratio-{kind}-N{n}-L{L}-{label}": {"ensemble": Spec(kind, n, L, t), "tolerance": 1e-4}
        for kind in KINDS for n in (1, 2) for L in (0, 1) for label, t in (("tA", T_A), ("tB", T_B))
    } | {f"ratio-{kind}-N1-L0-sNZ": {"ensemble": Spec(kind, 1, 0, T_A, CouplingSeq.of(0.0, 0.4)),
                                     "tolerance": 1e-3} for kind in ("OE", "SE")}, cutoff=12)
    bad, elapsed = [r.e.name for r in runs if not r.v.passed], sum(r.seconds for r in runs)
    _report("criterion-3 series-vs-oracle", not bad and elapsed < 300.0,
            f"{len(runs)} ratio experiments, worst margin {max(r.v.margin for r in runs):.2e}; "
            f"{elapsed:.1f}s" + (f"; failing: {bad}" if bad else ""))


def test_criterion_04_closed_form_anchor(gate):
    [r] = _judged(gate, 4, {"anchor-SE-N1-exp": {"ensemble": Spec("SE", 1, 0, T_A)}},
                  tolerance=1e-6, cutoff=12)
    _report("criterion-4 anchor exp(t1^2)", r.v.passed, f"margin {r.v.margin:.2e}")


def test_criterion_05_discrete_exactness(gate):
    runs = _judged(gate, 5, {f"discrete-{kind}": {"ensemble": Spec(kind, 1)} for kind in KINDS},
                   tolerance=1e-10, seed=42, trials=50)
    assert hub.DISCRETE_T == CouplingSeq.of(0.07, -0.03)
    worst, elapsed = max(r.v.margin for r in runs), sum(r.seconds for r in runs)
    _report("criterion-5 discrete Wick/Pfaffian", all(r.v.passed for r in runs) and elapsed < 30.0,
            f"4 kinds x 50 random configs, worst rel {worst:.2e}; {elapsed:.1f}s")


def test_criterion_06_kernel_identity(gate):
    runs = _judged(gate, 6, {f"kernel-{kind}-N2": {"ensemble": Spec(kind, n, 0, T02)}
                             for kind, n in (("SE", 1), ("OE", 2))},
                   tolerance=1e-4, p=(0.1, -0.1), p_ref=(0.08, -0.06))
    _report("criterion-6 kernel identity", all(r.v.passed for r in runs),
            "; ".join(f"{r.e.spec.kind} margin {r.v.margin:.2e}" for r in runs)
            + "; real-sector kernel: |x-y|")


def test_criterion_07_group_integrals(gate):
    runs = _judged(gate, 7, {
        "group-O3": {"seed": 42, "group": "orthogonal", "size": 3,
                     "predicates": (((2,), 1.0), ((1,), 0.0), ((1, 1), 0.0))},
        "group-Sp2": {"seed": 49, "group": "symplectic", "size": 2,
                      "predicates": (((1, 1), 1.0), ((2,), 0.0), ((1,), 0.0))}},
        cutoff=8, samples=100000, t=(0.2,))
    predicates = max(p["sigmas"] for r in runs for p in r.v.details["predicate"])
    series = max(r.v.details["series_vs_mc"]["sigmas"] for r in runs)
    _report("criterion-7 group integrals",
            all(r.v.passed for r in runs) and predicates <= 4.0 and series <= 3.0,
            f"predicates within 4 sigma ({predicates:.2f}), series within 3 sigma ({series:.2f})")


def test_criterion_08_hirota_decay(gate):
    runs = _judged(gate, 8, {
        "hirota-SE": {"ensemble": Spec("SE", 1, 0, T02), "tolerance": 1e-5},
        "hirota-GinOE": {"ensemble": Spec("GinOE", 2, 0, CouplingSeq.of(0.1)), "tolerance": 1e-5},
        "wave-SE-N1": {"ensemble": Spec("SE", 1, 0, T02), "tolerance": 1e-4, "cutoff": 12}})
    # the settings these verdicts run at are constants of the comparisons
    assert (hub.HIROTA_ALPHA, hub.HIROTA_BETA, hub.HIROTA_CUTOFFS, hub.HIROTA_MIN_FACTOR) == (
        8.0, 10.0, (8, 10, 12, 14), 2.0)
    assert hub.WAVE_POINTS == (2.0, 3.0, 5.0)
    _report("criterion-8 hierarchy", all(r.v.passed for r in runs),
            "Hirota residual monotone over W=8,10,12,14 with per-step factor >= 2, and the "
            "wave polynomial fits: " + "; ".join(f"{r.e.name} {r.v.margin:.2g}" for r in runs))


def test_criterion_09_fock_identities():
    rng = np.random.default_rng(77)
    w = FockWindow(-4, 9)
    worst = 0.0
    for n in (2, 3):
        for L in (0, 1, 2):
            zs = 0.8 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            got = vev(n + L, [("psi_z", z) for z in zs], L, w)
            vdm = np.prod([zs[i] - zs[j] for i in range(n) for j in range(i + 1, n)])
            want = np.prod(zs ** L) * vdm
            worst = max(worst, abs(got - want) / abs(want))
    wick_worst = 0.0
    for n in (4, 6):
        words = [("linear", {i: complex(rng.normal(), rng.normal()) for i in range(-3, 6)},
                  {i: complex(rng.normal(), rng.normal()) for i in range(-3, 6)}) for _ in range(n)]
        direct = vev(1, words, 1, w)
        mat = np.array([[vev(1, [a, b], 1, w) if i < j else 0.0 for j, b in enumerate(words)]
                        for i, a in enumerate(words)], dtype=complex)
        wick_worst = max(wick_worst, abs(direct - pfaffian(mat - mat.T)) / abs(direct))
    vac = charged_vacuum(0, w)
    twice = apply_phi(apply_phi(vac))
    phi_exact = all(abs(twice.amp[s] - 0.5 * c) <= 1e-15 * abs(c) for s, c in vac.amp.items())
    phi_vals = all(vev(L, [("phi",)], L, w) == pytest.approx((-1) ** L / math.sqrt(2))
                   for L in range(-3, 5))
    _report("criterion-9 fock identities",
            worst < 1e-12 and wick_worst < 1e-11 and phi_exact and phi_vals,
            f"Vandermonde {worst:.2e}; Wick {wick_worst:.2e}; phi rules exact")


def test_criterion_10_ginue_bimoment(gate):
    [r] = _judged(gate, 10, {"bimoment-GinUE-N2": {"ensemble": Spec("GinUE", 2, 0, T02,
                                                                    t_bar=T02)}}, tolerance=1e-5)
    _report("criterion-10 GinUE bimoments", r.v.passed, f"ratio margin {r.v.margin:.2e}")


def test_criterion_11_reality(gate):
    runs = _judged(gate, 11, {f"reality-{kind}-N{n}": {"ensemble": Spec(kind, n, 0, T_B)}
                              for kind, n in (("OE", 2), ("SE", 1), ("GinSE", 1), ("GinOE", 2))},
                   tolerance=1e-8, cutoff=10)
    ratios = [r.v.details["imag_ratio"] for r in gate if r.e.comparison in JUDGES[3]]
    worst = max([r.v.margin for r in runs] + ratios)   # every tau value of the run
    _report("criterion-11 reality", all(r.v.passed for r in runs) and worst <= 1e-8,
            f"max |Im|/|value| over all tau evaluations {worst:.2e}")


def test_every_shipped_verdict_is_judged_and_passes(gate):
    judged = set().union(*JUDGES.values())
    assert len(gate) == 52 and all(r.e.comparison in judged and r.v.passed for r in gate)
