"""The benchmark workloads and one measured pass of each.

A pass is what one `pftau suite` invocation does after its imports: parse
the config, run every experiment, emit the verdict files.  Every pass starts
with an empty in-memory moment cache, as every real invocation does.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

# layer functions are looked up on their modules, so a Tracer sees these calls
from pftau import cli, fock, hub, moments, skewlin

from perfbench.calibrate import ReferenceClock
from perfbench.spans import OracleAudit, Tracer

GATE_CONFIG = Path("scripts") / "configs" / "suite_acceptance.json"
RATIO_CUTOFF = 20

# Margins of these comparisons are not errors: a decay factor and a
# Monte Carlo z-score fraction.
NOT_ERROR_MARGINS = ("hirota-decay", "group-series-vs-mc")


# --size smoke: a few small experiments, for the harness's own test
SMOKE_RATIOS = ("ratio-OE-N1-L0-tA", "ratio-SE-N1-L0-tA")
SMOKE_GATE = [
    {"name": "discrete-OE", "comparison": "discrete-exact",
     "ensemble": {"kind": "OE", "n": 1}, "tolerance": 1e-10, "params": {"trials": 6}},
    {"name": "group-O3", "comparison": "group-series-vs-mc", "cutoff": 8, "samples": 4000,
     "params": {"group": "orthogonal", "size": 3, "t": [0.2],
                "predicates": [[[2], 1.0], [[1], 0.0]]}},
    {"name": "ratio-OE-N1-L0-tA", "comparison": "series-vs-oracle-ratio",
     "ensemble": {"kind": "OE", "n": 1, "L": 0, "t": [0.3]}, "tolerance": 1e-4, "cutoff": 10},
]


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str             # what `pftau suite --config` would read
    cached: bool = False
    gate_checks: bool = False


def experiment_node(e: hub.Experiment) -> dict:
    """The inline-suite config entry that parses back to `e`."""
    spec = e.spec
    ensemble = {"kind": spec.kind, "n": spec.n, "L": spec.L,
                "t": list(spec.t.values), "s": list(spec.s.values)}
    return {"name": e.name, "comparison": e.comparison, "ensemble": ensemble,
            "tolerance": e.tolerance, "cutoff": e.cutoff}


def ratio_suite(cutoff: int, names=None) -> str:
    exps = hub.ratio_experiments(cutoff=cutoff)
    nodes = [experiment_node(e) for e in exps if names is None or e.name in names]
    return json.dumps({"command": "suite", "format": "json", "experiments": nodes})


def workloads(root: Path, size: str = "full") -> dict:
    """The three workloads (see README.md), from the checkout at `root`."""
    gate = (root / GATE_CONFIG).read_text()
    if size == "smoke":
        gate = json.dumps(dict(json.loads(gate), experiments=SMOKE_GATE))
        ratio = ratio_suite(8, SMOKE_RATIOS)
    else:
        ratio = ratio_suite(RATIO_CUTOFF)
    return {w.name: w for w in (Workload("gate", gate, gate_checks=True),
                                Workload("tau-series", ratio),
                                Workload("tau-series-cached", ratio, cached=True))}


# ---------------------------------------------------------------------------
# criterion-1 and criterion-9 of the acceptance gate, on seeded inputs

def pfaffian_check(seed: int) -> tuple[bool, str]:
    start = perf_counter()
    rng = np.random.default_rng([seed, 1])
    worst_det = 0.0
    for n in range(2, 13, 2):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = m - m.T
        det = np.linalg.det(m)
        worst_det = max(worst_det, abs(skewlin.pfaffian(m) ** 2 - det) / abs(det))
    worst_comb = 0.0
    for n in (2, 4, 6, 8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = m - m.T
        a, b = skewlin.pfaffian(m), skewlin.pfaffian_combinatorial(m)
        worst_comb = max(worst_comb, abs(a - b) / abs(b))
    elapsed = perf_counter() - start
    return (worst_det < 1e-9 and worst_comb < 1e-12 and elapsed < 1.0,
            f"Pf^2=det rel {worst_det:.2e}; vs combinatorial {worst_comb:.2e}")


def fock_check(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng([seed, 9])
    w = fock.FockWindow(-4, 9)
    worst = 0.0
    for n in (2, 3):
        for L in (0, 1, 2):
            zs = 0.8 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            got = fock.vev(n + L, [("psi_z", z) for z in zs], L, w)
            vdm = np.prod([zs[i] - zs[j] for i in range(n) for j in range(i + 1, n)])
            want = np.prod(zs ** L) * vdm
            worst = max(worst, abs(got - want) / abs(want))
    wick_worst = 0.0
    for n in (4, 6):
        words = [("linear",
                  {i: complex(rng.normal(), rng.normal()) for i in range(-3, 6)},
                  {i: complex(rng.normal(), rng.normal()) for i in range(-3, 6)})
                 for _ in range(n)]
        direct = fock.vev(1, words, 1, w)
        mat = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                mat[i, j] = fock.vev(1, [words[i], words[j]], 1, w)
                mat[j, i] = -mat[i, j]
        wick_worst = max(wick_worst, abs(direct - skewlin.pfaffian(mat)) / abs(direct))
    vac = fock.charged_vacuum(0, w)
    twice = fock.apply_phi(fock.apply_phi(vac))
    phi_exact = all(abs(twice.amp[s] - 0.5 * c) <= 1e-15 * abs(c) for s, c in vac.amp.items())
    phi_vals = all(math.isclose(fock.vev(L, [("phi",)], L, w).real, (-1) ** L / math.sqrt(2),
                                rel_tol=1e-6) for L in range(-3, 5))
    return (worst < 1e-12 and wick_worst < 1e-11 and phi_exact and phi_vals,
            f"Vandermonde {worst:.2e}; Wick {wick_worst:.2e}")


# ---------------------------------------------------------------------------
# one pass

@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    output: bytes                  # every emitted file and the stdout, in order
    margin_ratio_max: float
    notes: list = field(default_factory=list)
    checks: list = field(default_factory=list)   # identity-check details, in order
    layers: dict | None = None
    ref_wall_s: float | None = None   # wall_s and cpu_s in reference seconds
    ref_cpu_s: float | None = None


def output_bytes(outdir: Path, stdout: str) -> bytes:
    blob = b""
    for path in sorted(outdir.iterdir()):
        blob += path.name.encode() + b"\0" + path.read_bytes() + b"\0"
    return blob + stdout.encode()


def margin_ratio_max(verdicts) -> float:
    """Largest finite margin/tolerance; an infinite margin is an error, failed anyway."""
    return max((v["margin"] / v["tolerance"] for v in verdicts
                if v["comparison"] not in NOT_ERROR_MARGINS and math.isfinite(v["margin"])),
               default=0.0)


def run_pass(wl: Workload, seed: int, outdir: Path,
             cache: Path | None = None, cold: bool = False,
             traced: bool = False, calibrate_s: float = 0.0) -> PassResult:
    """Parse, run and emit one suite; check every verdict and identity.

    With `cache`, tables come from that disk cache; unless the pass is the
    `cold` one that fills it, building any table counts as a failure.  With
    `calibrate_s`, a ReferenceClock samples the reference loop for that long
    after each experiment, and the result carries reference seconds too.
    """
    outdir.mkdir(parents=True)
    moments.clear_cache()
    gc.collect()
    builds = moments.TABLE_BUILDS
    stdout = io.StringIO()
    notes = []
    tracer = Tracer() if traced else contextlib.nullcontext()
    clock = ReferenceClock(calibrate_s) if calibrate_s else None
    with OracleAudit() as audit, tracer, clock or contextlib.nullcontext(), \
            contextlib.redirect_stdout(stdout):
        start, cpu = perf_counter(), process_time()
        try:
            cfg = cli.parse_config(wl.config_text)
            if cache is not None:
                cfg.cache = str(cache)
            rc = cli.run_config(cfg, outdir)
            checks = [pfaffian_check(seed), fock_check(seed)] if wl.gate_checks else []
        except Exception as exc:  # a crash is a failed operation, not a lost run
            rc, checks = None, []
            notes.append(f"exception: {type(exc).__name__}: {exc}")
        wall, cpu = perf_counter() - start, process_time() - cpu
    built = moments.TABLE_BUILDS - builds
    ref_wall = ref_cpu = None
    if clock is not None:
        wall, cpu = wall - clock.spent_wall, cpu - clock.spent_cpu
        ref_wall, ref_cpu = clock.reference_s(wall, cpu)
    if rc is None:
        return PassResult(wall, cpu, 1, 1, b"", 0.0, notes,
                          ref_wall_s=ref_wall, ref_cpu_s=ref_cpu)
    verdicts = json.loads((outdir / "verdicts.json").read_text())["verdicts"]
    failed_verdicts = [v["name"] for v in verdicts if not v["pass"]]
    failed_checks = [detail for ok, detail in checks if not ok]
    notes += [f"verdict failed: {name}" for name in failed_verdicts]
    notes += [f"identity check failed: {detail}" for detail in failed_checks]
    rc_wrong = rc != (1 if failed_verdicts else 0)
    if rc_wrong:
        notes.append(f"exit code {rc} disagrees with the verdicts")
    if audit.unconverged:
        notes.append(f"{audit.unconverged} oracle values above their rel_tol")
    attempted = len(verdicts) + len(checks) + audit.calls + 1
    failed = len(failed_verdicts) + len(failed_checks) + audit.unconverged + rc_wrong
    if cache is not None and not cold:
        attempted += 1
        if built:
            failed += 1
            notes.append(f"{built} moment tables built despite a filled cache")
    result = PassResult(wall, cpu, attempted, failed, output_bytes(outdir, stdout.getvalue()),
                        margin_ratio_max(verdicts), notes, [detail for _, detail in checks],
                        ref_wall_s=ref_wall, ref_cpu_s=ref_cpu)
    if traced:
        result.layers = tracer.layer_metrics(built, audit)
    return result
