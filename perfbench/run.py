#!/usr/bin/env python3
"""pftau benchmark: one workload, measured passes, checked verdicts.

    python3 perfbench/run.py --workload gate --seed 42 --seconds 20 --trace 0

Runs from the root of a pftau checkout and imports the package from its
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment and the per-pass figures.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (see README.md).
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MIN_PASSES = 2
SETUP_CALIBRATE_S = 0.3        # reference loop before the first set-up and after each
PASS_CALIBRATE_S = 0.02        # reference loop before the first experiment and after each
CHILD_TIMEOUT_S = 120


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: a few small experiments, for the harness's own test")
    ap.add_argument("--setup-child", metavar="DIR", default=None,
                    help=argparse.SUPPRESS)   # internal: one timed set-up, in DIR
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def _import_package():
    """Import pftau from this checkout's src/, never from anywhere else."""
    if not (SRC / "pftau" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pftau sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import pftau
    if Path(pftau.__file__).resolve().parent != SRC / "pftau":
        raise SystemExit(f"perfbench: pftau imported from {pftau.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "commit": _commit()}


def _blas_threads():
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def _setup_child(wl, seed: int, workdir: Path) -> None:
    """Workload set-up after the imports: the cached workload fills its cache."""
    if wl.cached:
        from perfbench.workloads import run_pass
        fill = run_pass(wl, seed, workdir / "out", cache=workdir / "cache", cold=True)
        (workdir / "fill.json").write_text(json.dumps(
            {"attempted": fill.attempted, "failed": fill.failed, "notes": fill.notes,
             "output": fill.output.hex()}))


def _timed_setups(args, run_dir: Path, refs: list) -> tuple[list, Path]:
    """Fresh interpreter, imports and set-up, SETUP_REPEATS times in a row."""
    from perfbench import calibrate
    times = []
    for i in range(SETUP_REPEATS):
        workdir = run_dir / f"setup-{i}"
        workdir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
               "--setup-child", str(workdir)]
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
        refs.append(calibrate.sample(SETUP_CALIBRATE_S))
    return times, workdir


def main(argv=None) -> int:
    args = _args(argv)
    _import_package()
    from perfbench.workloads import workloads
    table = workloads(ROOT, args.size)
    if args.workload not in table:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(table)}")
    wl = table[args.workload]
    if args.setup_child:
        _setup_child(wl, args.seed, Path(args.setup_child))
        return 0

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        return _measure(wl, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()              # left in place while another run uses it


def _measure(wl, args, run_dir: Path) -> int:
    from perfbench import calibrate
    from perfbench.workloads import run_pass
    tally = {"attempted": 0, "failed": 0}
    notes = []
    reference = None

    def count(res) -> None:
        nonlocal reference
        tally["attempted"] += res.attempted
        tally["failed"] += res.failed
        notes.extend(res.notes)
        if reference is None:
            reference = res.output
        else:
            tally["attempted"] += 1
            if res.output != reference:
                tally["failed"] += 1
                notes.append("verdict output differs between passes")

    setup_times, traced_fill, cache = [], None, None
    refs = [] if args.trace else [calibrate.sample(SETUP_CALIBRATE_S)]   # around set-ups
    if args.trace:
        # set-up in this process, so that the cold fill is traced too
        if wl.cached:
            cache = run_dir / "setup" / "cache"
            traced_fill = run_pass(wl, args.seed, run_dir / "setup" / "out",
                                   cache=cache, cold=True, traced=True)
            count(traced_fill)
    else:
        setup_times, fill_dir = _timed_setups(args, run_dir, refs)
        if wl.cached:
            cache = fill_dir / "cache"
            fill = json.loads((fill_dir / "fill.json").read_text())
            count(SimpleNamespace(attempted=fill["attempted"], failed=fill["failed"],
                                  notes=fill["notes"], output=bytes.fromhex(fill["output"])))

    plain, traced = [], []
    start = perf_counter()
    while True:
        for mode in ((False, True) if args.trace else (False,)):
            res = run_pass(wl, args.seed, run_dir / f"pass-{len(plain) + len(traced)}",
                           cache=cache, traced=mode,
                           calibrate_s=0.0 if args.trace else PASS_CALIBRATE_S)
            (traced if mode else plain).append(res)
            count(res)
        enough = len(plain) >= (1 if args.trace else MIN_PASSES)
        if enough and perf_counter() - start >= args.seconds:
            break

    if args.trace:
        metrics = _layer_metrics(traced, plain, traced_fill)
        tally["attempted"] += 1
        if any(_counts(r.layers) != _counts(traced[0].layers) for r in traced):
            tally["failed"] += 1
            notes.append("deterministic layer counts differ between traced passes")
    else:
        metrics = {
            "wall_s": (statistics.median(r.ref_wall_s for r in plain), "s"),
            "cpu_s": (statistics.median(r.ref_cpu_s for r in plain), "s"),
            "setup_s": (statistics.median(calibrate.scale(setup_times, refs)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - tally["failed"] / tally["attempted"], "ratio"),
            "margin_ratio_max": (max(r.margin_ratio_max for r in plain), "ratio"),
        }
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "size": args.size, "environment": environment(),
              "passes": len(plain) + len(traced),
              "pass_wall_s": [r.wall_s for r in plain + traced],
              "pass_cpu_s": [r.cpu_s for r in plain + traced],
              "pass_ref_wall_s": [r.ref_wall_s for r in plain],
              "setup_s": setup_times, "setup_reference_chunk_s": refs,
              "verdicts_sha256": hashlib.sha256(reference).hexdigest(),
              "identity_checks": (plain + traced)[0].checks,
              "notes": sorted(set(notes))}
    print(json.dumps(record))
    print(json.dumps({"correct": tally["failed"] == 0, **tally,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def _counts(layers: dict) -> dict:
    return {k: v for k, (v, unit) in layers.items() if unit in ("count", "level")}


def _layer_metrics(traced, plain, traced_fill) -> dict:
    """Exact counts of the first traced pass and median times of all of them."""
    out = {}
    for name, (value, unit) in traced[0].layers.items():
        if unit not in ("count", "level"):
            value = statistics.median(r.layers[name][0] for r in traced)
        out[name] = (value, unit)
    # tables are only stored while the set-up fills the cache
    if traced_fill is not None:
        for name in ("cli.cache_stores", "cli.cache_store_s"):
            out[name] = traced_fill.layers[name]
    out["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                               - statistics.median(r.wall_s for r in plain), "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
