"""Command-line interface: JSON configs in, CSV/JSON results out.

Exit codes: 0 every verdict passed, 1 some verdict failed, 2 bad
configuration.  Outputs embed the parsed config (sorted-key JSON) so every
file is reproducible from itself; numbers print with 17 significant digits
so doubles round-trip.
"""
from __future__ import annotations

import argparse
import csv
import fcntl
import hashlib
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blas, hub, moments
from . import tauseries as ts
from .hub import ConfigError, read_number
from .moments import EnsembleSpec
from .symfun import CouplingSeq

COMMANDS = ("partition-function", "compare-oracle", "hirota-check", "group-integral",
            "kernel-check", "moments-dump", "discrete-check", "suite")

def fmt17(x) -> str:
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    command: str
    cutoff: int         # these four default to those of `hub.Experiment`
    tolerance: float
    samples: int
    seed: int
    ensemble: EnsembleSpec | None = None
    output: str = "out"
    cache: str | None = None
    fmt: str = "json"
    size: int | None = None          # partition-function, moments-dump: rows of the table
    experiments: list = field(default_factory=list)   # every verdict command runs these
    raw: dict = field(default_factory=dict)

    def echo(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def _no_duplicates(pairs):
    out = {}
    for k, v in pairs:
        if k in out:
            raise ConfigError("duplicate-field", f"duplicate field {k!r}")
        out[k] = v
    return out


# the keys of every command, and the fields that each without a comparison reads: a suite's
# are the defaults of its entries; no entry inherits an ensemble, so a suite takes none
_COMMON_KEYS = {"command", "output", "cache", "format"}
_COMMAND_READS = {"partition-function": {"ensemble", "cutoff"},
                  "moments-dump": {"ensemble", "cutoff", "size"},
                  "suite": {"experiments", "tolerance", "cutoff", "samples", "seed"}}


def _coupling(value, where: str) -> CouplingSeq:
    return CouplingSeq(() if value is None else hub.array_of(read_number)(value, where))


def parse_ensemble(node) -> EnsembleSpec:
    """The spec of an ensemble: its kind, `n` and any field its family reads besides."""
    if not isinstance(node, dict):
        raise ConfigError("bad-ensemble", "ensemble must be an object")
    kind = node.get("kind")
    if kind not in moments.KINDS:
        raise ConfigError("unknown-ensemble-kind", f"unknown ensemble kind {kind!r}")
    unknown = set(node) - {"kind", *moments.FAMILY_FIELDS[moments.KINDS[kind][0]]}
    if unknown:
        raise ConfigError("unknown-field", f"unknown {kind} ensemble fields {sorted(unknown)}")
    n = read_number(node.get("n"), "n", int, lambda v: v >= 0)
    fields = {k: _coupling(v, k) if k in ("t", "s", "t_bar") else _number(node, k, None)
              for k, v in node.items() if k not in ("kind", "n")}
    try:
        return EnsembleSpec(kind, n, **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad-ensemble", str(exc)) from exc


# the checked numbers: type and admissible range, where there is one
_NUMBERS = {"cutoff": (int, lambda v: v >= 0), "samples": (int, lambda v: v >= 2),
            "seed": (int, lambda v: v >= 0), "tolerance": (float, lambda v: v > 0),
            "size": (int, lambda v: v >= 1), "L": (int,), "L2": (int,), "alpha": (float,),
            "beta": (float,)}
# the comparison that each single-experiment command runs
_COMPARISONS = {"compare-oracle": "series-vs-oracle-ratio", "hirota-check": "hirota-decay",
                "group-integral": "group-series-vs-mc", "kernel-check": "kernel-vs-oracle",
                "discrete-check": "discrete-exact"}


def _number(node: dict, key: str, default):
    """`node[key]` type- and range-checked, or `default` where it is unset."""
    return read_number(node[key], key, *_NUMBERS[key]) if key in node else default


def parse_config(text: str) -> RunConfig:
    """Strict parse of the whole job, its experiments included: unknown keys, duplicate
    keys and malformed numbers all fail here, so a run raises no ConfigError."""
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError("bad-json", f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("bad-json", "top level must be an object")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError("unknown-command", f"command must be one of {COMMANDS}, got {command!r}")
    if command in _COMPARISONS:
        # a single-experiment command's params are top-level keys
        comparison = hub.COMPARISONS[_COMPARISONS[command]]
        reads = comparison.reads | set(comparison.params)
    else:
        reads = _COMMAND_READS[command]
    unknown = set(raw) - _COMMON_KEYS - reads
    if unknown:
        raise ConfigError("unknown-field", f"unknown fields {sorted(unknown)} for {command}")
    cfg = RunConfig(command, **{k: _number(raw, k, getattr(hub.Experiment, k))
                                for k in ("cutoff", "tolerance", "samples", "seed")},
                    output=raw.get("output", "out"), cache=raw.get("cache"),
                    fmt=raw.get("format", "csv" if command == "moments-dump" else "json"),
                    raw=raw)
    if "ensemble" in raw:
        cfg.ensemble = parse_ensemble(raw["ensemble"])
    elif command in ("partition-function", "moments-dump"):
        raise ConfigError("missing-ensemble", f"command {command} needs an ensemble")
    if command in ("partition-function", "moments-dump"):
        # these two have no verdict to carry a rejection, and no table for GinUE
        if cfg.ensemble.family == "unitary":
            raise ConfigError("bad-ensemble", f"{command} serves the Pfaffian kinds, not GinUE")
        check = cfg.ensemble.validate()
        if not check.ok:
            raise ConfigError("bad-ensemble", f"ensemble rejected: {check.reason}")
    for key in ("output", "cache"):
        if not isinstance(raw.get(key, ""), str):
            raise ConfigError("bad-path", f"{key} must be a directory name, got {raw[key]!r}")
    if cfg.fmt not in ("json", "csv", "both"):
        raise ConfigError("bad-format", f"format must be json, csv or both, got {cfg.fmt!r}")
    if command == "moments-dump" and cfg.fmt != "csv":
        raise ConfigError("bad-format", f"moments-dump writes csv only, got {cfg.fmt!r}")
    if command in _COMPARISONS:
        # the one inline suite entry that a single-experiment command stands for
        node = {k: raw[k] for k in comparison.reads if k in raw}
        node.update(name=command, comparison=_COMPARISONS[command],
                    params={k: raw[k] for k in comparison.params if k in raw})
        cfg.experiments = [_experiment_from_node(node, cfg, 0)]
    elif command in ("partition-function", "moments-dump"):
        # the rows of the one moment table the command reads, refused here where the tables
        # cannot hold them
        spec = cfg.ensemble
        cfg.size = _number(raw, "size", ts.required_table_size(spec.n_eff, spec.L, cfg.cutoff))
        if cfg.size > moments.MAX_TABLE_SIZE:
            raise ConfigError("bad-number", f"a moment table of {cfg.size} rows is past the "
                              f"{moments.MAX_TABLE_SIZE} the tables hold")
    elif command == "suite":
        requested = raw.get("experiments")
        if not isinstance(requested, list):
            raise ConfigError("bad-suite", "experiments must be a list of experiments, as in "
                              "scripts/configs/suite_acceptance.json")
        cfg.experiments = [_experiment_from_node(node, cfg, i) for i, node in enumerate(requested)]
    return cfg


def _experiment_from_node(node, cfg: RunConfig, index: int) -> hub.Experiment:
    """One experiment from an inline suite entry, which sets fields its comparison reads (others
    come from `cfg`) and params, checked against `hub.COMPARISONS`."""
    if not isinstance(node, dict):
        raise ConfigError("bad-suite", f"experiment {index} must be an object")
    try:
        kind = node.get("comparison")
        if not isinstance(kind, str):
            raise ConfigError("bad-suite", "needs a comparison kind")
        if kind not in hub.COMPARISONS:
            raise ConfigError("unknown-comparison", f"unknown comparison kind {kind!r}")
        unknown = set(node) - {"name", "comparison", "params"} - hub.COMPARISONS[kind].reads
        if unknown:
            raise ConfigError("unknown-field", f"{kind} takes no {sorted(unknown)}")
        params = node.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("bad-suite", "params must be an object")
        spec = parse_ensemble(node["ensemble"]) if "ensemble" in node else None
        hub.resolve_params(kind, params, spec)

        def tuplify(v):
            return tuple(tuplify(x) for x in v) if isinstance(v, list) else v

        return hub.Experiment(
            name=node.get("name", f"experiment-{index}"),
            comparison=kind,
            spec=spec,
            tolerance=_number(node, "tolerance", cfg.tolerance),
            cutoff=_number(node, "cutoff", cfg.cutoff),
            samples=_number(node, "samples", cfg.samples),
            seed=_number(node, "seed", cfg.seed),
            params=tuple((k, tuplify(v)) for k, v in params.items()))
    except ConfigError as exc:
        where = f"experiment {index}" + (f" {node['name']!r}" if "name" in node else "")
        raise ConfigError(exc.code, f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# persistent moment cache

class MomentCache:
    """Content-addressed table store with checksums and advisory locking."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _paths(self, key) -> tuple[Path, Path]:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
        return self.root / f"{digest}.npz", self.root / f"{digest}.sha256"

    def load(self, key):
        path, sumpath = self._paths(key)
        if not path.exists() or not sumpath.exists():
            return None
        blob = path.read_bytes()
        if hashlib.sha256(blob).hexdigest() != sumpath.read_text().strip():
            warnings.warn(f"corrupt cache entry {path.name}; recomputing")
            return None
        with np.load(io.BytesIO(blob), allow_pickle=False) as payload:
            stored_key = str(payload["key"])
            if stored_key != repr(key):
                return None
            return payload["table"]

    def store(self, key, table) -> None:
        path, sumpath = self._paths(key)
        buf = io.BytesIO()
        np.savez(buf, key=np.array(repr(key)), table=np.asarray(table))
        blob = buf.getvalue()
        checksum = (hashlib.sha256(blob).hexdigest() + "\n").encode()
        lock = self.root / ".lock"
        with open(lock, "w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                # readers never see a half-written file: each lands whole by rename
                for target, data in ((path, blob), (sumpath, checksum)):
                    tmp = target.with_name(target.name + ".tmp")
                    tmp.write_bytes(data)
                    os.replace(tmp, target)
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)


# ---------------------------------------------------------------------------
# emission

def _jsonable(o):
    """`o` as plain JSON values; a non-finite float becomes "inf", "-inf" or "nan"."""
    if isinstance(o, dict):
        return {k: _jsonable(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_jsonable(v) for v in o]
    if o is None or isinstance(o, (bool, int, str)):
        return o
    if isinstance(o, (float, np.floating, np.integer)):
        x = float(o)
        return x if math.isfinite(x) else str(x)
    if isinstance(o, (complex, np.complexfloating)):
        return {"re": _jsonable(o.real), "im": _jsonable(o.imag)}
    if isinstance(o, np.ndarray):
        return _jsonable(o.tolist())
    if isinstance(o, CouplingSeq):
        return _jsonable(o.values)
    return str(o)


def _write_json(path: Path, document: dict) -> None:
    # allow_nan=False: a non-finite float that escaped _jsonable raises here
    text = json.dumps(_jsonable(document), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list], config_echo: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header + ["config"])
        for i, row in enumerate(rows):
            writer.writerow(list(row) + ([config_echo] if i == 0 else [""]))


def _emit(cfg: RunConfig, outdir: Path, stem: str, header: list[str], rows: list[list],
          document) -> list[Path]:
    """`stem`.csv of `rows` and/or `stem`.json of `document()`, as `cfg.fmt` asks."""
    paths = []
    if cfg.fmt in ("csv", "both"):
        paths.append(outdir / f"{stem}.csv")
        _write_csv(paths[-1], header, rows, cfg.echo())
    if cfg.fmt in ("json", "both"):
        paths.append(outdir / f"{stem}.json")
        _write_json(paths[-1], dict(document(), config=cfg.raw))
    return paths


def emit_tau_table(tau: ts.TauApprox, cfg: RunConfig, outdir: Path) -> list[Path]:
    rows = [["+".join(map(str, lam.parts)) or "0", fmt17(coeff.real), fmt17(coeff.imag)]
            for lam, coeff in zip(tau.lams, tau.terms.tolist())]

    def document():
        value = tau.evaluate(cfg.ensemble.t)
        return {"charge": tau.charge, "cutoff": tau.cutoff,
                "value_at_t": {"re": fmt17(value.real), "im": fmt17(value.imag)},
                "terms": [{"partition": r[0], "re": r[1], "im": r[2]} for r in rows]}

    return _emit(cfg, outdir, "tau_table", ["partition", "coefficient_re", "coefficient_im"],
                 rows, document)


def emit_verdicts(verdicts, cfg: RunConfig, outdir: Path) -> list[Path]:
    rows = [[v.name, v.comparison, str(v.passed).lower(), fmt17(v.margin),
             fmt17(v.tolerance)] for v in verdicts]
    return _emit(cfg, outdir, "verdicts", ["name", "comparison", "pass", "margin", "tolerance"],
                 rows, lambda: {"verdicts": [dict(v.row(), details=v.details) for v in verdicts]})


# ---------------------------------------------------------------------------
# command dispatch

def run_config(cfg: RunConfig, outdir: Path) -> int:
    with blas.one_thread():
        outdir.mkdir(parents=True, exist_ok=True)
        if cfg.cache:
            moments.set_disk_cache(MomentCache(cfg.cache))
        try:
            if cfg.command == "partition-function":
                # refuse a non-finite coefficient or value (a finite sum of |terms| keeps the
                # value's fsum in range), not an overflow in the elimination's intermediates,
                # which may leave every coefficient finite
                with np.errstate(over="ignore", invalid="ignore"):
                    tau = ts.tau_series(cfg.ensemble, cfg.cutoff)
                    total = np.abs(tau.term_values(cfg.ensemble.t)).sum()
                if not (np.isfinite(tau.terms).all() and np.isfinite(total)):
                    print(f"config error [float64-overflow]: the {cfg.ensemble.kind} series at "
                          f"n = {cfg.ensemble.n}, cutoff {cfg.cutoff} overflows float64 (a "
                          "coefficient, or the sum of |terms| at t, is not finite)",
                          file=sys.stderr)
                    return 2
                emit_tau_table(tau, cfg, outdir)
                return 0
            if cfg.command == "moments-dump":
                size = cfg.size
                pair = moments.moment_pair(cfg.ensemble, size)
                rows = [[str(i + pair.index_base), str(j + pair.index_base),
                         fmt17(pair.a_matrix[i, j].real), fmt17(pair.a_matrix[i, j].imag)]
                        for i in range(size) for j in range(size)]
                _write_csv(outdir / "moments.csv", ["n", "m", "a_re", "a_im"], rows, cfg.echo())
                border_rows = [[str(i + pair.index_base), fmt17(pair.border[i].real),
                                fmt17(pair.border[i].imag)] for i in range(size)]
                _write_csv(outdir / "border.csv", ["n", "a_re", "a_im"], border_rows, cfg.echo())
                return 0
            verdicts = hub.run_suite(cfg.experiments)
            emit_verdicts(verdicts, cfg, outdir)
            for v in verdicts:
                status = "PASS" if v.passed else "FAIL"
                print(f"{status} {v.name} margin={v.margin:.3e} tol={v.tolerance:.1e}")
            return 0 if all(v.passed for v in verdicts) else 1
        finally:
            moments.set_disk_cache(None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pftau",
        description="Deformed-ensemble partition functions: series, oracles, verdicts")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--cache", default=None, help="moment-table cache directory")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error [unreadable-config]: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if cfg.command != args.command:
            raise ConfigError("command-mismatch",
                              f"config says {cfg.command!r}, command line says {args.command!r}")
        if args.seed is not None:
            # the parser builds the experiments, and the embedded config records the seed; the
            # config parsed without it, so a rejection now is the option's
            try:
                cfg = parse_config(json.dumps(dict(cfg.raw, seed=args.seed)))
            except ConfigError as exc:
                raise ConfigError(exc.code, f"--seed {args.seed}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    if args.out:
        cfg.output = args.out
    if args.cache:
        cfg.cache = args.cache
    return run_config(cfg, Path(cfg.output))


if __name__ == "__main__":
    sys.exit(main())
