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

from . import hub, moments
from . import tauseries as ts
from .moments import EnsembleSpec
from .symfun import CouplingSeq

COMMANDS = ("partition-function", "compare-oracle", "hirota-check", "group-integral",
            "kernel-check", "moments-dump", "discrete-check", "suite")

DEFAULT_CUTOFF = 10
DEFAULT_TOL = 1e-5
DEFAULT_SAMPLES = 100000
DEFAULT_SEED = 42


class ConfigError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def fmt17(x) -> str:
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    command: str
    ensemble: EnsembleSpec | None = None
    cutoff: int = DEFAULT_CUTOFF
    tolerance: float = DEFAULT_TOL
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    output: str = "out"
    cache: str | None = None
    fmt: str = "json"
    extras: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def echo(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def _no_duplicates(pairs):
    seen = set()
    out = {}
    for k, v in pairs:
        if k in seen:
            raise ConfigError("duplicate-field", f"duplicate field {k!r}")
        seen.add(k)
        out[k] = v
    return out


_ENSEMBLE_KEYS = {"kind", "n", "L", "t", "s", "alpha", "beta", "L2", "t_bar", "s_bar"}
_TOP_KEYS = {"command", "ensemble", "cutoff", "tolerance", "samples", "seed", "output",
             "cache", "format", "p", "p_ref", "size", "group", "points", "trials",
             "alpha_shift", "beta_shift", "cutoffs", "experiments", "t", "predicates",
             "min_factor"}


def _coupling(value, where: str) -> CouplingSeq:
    if value is None:
        return CouplingSeq.zero()
    if not isinstance(value, (list, tuple)):
        raise ConfigError("bad-number", f"{where} must be an array of numbers")
    try:
        return CouplingSeq(tuple(float(v) for v in value))
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad-number", f"malformed number in {where}: {exc}") from exc


def parse_ensemble(node) -> EnsembleSpec:
    if not isinstance(node, dict):
        raise ConfigError("bad-ensemble", "ensemble must be an object")
    unknown = set(node) - _ENSEMBLE_KEYS
    if unknown:
        raise ConfigError("unknown-field", f"unknown ensemble fields {sorted(unknown)}")
    kind = node.get("kind")
    if kind not in moments.KINDS:
        raise ConfigError("unknown-ensemble-kind", f"unknown ensemble kind {kind!r}")
    n = node.get("n")
    if not isinstance(n, int) or n < 0:
        raise ConfigError("bad-size", f"n must be a nonnegative integer, got {n!r}")
    try:
        return EnsembleSpec(
            kind, n, int(node.get("L", 0)),
            _coupling(node.get("t"), "t"), _coupling(node.get("s"), "s"),
            node.get("alpha"), node.get("beta"),
            int(node.get("L2", 0)),
            _coupling(node.get("t_bar"), "t_bar"), _coupling(node.get("s_bar"), "s_bar"))
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad-ensemble", str(exc)) from exc


def parse_config(text: str) -> RunConfig:
    """Strict parse: unknown keys, duplicate keys and malformed numbers all fail."""
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates)
    except ConfigError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError("bad-json", f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("bad-json", "top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError("unknown-field", f"unknown fields {sorted(unknown)}")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError("unknown-command", f"command must be one of {COMMANDS}, got {command!r}")
    cfg = RunConfig(command=command, raw=raw)
    if "ensemble" in raw:
        cfg.ensemble = parse_ensemble(raw["ensemble"])
    for key, attr, conv, check in (
            ("cutoff", "cutoff", int, lambda v: v >= 0),
            ("samples", "samples", int, lambda v: v >= 1),
            ("seed", "seed", int, lambda v: True),
            ("tolerance", "tolerance", float, lambda v: v > 0)):
        if key in raw:
            try:
                val = conv(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError("bad-number", f"malformed {key}: {raw[key]!r}") from exc
            if not check(val):
                raise ConfigError("bad-number", f"{key} out of range: {val}")
            setattr(cfg, attr, val)
    cfg.output = raw.get("output", cfg.output)
    cfg.cache = raw.get("cache", cfg.cache)
    cfg.fmt = raw.get("format", cfg.fmt)
    if cfg.fmt not in ("json", "csv", "both"):
        raise ConfigError("bad-format", f"format must be json, csv or both, got {cfg.fmt!r}")
    cfg.extras = {k: raw[k] for k in raw
                  if k not in ("command", "ensemble", "cutoff", "tolerance", "samples",
                               "seed", "output", "cache", "format")}
    return cfg


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


def emit_tau_table(tau: ts.TauApprox, cfg: RunConfig, outdir: Path) -> list[Path]:
    rows = []
    for lam, coeff in tau.ordered_terms():
        rows.append(["+".join(map(str, lam.parts)) or "0",
                     fmt17(coeff.real), fmt17(coeff.imag)])
    paths = []
    if cfg.fmt in ("csv", "both"):
        p = outdir / "tau_table.csv"
        _write_csv(p, ["partition", "coefficient_re", "coefficient_im"], rows, cfg.echo())
        paths.append(p)
    if cfg.fmt in ("json", "both"):
        value = tau.evaluate(cfg.ensemble.t)
        doc = {"config": cfg.raw, "charge": tau.charge, "cutoff": tau.cutoff,
               "value_at_t": {"re": fmt17(value.real), "im": fmt17(value.imag)},
               "terms": [{"partition": r[0], "re": r[1], "im": r[2]} for r in rows]}
        p = outdir / "tau_table.json"
        _write_json(p, doc)
        paths.append(p)
    return paths


def emit_verdicts(verdicts, cfg: RunConfig, outdir: Path) -> list[Path]:
    rows = [[v.name, v.comparison, str(v.passed).lower(), fmt17(v.margin),
             fmt17(v.tolerance)] for v in verdicts]
    paths = []
    if cfg.fmt in ("csv", "both"):
        p = outdir / "verdicts.csv"
        _write_csv(p, ["name", "comparison", "pass", "margin", "tolerance"], rows, cfg.echo())
        paths.append(p)
    if cfg.fmt in ("json", "both"):
        doc = {"config": cfg.raw,
               "verdicts": [dict(v.row(), details=v.details) for v in verdicts]}
        p = outdir / "verdicts.json"
        _write_json(p, doc)
        paths.append(p)
    return paths


# ---------------------------------------------------------------------------
# command dispatch

def _require_ensemble(cfg: RunConfig) -> None:
    if cfg.ensemble is None:
        raise ConfigError("missing-ensemble", f"command {cfg.command} needs an ensemble")


_NODE_KEYS = {"name", "comparison", "ensemble", "tolerance", "cutoff", "samples",
              "seed", "params"}
_PARAM_KEYS = ("p", "p_ref", "size", "group", "points", "trials", "t", "predicates",
               "cutoffs", "min_factor")


def _command_node(cfg: RunConfig, comparison: str) -> dict:
    """The inline suite entry that a single-experiment command stands for."""
    params = {k: cfg.extras[k] for k in _PARAM_KEYS if k in cfg.extras}
    for key, name in (("alpha_shift", "alpha"), ("beta_shift", "beta")):
        if key in cfg.extras:
            params[name] = float(cfg.extras[key])
    node = {"name": cfg.command, "comparison": comparison, "params": params}
    if "ensemble" in cfg.raw:
        node["ensemble"] = cfg.raw["ensemble"]
    return node


def _experiment_from_node(node, cfg: RunConfig, index: int) -> hub.Experiment:
    """One experiment from an inline suite entry; unset fields come from `cfg`."""
    if not isinstance(node, dict):
        raise ConfigError("bad-suite", f"experiment {index} must be an object")
    unknown = set(node) - _NODE_KEYS
    if unknown:
        raise ConfigError("unknown-field", f"experiment {index}: unknown fields {sorted(unknown)}")
    if "comparison" not in node:
        raise ConfigError("bad-suite", f"experiment {index} needs a comparison kind")
    params = node.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("bad-suite", f"experiment {index}: params must be an object")

    def tuplify(v):
        return tuple(tuplify(x) for x in v) if isinstance(v, list) else v

    return hub.Experiment(
        name=node.get("name", f"experiment-{index}"),
        comparison=node["comparison"],
        spec=parse_ensemble(node["ensemble"]) if "ensemble" in node else None,
        tolerance=float(node.get("tolerance", cfg.tolerance)),
        cutoff=int(node.get("cutoff", cfg.cutoff)),
        samples=int(node.get("samples", cfg.samples)),
        seed=int(node.get("seed", cfg.seed)),
        params=tuple((k, tuplify(v)) for k, v in params.items()))


def run_config(cfg: RunConfig, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.cache:
        moments.set_disk_cache(MomentCache(cfg.cache))
    try:
        if cfg.command == "partition-function":
            _require_ensemble(cfg)
            tau = ts.tau_series(cfg.ensemble, cfg.cutoff)
            emit_tau_table(tau, cfg, outdir)
            return 0
        if cfg.command == "moments-dump":
            _require_ensemble(cfg)
            size = int(cfg.extras.get("size", cfg.cutoff + cfg.ensemble.n_eff + cfg.ensemble.L))
            pair = moments.moment_pair(cfg.ensemble, size)
            rows = [[str(i + pair.index_base), str(j + pair.index_base),
                     fmt17(pair.a_matrix[i, j].real), fmt17(pair.a_matrix[i, j].imag)]
                    for i in range(size) for j in range(size)]
            _write_csv(outdir / "moments.csv", ["n", "m", "a_re", "a_im"], rows, cfg.echo())
            border_rows = [[str(i + pair.index_base), fmt17(pair.border[i].real),
                            fmt17(pair.border[i].imag)] for i in range(size)]
            _write_csv(outdir / "border.csv", ["n", "a_re", "a_im"], border_rows, cfg.echo())
            return 0
        comparison = {"compare-oracle": "series-vs-oracle-ratio",
                      "hirota-check": "hirota-decay",
                      "group-integral": "group-series-vs-mc",
                      "kernel-check": "kernel-vs-oracle",
                      "discrete-check": "discrete-exact"}.get(cfg.command)
        if comparison is not None:
            if comparison != "group-series-vs-mc":
                _require_ensemble(cfg)
            verdicts = [hub.run_experiment(_experiment_from_node(_command_node(cfg, comparison),
                                                                 cfg, 0))]
        elif cfg.command == "suite":
            requested = cfg.extras.get("experiments", "acceptance")
            if requested == "acceptance":
                exps = hub.acceptance_experiments(samples=cfg.samples, seed=cfg.seed)
            elif isinstance(requested, list):
                exps = [_experiment_from_node(node, cfg, i)
                        for i, node in enumerate(requested)]
            else:
                raise ConfigError("bad-suite",
                                  "experiments must be 'acceptance' or a list of experiments")
            verdicts = hub.run_suite(exps)
        else:  # pragma: no cover
            raise ConfigError("unknown-command", cfg.command)
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
    except ConfigError as exc:
        print(f"config error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    if args.out:
        cfg.output = args.out
    if args.cache:
        cfg.cache = args.cache
    if args.seed is not None:
        cfg.seed = args.seed
    return run_config(cfg, Path(cfg.output))


if __name__ == "__main__":
    sys.exit(main())
