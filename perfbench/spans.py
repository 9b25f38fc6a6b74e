"""Outside-in instrumentation of the pftau layers.

Nothing here edits the package.  A `Tracer` replaces each public function of
each layer module by a timing wrapper, in the defining module and in every
pftau module that imported the same object by name (for example
`tauseries.abar`, `oracle.abar` and `hub.orc.eigen_integral`), and puts the
originals back on exit.  Self time of a span is its duration minus the time
covered by the spans it caused; a layer's self time is the sum over its spans.

`OracleAudit` is the one patch that is also active in untimed passes: it
records no time, only whether each quadrature oracle value met its own
`rel_tol`, because `oracle` returns unconverged values without a signal.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("partitions", "symfun", "skewlin", "quad", "moments", "fock",
          "tauseries", "oracle", "hub", "cli")

# Public methods wrapped in addition to every public module-level function.
METHODS = {
    "quad": {"LinePanels": ("__init__", "integrate", "cumulative")},
    "tauseries": {"TauApprox": ("evaluate",)},
    "cli": {"MomentCache": ("load", "store")},
}

# Functions whose outermost calls share one inclusive timer.
TIMERS = {
    "cli.parse_config": "cli.parse", "cli.parse_ensemble": "cli.parse",
    "cli.emit_verdicts": "cli.emit", "cli.emit_tau_table": "cli.emit",
}

MOMENT_SECTORS = ("orth_real_sector", "orth_border", "sympl_sector",
                  "sympl_border_moments", "ginse_complex_sector", "ginoe_complex_sector")

ORACLE_CHECKED = ("eigen_integral", "det_average_lhs", "ginue_two_point")


def _modules():
    return {name: importlib.import_module(f"pftau.{name}") for name in LAYERS}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


class _Patcher:
    """Replaces function objects by name everywhere pftau bound them; undoes it."""

    def __init__(self):
        self.modules = _modules()
        self._undo = []

    def replace_function(self, fn, wrapper) -> None:
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if obj is fn:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def replace_method(self, cls, name, wrapper) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, obj = self._undo.pop()
            setattr(owner, name, obj)


class OracleAudit:
    """Counts oracle values whose error estimate exceeds rel_tol * |value|."""

    def __init__(self):
        self.calls = 0
        self.unconverged = 0
        self._patcher = None

    def __enter__(self):
        self._patcher = _Patcher()
        oracle = self._patcher.modules["oracle"]
        for name in ORACLE_CHECKED:
            fn = getattr(oracle, name)
            self._patcher.replace_function(fn, self._wrap(fn))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def _wrap(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def audited(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.calls += 1
            if result.error_estimate > bound.arguments["rel_tol"] * max(abs(result.value), 1e-280):
                self.unconverged += 1
            return result

        return audited


class Tracer:
    """Spans around every public function of every layer, kept in memory."""

    def __init__(self):
        self.calls = Counter()
        self.counts = Counter()
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.max_level = 0
        self._stack = []
        self._open = Counter()
        self._patcher = None

    def __enter__(self):
        self._patcher = _Patcher()
        for layer, mod in self._patcher.modules.items():
            for name, fn in list(_public_functions(mod)):
                self._patcher.replace_function(fn, self._wrap(layer, f"{layer}.{name}", fn))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    qual = f"{layer}.{cls_name}.{meth}"
                    self._patcher.replace_method(cls, meth, self._wrap(layer, qual, fn))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def _wrap(self, layer, qual, fn):
        timer = TIMERS.get(qual, qual)
        hook = _HOOKS.get(qual)
        sig = inspect.signature(fn) if hook is not None else None
        stack, open_timers = self._stack, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            open_timers[timer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_timers[timer] -= 1
                self.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if not open_timers[timer]:
                    self.inclusive[timer] += elapsed
                self.calls[qual] += 1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return span

    def layer_metrics(self, tables_built: int, audit: OracleAudit) -> dict:
        """Per-layer metrics of one traced pass: name -> (value, unit)."""
        c, n, t, s = self.calls, self.counts, self.inclusive, self.self_s

        def rate(num, den):
            return num / den if den > 0 else 0.0

        requests = sum(c[f"moments.{name}"] for name in MOMENT_SECTORS)
        return {
            "skewlin.pfaffian_calls": (c["skewlin.pfaffian"], "count"),
            "skewlin.abar_calls": (c["skewlin.abar"], "count"),
            "skewlin.self_s": (s["skewlin"], "s"),
            "skewlin.pfaffians_per_s": (rate(c["skewlin.pfaffian"], s["skewlin"]), "1/s"),
            "symfun.schur_calls": (c["symfun.schur_from_h"], "count"),
            "symfun.self_s": (s["symfun"], "s"),
            "partitions.calls": (sum(v for k, v in c.items() if k.startswith("partitions.")),
                                 "count"),
            "partitions.listed": (n["partitions.listed"], "count"),
            "partitions.self_s": (s["partitions"], "s"),
            "moments.requests": (requests, "count"),
            "moments.tables_built": (tables_built, "count"),
            "moments.hit_ratio": (rate(requests - tables_built, requests), "ratio"),
            "moments.self_s": (s["moments"], "s"),
            "moments.s_per_build": (rate(s["moments"], tables_built), "s"),
            "quad.grids": (n["quad.grids"], "count"),
            "quad.nodes": (n["quad.nodes"], "count"),
            "quad.max_level": (self.max_level, "level"),
            "quad.self_s": (s["quad"], "s"),
            "tauseries.series_built": (c["tauseries.series_terms"], "count"),
            "tauseries.terms": (n["tauseries.terms"], "count"),
            "tauseries.evaluations": (c["tauseries.TauApprox.evaluate"], "count"),
            "tauseries.schur_terms_per_s": (rate(n["tauseries.terms_evaluated"],
                                                 t["tauseries.TauApprox.evaluate"]), "1/s"),
            "tauseries.self_s": (s["tauseries"], "s"),
            "oracle.eigen_calls": (c["oracle.eigen_integral"], "count"),
            "oracle.eigen_s": (t["oracle.eigen_integral"], "s"),
            "oracle.unconverged": (audit.unconverged, "count"),
            "oracle.haar_samples_per_s": (rate(n["oracle.haar_samples"],
                                               t["oracle.haar_expectation_mc"]), "1/s"),
            "oracle.ginue_s": (t["oracle.ginue_two_point"], "s"),
            "oracle.discrete_trials": (c["oracle.discrete_consistency"], "count"),
            "oracle.discrete_s": (t["oracle.discrete_consistency"], "s"),
            "cli.cache_loads": (n["cli.cache_hits"], "count"),
            "cli.cache_load_s": (t["cli.MomentCache.load"], "s"),
            "cli.cache_stores": (c["cli.MomentCache.store"], "count"),
            "cli.cache_store_s": (t["cli.MomentCache.store"], "s"),
            "cli.parse_s": (t["cli.parse"], "s"),
            "cli.emit_s": (t["cli.emit"], "s"),
            "fock.vev_calls": (c["fock.vev"], "count"),
            "fock.self_s": (s["fock"], "s"),
            "hub.experiments": (c["hub.run_experiment"], "count"),
            "hub.failed": (n["hub.failed"], "count"),
            "hub.self_s": (s["hub"], "s"),
        }


def _grid_nodes(tr, args, grid):
    tr.counts["quad.grids"] += 1
    tr.counts["quad.nodes"] += len(grid.nodes)
    tr.max_level = max(tr.max_level, int(args["level"]))


def _line_panels(tr, args, _):
    tr.counts["quad.grids"] += 1
    tr.counts["quad.nodes"] += len(args["self"].nodes)


def _level(tr, args, _):
    tr.max_level = max(tr.max_level, int(args["level"]))


def _listed(tr, _, result):
    tr.counts["partitions.listed"] += len(result)


def _terms(tr, _, result):
    tr.counts["tauseries.terms"] += len(result)


def _evaluated(tr, args, _):
    tr.counts["tauseries.terms_evaluated"] += len(args["self"].terms)


def _haar(tr, args, _):
    tr.counts["oracle.haar_samples"] += int(args["samples"])


def _cache_hit(tr, _, result):
    tr.counts["cli.cache_hits"] += result is not None


def _verdict(tr, _, verdict):
    tr.counts["hub.failed"] += not verdict.passed


_HOOKS = {
    "quad.half_plane_grid": _grid_nodes,
    "quad.full_plane_grid": _grid_nodes,
    "quad.real_line_grid": _grid_nodes,
    "quad.real_line_breakpoints": _level,
    "quad.LinePanels.__init__": _line_panels,
    "partitions.enumerate_partitions": _listed,
    "tauseries.series_terms": _terms,
    "tauseries.TauApprox.evaluate": _evaluated,
    "oracle.haar_expectation_mc": _haar,
    "cli.MomentCache.load": _cache_hit,
    "hub.run_experiment": _verdict,
}
