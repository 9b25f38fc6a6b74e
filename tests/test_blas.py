"""Every pftau command runs on one OpenBLAS thread, and no output depends on the pool."""
import json
from contextlib import contextmanager

import numpy as np
import pytest

from pftau import blas, hub, moments, oracle
from pftau.cli import parse_config, run_config
from pftau.hub import T_A
from pftau.moments import EnsembleSpec
from pftau.symfun import CouplingSeq

STRUCTURE = json.dumps({"command": "suite", "format": "json", "experiments": [
    {"name": "structure", "comparison": "ginse-structure", "ensemble": {"kind": "GinSE", "n": 2},
     "tolerance": 1e-6}]})


def _threads():
    found = blas.openblas()
    return None if found is None else found[0]()


@contextmanager
def _pool(threads):
    """The OpenBLAS pool at `threads` (when it gets there), then back to its old count."""
    found = blas.openblas()
    before = _threads()
    if found is not None:
        found[1](threads)
    try:
        yield
    finally:
        if found is not None:
            found[1](before)


def _spy_on_the_suite(monkeypatch, error=None):
    """The thread counts `hub.run_suite` sees, one per call; raise `error` there if given."""
    seen, run_suite = [], hub.run_suite

    def spy(experiments):
        seen.append(_threads())
        if error is not None:
            raise error
        return run_suite(experiments)

    monkeypatch.setattr(hub, "run_suite", spy)
    return seen


def test_run_config_runs_on_one_thread_and_restores_the_pool(tmp_path, monkeypatch):
    seen = _spy_on_the_suite(monkeypatch)
    with _pool(2):
        before = _threads()
        assert run_config(parse_config(STRUCTURE), tmp_path) == 0
        after = _threads()
    if before is None:
        pytest.skip("no OpenBLAS found: no thread count to check")
    assert seen == [1]
    assert after == before


def test_run_config_restores_the_pool_after_an_error(tmp_path, monkeypatch):
    seen = _spy_on_the_suite(monkeypatch, error=RuntimeError("inside the run"))
    with _pool(2):
        before = _threads()
        with pytest.raises(RuntimeError, match="inside the run"):
            run_config(parse_config(STRUCTURE), tmp_path)
        after = _threads()
    if before is None:
        pytest.skip("no OpenBLAS found: no thread count to check")
    assert seen == [1]
    assert after == before


def test_run_config_without_openblas_gives_the_same_verdicts(tmp_path, monkeypatch):
    assert run_config(parse_config(STRUCTURE), tmp_path / "found") == 0
    monkeypatch.setattr(blas, "openblas", lambda: None)
    assert run_config(parse_config(STRUCTURE), tmp_path / "none") == 0
    assert ((tmp_path / "found" / "verdicts.json").read_bytes()
            == (tmp_path / "none" / "verdicts.json").read_bytes())


def _blas_products():
    """Every BLAS-product object of the thread-count CLI test, built from an empty memo."""
    moments.clear_cache()
    out = []
    for kind, L in (("GinSE", 0), ("GinSE", 1), ("GinOE", 0), ("GinOE", 1), ("OE", 0)):
        spec = EnsembleSpec(kind, 2, L, T_A)
        pair = moments.moment_pair(spec, 12)
        out += [pair.a_matrix, pair.border, oracle.eigen_integral(spec).value]
    ginue = EnsembleSpec("GinUE", 2, 0, CouplingSeq.of(0.2), t_bar=CouplingSeq.of(0.2))
    out += [moments.complex_bimoment_matrix(ginue, 2), oracle.ginue_two_point(ginue).value]
    # every block of K: the sympl line, both pair blocks, and the orth line
    out += [moments.kernel_matrix(EnsembleSpec(kind, n, 0, CouplingSeq.of(0.2)), (0.1, -0.1))
            for kind, n in (("SE", 1), ("GinSE", 1), ("GinOE", 2))]
    return [np.asarray(v).tobytes() for v in out]


def test_blas_products_identical_on_two_threads_and_on_one():
    # library callers of `moments`, `oracle` and `hub` keep their own pool size
    with _pool(2):
        if _threads() != 2:
            pytest.skip("the OpenBLAS pool cannot reach 2 threads")
        two = _blas_products()
        with blas.one_thread():
            assert _threads() == 1
            one = _blas_products()
    moments.clear_cache()
    assert two == one
