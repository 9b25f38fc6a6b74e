"""A fixed reference loop that tracks the speed of a shared host.

On a host shared with other tenants, the same pass can take 30% longer a
minute later, and a median over passes cannot remove a slow stretch that
lasts longer than the run.  So a run samples this loop between the
experiments of each pass, and before and after each set-up, and reports
those times in reference seconds:

    reference seconds = measured seconds * REF_CHUNK_S / chunk time,

with the chunk time the mean of the samples on either side.  The loop mixes
interpreter arithmetic with small NumPy linear algebra, as the pftau kernels
do, and touches nothing of pftau, so a change to the program cannot move it.
"""
from __future__ import annotations

import functools
import statistics
from time import perf_counter, process_time

import numpy as np

from perfbench.spans import _Patcher

# One chunk's time on an idle core of the host that defined the benchmark
# (Intel Xeon, 2 vCPUs, Python 3.11, NumPy 2.4, OpenBLAS 0.3.31).
REF_CHUNK_S = 0.005

_MATRIX = np.random.default_rng(0).normal(size=(12, 12)) + 12.0 * np.eye(12)


def chunk() -> float:
    """Time one chunk of the reference loop."""
    start = perf_counter()
    acc = 0
    for i in range(45000):
        acc += i * i % 7
    for _ in range(120):
        x = np.linalg.solve(_MATRIX, _MATRIX[0])
        acc += (_MATRIX @ _MATRIX).sum() + x.sum()
    return perf_counter() - start


def sample(seconds: float) -> float:
    """Mean chunk time over about `seconds` of the reference loop."""
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        times.append(chunk())
    return statistics.fmean(times)


def scale(times: list[float], refs: list[float]) -> list[float]:
    """Measured seconds to reference seconds.

    `times[i]` was measured between the reference samples `refs[i]` and
    `refs[i + 1]`, and is scaled by their mean.
    """
    return [t * 2.0 * REF_CHUNK_S / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


class ReferenceClock:
    """Samples the reference loop after every experiment of a pass.

    While active, `hub.run_experiment` is timed and followed by a sample; one
    sample precedes the first experiment.  `reference_s` then turns the
    pass's measured seconds, sampling excluded, into reference seconds: each
    experiment by its own two samples, the rest of the pass (parsing,
    emitting, checks) by their mean.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.refs = []
        self.calls = []              # (seconds, index of the sample after the call)
        self.spent_wall = 0.0        # in samples taken after experiments
        self.spent_cpu = 0.0
        self._patcher = None

    def __enter__(self):
        self.refs.append(sample(self.seconds))
        self._patcher = _Patcher()
        hub = self._patcher.modules["hub"]
        self._patcher.replace_function(hub.run_experiment, self._wrap(hub.run_experiment))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def _wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls.append((perf_counter() - start, len(self.refs)))
                wall, cpu = perf_counter(), process_time()
                self.refs.append(sample(self.seconds))
                self.spent_wall += perf_counter() - wall
                self.spent_cpu += process_time() - cpu

        return timed

    def reference_s(self, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU seconds of the pass, `spent_*` taken out, in reference seconds."""
        in_calls = sum(t for t, _ in self.calls)
        scaled = sum(t * 2.0 * REF_CHUNK_S / (self.refs[i - 1] + self.refs[i])
                     for t, i in self.calls)
        scaled += (wall - in_calls) * REF_CHUNK_S / statistics.fmean(self.refs)
        return scaled, cpu * scaled / wall
