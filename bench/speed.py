"""Machine-speed probe, so that time metrics follow the program and not the host.

The benchmark shares a few vCPUs of a host with other tenants. Their load
makes the same fixed loop run up to twice as slow for stretches of seconds
to minutes, so whole runs of a minute land in a slow or a fast phase, and
no statistic of wall times taken inside one run removes that. A probe is a
fixed piece of work that does not touch the program: an interpreter loop,
small BLAS products and a memory-bound copy larger than the caches, the
three kinds of work the jobs do. The run probes after every job and after
each set-up, never inside a timed interval, and divides the times of each
pass by that pass's speed factor:

    factor = median(probe times during the pass) / REF_S
    normalized_s = wall_s / factor

A pass lasts about ten seconds, so the factor follows the slow and fast
phases while the median over a few dozen probes keeps the probe's own
jitter out. Each set-up is divided by the factor of the probes run just
before and just after it.

`REF_S` is the probe's median time over about 2,300 probes on a 2-vCPU
cloud VM (Python 3.11, numpy 2.4 with OpenBLAS, one BLAS thread); the 10th
and 90th percentiles were 11 and 16 ms. Normalized times therefore read as
seconds on that machine at its usual speed. It is a fixed constant:
changing it rescales every time metric, so it changes only together with
the benchmark, never in a change that is being measured.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.015
_PY_ITERS = 40_000
_BLAS_REPS = 20
_COPY_FLOATS = 2_000_000  # 16 MB, past the last-level cache


class Probe:
    """Callable that runs the fixed probe work `reps` times and returns the
    median time of one probe.

    Every probe is kept in `samples` as (interpreter, BLAS, memory) seconds.
    """

    def __init__(self, reps: int = 1):
        rng = np.random.default_rng(0)
        self.reps = reps
        self._a = rng.standard_normal((160, 160))
        self._src = rng.standard_normal(_COPY_FLOATS)
        self._dst = np.empty_like(self._src)
        self.samples: list = []
        self()  # first touch of the buffers and BLAS warm-up, not recorded
        self.samples.clear()

    def __call__(self) -> float:
        return statistics.median(self._once() for _ in range(self.reps))

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(_PY_ITERS):
            acc += i * i
        t1 = time.perf_counter()
        a = self._a
        for _ in range(_BLAS_REPS):
            a @ a
        t2 = time.perf_counter()
        np.copyto(self._dst, self._src)
        np.copyto(self._src, self._dst)
        t3 = time.perf_counter()
        self.samples.append((t1 - t0, t2 - t1, t3 - t2))
        return t3 - t0

    def factor_now(self, n: int) -> float:
        """The speed factor of `n` probes run now."""
        return factor([self._once() for _ in range(n)])


def factor(probe_times) -> float:
    """How many times slower than REF_S the median of `probe_times` is."""
    return statistics.median(probe_times) / REF_S
