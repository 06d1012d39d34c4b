"""Fixed calibration kernels that measure how fast the machine runs now.

The benchmark runs on shared virtual machines whose speed drifts: the same
job can take 30-50% longer an hour later, and fixed numpy and Python loops
slow down with it.  The worker times its workload's kernel between jobs
and scales every job time by ``REFERENCE_S / kernel time``, so reported
times are seconds at one reference machine speed and a slower hour does
not read as a regression.  The kernels use numpy and Python only, never
wellpose, so no change to the package can move them.

Each kernel is built from the kind of work its workload does, because
kinds of work slow down by different amounts when the machine is busy.
``renorm`` and ``family`` make many small numpy calls from Python; their
kernel mixes distance-style broadcasting on arrays that fit in cache,
passes over an array that does not, writing freshly mapped memory, small
numpy calls from a Python loop and plain Python dict and float work.
``sublevel`` works on large arrays; its kernel keeps the broadcasting and
the passes and adds large temporaries filled and compared against a
threshold, as its distance blocks are.  Timed against the jobs on a
2-vCPU virtual machine, each kernel's time moved with its workload's job
times at a slope of 0.8-1.0 (log against log); the mixed kernel moved
about twice as much as the ``sublevel`` jobs.

A kernel keeps its own footprint to about 15-35 MB and runs between jobs,
so it does not raise a workload's peak RSS.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

# Median kernel times on a 2-vCPU x86-64 virtual machine (Python 3.11,
# numpy 2.4, one thread).  Constants, so that scaled times stay comparable
# between commits.
REFERENCE_S = {"mixed": 0.022, "bulk": 0.021}
KERNEL = {"renorm": "mixed", "family": "mixed", "sublevel": "bulk"}
FRESH_BYTES = 4 << 20


class Kernel:
    """One workload's kernel; build the arrays once, each call returns its wall time."""

    def __init__(self, workload: str):
        self.kind = KERNEL[workload]
        self.reference_s = REFERENCE_S[self.kind]
        rng = np.random.default_rng(0)
        self.x = rng.random(500)
        self.y = rng.random(384)
        self.big = rng.random(500_000)  # 4 MB, larger than the inner caches
        self.small = rng.random(8)

    def __call__(self) -> float:
        start = time.perf_counter()
        if self.kind == "mixed":
            self._broadcast()
            self._passes()
            self._fresh()
            self._small_calls()
            self._python()
        else:
            for _ in range(2):
                self._broadcast()
                self._passes()
                self._temporaries()
        return time.perf_counter() - start

    def median(self, repeats: int) -> float:
        return statistics.median(self() for _ in range(repeats))

    def _broadcast(self):
        for _ in range(4):
            np.abs(self.x[:, None] - self.y[None, :]).max(axis=1)

    def _passes(self):
        for _ in range(8):
            self.big.max()
            self.big.sum()

    def _fresh(self):
        for _ in range(2):
            with mmap.mmap(-1, FRESH_BYTES) as buf:  # fresh pages: page faults
                fresh = np.frombuffer(buf, dtype=np.float64)
                fresh.fill(0.5)
                fresh.sum()
                del fresh

    def _small_calls(self):
        s = self.small
        for _ in range(2700):
            float(np.abs(s - 0.5).max())

    def _python(self):
        for _ in range(6):
            table = {}
            for i in range(10000):
                table[i] = i * 0.5 + 1.0

    def _temporaries(self):
        np.full(2_000_000, 0.5).sum()
        block = np.empty((1000, 1000))
        block.fill(1.0)
        int((block <= 0.5).sum())
