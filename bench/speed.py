"""Machine-speed probe, so timings on a shared machine can be compared.

On a small shared machine the speed a process gets drifts by up to a
factor of two over seconds to minutes (other tenants, shared cores and
caches).  A fixed probe of the kinds of work the workloads do - chains
of small Kronecker products, small matrix-vector products and
elementwise exponentials, and 32x32 complex LAPACK eigensolves - is timed
between tasks, and each task's latency is rescaled to reference speed:

    scaled = measured * REFERENCE_S / (probe time around the task)

REFERENCE_S is the probe's time on the machine the baseline was recorded
on, in its slower state (2 vCPUs, Python 3.11, OpenBLAS 0.3.31), so scaled
values read as seconds on that machine.  On it, this probe cut the spread
of 30-second windows of a workload from 17-25% to 1-3%.  The probe uses
only numpy and this file, never spinchern, so a change to the program
cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 1.5e-3
# Probes on either side of a task that set its local speed.
NEIGHBOURS = 4


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._hermitian = a + a.conj().T
        self._rotation = np.array([[0.8, -0.6], [0.6, 0.8]])
        self._vector = rng.standard_normal(32) + 0j
        self.times = []

    def run(self) -> float:
        """Time one probe (about 1.5 ms), keep it and return it."""
        start = perf_counter()
        for _ in range(8):
            op = np.array([[1.0]])
            for _ in range(5):
                op = np.kron(op, self._rotation)
            np.exp(-1j * (op @ (op.T @ self._vector)).real)
        for _ in range(3):
            np.linalg.eigh(self._hermitian)
        elapsed = perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def median(self, count: int) -> float:
        """Median of ``count`` fresh probes."""
        return statistics.median(self.run() for _ in range(count))

    def scale_at(self, mark: int) -> float:
        """Factor to reference speed for work done right after probe ``mark``."""
        window = self.times[max(0, mark - NEIGHBOURS + 1) : mark + NEIGHBOURS + 1]
        return REFERENCE_S / statistics.median(window)
