"""A fixed reference computation that measures how fast the machine runs.

The machine the benchmark runs on is shared: over minutes its speed drifts by
a quarter or more, the same for the program and for any other computation in
the process. So the timed loop also times this kernel, in short blocks
between ops, and the end-to-end timings are put at one machine speed: the one
at which the kernel takes ``NOMINAL_S``. The kernel is the same kind of work
as entcharge's (small Hermitian eigenproblems, entropies, a partial trace, a
Python loop), in a fixed amount, and does not use entcharge.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array

import numpy as np

INTERVAL_S = 0.25  # at most one block of reps this often, between two ops
REPS = 16  # kernel runs per block, each timed on its own
# Mean kernel time at the nominal machine speed: about its mean on the 2-vCPU
# machine of the README baseline, so that there the timings read close to
# the plain ones.
NOMINAL_S = 0.24e-3

_eigvalsh = np.linalg.eigvalsh  # captured before the tracer can wrap it
_rng = np.random.default_rng(20090109)
_g4 = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_H4 = _g4 @ _g4.conj().T / np.trace(_g4 @ _g4.conj().T).real
_g16 = _rng.standard_normal((16, 16))
_H16 = _g16 @ _g16.T


def kernel() -> float:
    total = 0.0
    for _ in range(4):
        ev = _eigvalsh(_H4)
        ev = ev[ev > 1e-12]
        total += float(-(ev * np.log2(ev)).sum())
        t = np.kron(_H4, _H4).reshape(4, 4, 4, 4)
        total += float(np.trace(t, axis1=1, axis2=3).real.sum())
    total += float(_eigvalsh(_H16).sum())
    for j in range(600):
        total += j * j % 7
    return total


class Reference:
    """Times blocks of kernel runs between ops, at most one block per
    INTERVAL_S, so the samples spread evenly over the timed loop."""

    def __init__(self) -> None:
        self.durations = array("d")
        self.last = -math.inf

    def sample(self) -> None:
        if time.perf_counter() - self.last < INTERVAL_S:
            return
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel()
            self.durations.append(time.perf_counter() - t0)
        self.last = time.perf_counter()

    def slowdown(self) -> float:
        """The machine's mean time for the kernel over the nominal: above 1
        when it ran slower."""
        return statistics.fmean(self.durations) / NOMINAL_S
