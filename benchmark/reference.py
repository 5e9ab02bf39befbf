"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a host whose speed drifts by a fifth or more over
seconds to minutes, and the drift is in the processor's own speed: a
process's CPU time drifts with its wall time. A fixed amount of work of
the same kinds as relbound's slows with it: pivots on a small numpy
tableau, like the simplex, and a seeded generator, small index arrays
and 3 x 3 determinants driven from Python, like the prior sampler and
vertex enumeration. Pivots alone track the host well while it is quiet,
but under memory contention the sampler-like part tracks every workload
better, so the kernel does both. The runner times it after every op and
reports op times scaled to a host on which the kernel takes
``REFERENCE_MS``, so a run's timings reflect the program, not the host's
load at the moment. The kernel uses numpy only, never relbound, so no
change to relbound can change what it measures.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

#: the kernel's time on the reference host; scaled timings are in its units
REFERENCE_MS = 3.0
#: kernel times on each side of an op that make up its local speed estimate
HALF_WINDOW = 10

_TABLEAU = np.random.default_rng(0).random((60, 120))
_POINTS = np.arange(50) * 1e-3


def kernel() -> float:
    """Thirty pivots on a fixed 60 x 120 tableau, then twenty seeded
    draws of a small support and the determinants over its triples."""
    a = _TABLEAU.copy()
    total = 0.0
    for step in range(30):
        col = int(np.argmax(a[0, :]))
        row = step % a.shape[0]
        a[row] /= a[row, col] + 1.0
        a -= np.outer(a[:, col] * 1e-3, a[row])
        total += sum(float(x) for x in a[row, :20])
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        support = np.array(sorted({int(rng.integers(0, _POINTS.size)) for _ in range(4)}))
        for triple in itertools.combinations(support, 3):
            total += float(np.linalg.det(np.eye(3) + _POINTS[list(triple)][:, None]))
        total += float(rng.random()) + np.count_nonzero(_POINTS <= 0.02)
    return total


def time_kernel_ns() -> int:
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def median_kernel_ns(runs: int = 31) -> float:
    """The median time of ``runs`` kernels, after three to warm up."""
    for _ in range(3):
        kernel()
    return statistics.median(time_kernel_ns() for _ in range(runs))


def scale_factors(kernel_ns: list[int]) -> list[float]:
    """For each op, reference time ÷ the median kernel time around it."""
    factors = []
    for i in range(len(kernel_ns)):
        window = kernel_ns[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
        factors.append(REFERENCE_MS * 1e6 / statistics.median(window))
    return factors
