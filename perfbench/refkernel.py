"""Fixed reference kernel used to correct op timings for machine drift.

The kernel mimics the cost profile of the library on small mixtures:
per-call overhead of tiny-matrix ``cholesky`` and ``solve_triangular``
calls plus a short pure-Python loop.  It never imports ``gmreduce``, so
no change to the library can move it; dividing an op's time by the time
of an adjacent kernel run cancels the slow and fast phases of a shared
machine.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_triangular

REPS = 300

_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
_B = np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 1.0, -1.0, 2.0], [2.0, 0.5, 1.5, -0.5]])


def run_kernel(reps: int = REPS) -> float:
    """Run the kernel once and return its checksum (deterministic)."""
    acc = 0.0
    for i in range(reps):
        chol = np.linalg.cholesky(_A + (i % 7) * 0.01 * np.eye(3))
        z = solve_triangular(chol, _B, lower=True)
        acc += float(np.sum(z * z))
        for k in range(12):
            acc += (k * i) % 5 * 1e-6
    return acc


def timed_kernel(reps: int = REPS) -> float:
    """Wall time in seconds of one kernel run."""
    t0 = time.perf_counter()
    run_kernel(reps)
    return time.perf_counter() - t0
