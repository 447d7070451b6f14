"""Fixed reference kernels that measure how fast the machine runs right now.

On a host whose cores are shared with other tenants, their load can slow
interpreted code by up to 2x for minutes at a time.  Timing a fixed kernel
of the same kind of work right before and after each pass shows that
slowdown, so a pass time divided by its kernel time stays put when the host
speed moves, and moves only when the program does.  The kernels never call
the program, so no change to ``src/`` can change them.
"""

from __future__ import annotations

import time

import numpy as np


def _term(j: int) -> float:
    return 0.5 * (j + 1.0) ** -1.5


def interpreted():
    """Scalar Python: a generator of function calls doing float arithmetic."""
    return sum(_term(j) for j in range(300_000))


def numpy_small():
    """Many numpy calls on small arrays, bound by call overhead."""
    w = np.linspace(-1.0, 1.0, 30 * 60).reshape(30, 60)
    y = np.ones(60)
    for _ in range(15_000):
        h = np.maximum(w @ y, 0.0)
        y = np.tanh(w.T @ h) * 0.5
    return float(y.sum())


def blas():
    """Dense matrix products large enough for the BLAS threads."""
    a = np.linspace(-1.0, 1.0, 500 * 500).reshape(500, 500)
    b = a
    for _ in range(12):
        b = np.tanh(a @ b)
    return float(b.sum())


KERNELS = {"interpreted": interpreted, "numpy_small": numpy_small, "blas": blas}


def time_kernel(name: str) -> float:
    t0 = time.perf_counter()
    KERNELS[name]()
    return time.perf_counter() - t0
