"""Calibration kernel for timing on a shared machine.

The 2-vCPU machine this benchmark was tuned on switches between a fast and
a slow state (about 1.7x apart) for seconds to minutes at a time, whatever
runs on it.  A fixed piece of work shaped like the jobs (a Python loop of
3x3 products, a 16x16 LAPACK solve and 17-digit float formatting) slows
down by about the same factor, so every reported time is scaled by
REFERENCE_S / (kernel seconds around it): a time on the reference machine
in its fast state.  The kernel shares no code with chronoslyap, so a change
to the program moves the job times and leaves the kernel alone.  Raw times
are reported next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the kernel takes on the reference machine (Intel Xeon VM,
#: 2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread) in its fast state.
REFERENCE_S = 0.014


def kernel_seconds() -> float:
    a = np.full((3, 3), 0.1)
    x = np.eye(3)
    L = np.eye(16) * 4.0 + np.full((16, 16), 0.1)
    b = np.ones(16)
    rows = []
    start = time.perf_counter()
    for _ in range(700):
        x = a @ x
        x = x / (1.0 + np.abs(x).max())
        y = np.linalg.solve(L, b)
        rows.append(",".join(f"{v:.17g}" for v in y[:6]))
    "\n".join(rows)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel runs into
    reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
