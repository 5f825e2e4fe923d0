"""A fixed reference computation that tracks the host's current speed.

On a shared host the effective CPU speed drifts by tens of percent, on
time scales from tens of milliseconds to minutes, as other tenants load
it; wall and CPU time drift together, so neither can be used raw.  The
benchmark times this kernel immediately before every invocation and
divides the invocation's wall time by it.  The kernel uses none of the
``cannings`` code, only the mix of Python bytecode, scalar random draws
and small numpy calls that the program's inner loops make, so a change
to the program cannot move it.

A calibrated time is reported in seconds at ``NOMINAL_S`` seconds per
reference run, close to the kernel's fastest time on a 2-core sandbox.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.006


def reference_kernel() -> float:
    rng = np.random.default_rng(20161215)
    x = np.full(1000, 0.5)
    acc = 0.0
    n = 2
    for _ in range(200):
        hold = rng.exponential(1.0 / (3.0 * n + 4.0))
        n = n + 1 if rng.random() < 0.6 else max(1, n - 1)
        x = np.clip(x + 0.01 * (rng.random(1000) - 0.5), 0.0, 1.0)
        labels = np.unique(rng.integers(0, 50, size=24))
        acc += hold + float(x[::97].sum()) + labels.size
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def calibrated(seconds: float, reference: float) -> float:
    """Wall time rescaled to the nominal host speed."""
    return seconds * NOMINAL_S / reference
