"""Monte-Carlo estimates with a 95% normal confidence interval."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

CONFIDENCE_LEVEL = 0.95
# the two-sided standard normal quantile (scipy's norm.ppf is ndtri)
_Z = float(ndtri(0.5 + CONFIDENCE_LEVEL / 2.0))


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with standard error and a 95% normal confidence interval."""

    mean: float
    std_error: float
    replicates: int
    interval: tuple[float, float]

    @staticmethod
    def from_samples(values) -> "McEstimate":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("need a non-empty 1-d sample array")
        r = int(arr.size)
        mean = float(arr.mean())
        se = float(arr.std(ddof=1) / math.sqrt(r)) if r > 1 else 0.0
        return McEstimate(mean, se, r, interval(mean, se))

    @staticmethod
    def exact(value: float) -> "McEstimate":
        """A deterministic value wearing the estimate interface (SE 0)."""
        v = float(value)
        return McEstimate(v, 0.0, 0, (v, v))


def interval(mean: float, se: float) -> tuple[float, float]:
    """The 95% normal confidence interval mean -+ z se."""
    return (mean - _Z * se, mean + _Z * se)
