"""Mergeable Monte-Carlo estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with standard error and a normal confidence interval.

    Estimates from disjoint replicate batches can be merged in any
    grouping order: the (count, mean, sum-of-squared-deviations) triple
    is combined with the pairwise update, so merge(a, merge(b, c)) and
    merge(merge(a, b), c) agree up to rounding.
    """

    mean: float
    std_error: float
    replicates: int
    confidence_level: float = 0.95
    interval: tuple[float, float] = (math.nan, math.nan)

    @staticmethod
    def from_samples(values, confidence_level: float = 0.95) -> "McEstimate":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("need a non-empty 1-d sample array")
        r = int(arr.size)
        mean = float(arr.mean())
        se = float(arr.std(ddof=1) / math.sqrt(r)) if r > 1 else 0.0
        return McEstimate(mean, se, r, confidence_level,
                          interval(mean, se, confidence_level))

    @staticmethod
    def exact(value: float, confidence_level: float = 0.95) -> "McEstimate":
        """A deterministic value wearing the estimate interface (SE 0)."""
        v = float(value)
        return McEstimate(v, 0.0, 0, confidence_level, (v, v))

    @property
    def _m2(self) -> float:
        # sum of squared deviations, reconstructed from the standard error
        r = self.replicates
        if r < 2:
            return 0.0
        return self.std_error ** 2 * r * (r - 1)

    def merge(self, other: "McEstimate") -> "McEstimate":
        if self.confidence_level != other.confidence_level:
            raise ValueError("cannot merge estimates with different confidence levels")
        if self.replicates == 0:
            return other
        if other.replicates == 0:
            return self
        r1, r2 = self.replicates, other.replicates
        r = r1 + r2
        delta = other.mean - self.mean
        mean = self.mean + delta * r2 / r
        m2 = self._m2 + other._m2 + delta * delta * r1 * r2 / r
        se = math.sqrt(m2 / (r - 1) / r) if r > 1 else 0.0
        return McEstimate(mean, se, r, self.confidence_level,
                          interval(mean, se, self.confidence_level))


def interval(mean: float, se: float, level: float) -> tuple[float, float]:
    # the two-sided standard normal quantile (scipy's norm.ppf is ndtri)
    z = float(ndtri(0.5 + level / 2.0))
    return (mean - z * se, mean + z * se)
