"""Monte-Carlo estimates with a 95% normal confidence interval, and the
one rule that checks an estimate against another."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: the 95 % two-sided standard normal quantile, ndtri(0.975)
_Z = 1.959963984540054


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with standard error and a 95% normal confidence interval."""

    mean: float
    std_error: float
    replicates: int

    @property
    def interval(self) -> tuple[float, float]:
        return interval(self.mean, self.std_error)

    @staticmethod
    def from_samples(values) -> "McEstimate":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("need a non-empty 1-d sample array")
        r = int(arr.size)
        se = float(arr.std(ddof=1) / math.sqrt(r)) if r > 1 else 0.0
        return McEstimate(float(arr.mean()), se, r)

    @staticmethod
    def exact(value: float) -> "McEstimate":
        """A deterministic value wearing the estimate interface (SE 0)."""
        return McEstimate(float(value), 0.0, 0)


def interval(mean: float, se: float) -> tuple[float, float]:
    """The 95% normal confidence interval mean -+ z se."""
    return (mean - _Z * se, mean + _Z * se)


@dataclass(frozen=True)
class Check:
    """The verdict of lhs against rhs: "pass", "fail" or "inconclusive"."""

    lhs: McEstimate
    rhs: McEstimate
    gap: float          # |lhs - rhs|, or an identity's largest residual
    combined_se: float
    tolerance: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def compare(lhs: McEstimate, rhs: McEstimate) -> Check:
    """Pass when the means lie within 3 combined standard errors."""
    gap = abs(lhs.mean - rhs.mean)
    combined = math.hypot(lhs.std_error, rhs.std_error)
    tolerance = 3.0 * combined
    return Check(lhs, rhs, gap, combined, tolerance,
                 "pass" if gap <= tolerance else "fail")
