"""Parent-number laws and the selection functionals they induce.

Each individual samples a random number K >= 1 of potential parents and
adopts the fitter type as soon as one of them carries it.  The law of K
holds the whole selection mechanism:

* ``multi_prob``      -- probability that K > 1 (the selection strength),
* ``extra_pmf``/``geometric_param`` -- conditional law of K - 1 given K > 1,
* ``extra_inf_mass``  -- conditional mass of K = infinity.

Derived objects:

* ``pgf(law, x)``             sum of x^k P(K = k), with x^infinity = 0,
* ``selection_shape(law, x)`` s(x) = sum_{k>=1} P(K - 1 >= k) x^(k-1),
* ``branching_drift(law, x)`` sum_i pi_i (x^(i+1) - x), the forward drift
  of the weak type's frequency, which equals -x(1-x) s(x).

Infinite-support sums are truncated once the remaining tail is below
1e-14; for geometric laws the truncated sum is evaluated in closed form.
Everything accepts scalars or numpy arrays in x in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_TAIL_TOL = 1e-14


@dataclass(frozen=True)
class SelectionLaw:
    """Law of the potential-parent count K on {1, 2, ...} + {infinity}.

    Exactly one of ``extra_pmf`` (explicit pmf of K - 1 on {1, ..., m})
    and ``geometric_param`` (K - 1 geometric: pi_i = s^(i-1) (1-s))
    describes the conditional law given K > 1.  ``extra_inf_mass`` is the
    conditional mass at infinity; together with the pmf it must sum to 1.
    """

    multi_prob: float
    extra_pmf: tuple[float, ...] | None = None
    geometric_param: float | None = None
    extra_inf_mass: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.multi_prob <= 1.0):
            raise ValueError("multi_prob must lie in [0, 1]")
        if not (0.0 <= self.extra_inf_mass <= 1.0):
            raise ValueError("extra_inf_mass must lie in [0, 1]")
        has_pmf = self.extra_pmf is not None
        has_geo = self.geometric_param is not None
        if has_pmf == has_geo:
            raise ValueError("give exactly one of extra_pmf and geometric_param")
        if has_geo:
            if not (0.0 < self.geometric_param < 1.0):
                raise ValueError("geometric_param must lie in (0, 1)")
            if self.extra_inf_mass != 0.0:
                raise ValueError("geometric conditional law has no mass at infinity")
        else:
            pmf = self.extra_pmf
            if any(p < 0.0 for p in pmf):
                raise ValueError("pmf entries must be non-negative")
            if self.multi_prob > 0.0 or pmf:
                if abs(sum(pmf) + self.extra_inf_mass - 1.0) > 1e-9:
                    raise ValueError("conditional pmf plus infinity mass must sum to 1")

    @property
    def mean_extra(self) -> float:
        """Mean number of extra parents given K > 1 (infinity allowed)."""
        if self.extra_inf_mass > 0.0:
            return math.inf
        if self.geometric_param is not None:
            return 1.0 / (1.0 - self.geometric_param)
        if not self.extra_pmf:
            return 0.0
        return float(sum(i * p for i, p in enumerate(self.extra_pmf, start=1)))

    @property
    def inf_mass(self) -> float:
        """Unconditional mass of K = infinity."""
        return self.multi_prob * self.extra_inf_mass

    def extra_tail(self, k: int) -> float:
        """P(K - 1 >= k | K > 1) for k >= 1, including any infinity mass."""
        if k <= 1:
            return 1.0
        if self.geometric_param is not None:
            return self.geometric_param ** (k - 1)
        tail = self.extra_inf_mass
        for i in range(k, len(self.extra_pmf) + 1):
            tail += self.extra_pmf[i - 1]
        return tail


def neutral_family() -> SelectionLaw:
    """K = 1 always: every child copies a single uniform parent."""
    return SelectionLaw(0.0, extra_pmf=())


def geometric_family(param: float) -> SelectionLaw:
    """The weak-selection family: P(K >= m) = param ** (m - 1).

    Equivalently P(K = k) = param^(k-1) (1 - param), so the probability
    of sampling more than one parent is param itself and the conditional
    extra-parent count is geometric with the same parameter.
    """
    if not (0.0 < param < 1.0):
        raise ValueError("param must lie in (0, 1)")
    return SelectionLaw(param, geometric_param=param)


def explicit_family(k_pmf) -> SelectionLaw:
    """Build a law from the full pmf of K on {1, ..., m}."""
    pmf = [float(p) for p in k_pmf]
    if not pmf or any(p < 0.0 for p in pmf):
        raise ValueError("need a non-negative pmf over k = 1, 2, ...")
    if abs(sum(pmf) - 1.0) > 1e-9:
        raise ValueError("pmf must sum to 1")
    multi = 1.0 - pmf[0]
    if multi <= 0.0:
        return neutral_family()
    extra = tuple(p / multi for p in pmf[1:])
    return SelectionLaw(multi, extra_pmf=extra)


def offspring_delta(i: int) -> SelectionLaw:
    """Conditional law putting all extra-parent mass on exactly i."""
    if i < 1:
        raise ValueError("need i >= 1")
    return SelectionLaw(1.0, extra_pmf=(0.0,) * (i - 1) + (1.0,))


def offspring_pmf(pi) -> SelectionLaw:
    """Conditional extra-parent law from an explicit pmf over {1, 2, ...}."""
    return SelectionLaw(1.0, extra_pmf=tuple(float(p) for p in pi))


def geometric_offspring(param: float) -> SelectionLaw:
    """Conditional extra-parent law pi_i = param^(i-1) (1 - param)."""
    if not (0.0 < param < 1.0):
        raise ValueError("param must lie in (0, 1)")
    return SelectionLaw(1.0, geometric_param=param)


def _geom_terms(s: float, slack: float = 1.0) -> int:
    # smallest M with s**M <= _TAIL_TOL * slack, covering the dropped tail
    return max(2, int(math.ceil((math.log(_TAIL_TOL) + math.log(slack))
                                / math.log(s))) + 1)


def _geom_sum(r, m: int):
    """sum_{i<m} r^i = (1 - r^m) / (1 - r), for 0 <= r < 1."""
    return (1.0 - r ** m) / (1.0 - r)


def pgf(law: SelectionLaw, x):
    """E[x^K] with the convention x^infinity = 0 for x < 1.

    At x = 1 this returns 1 minus the unconditional mass at infinity.
    """
    arr = np.asarray(x, dtype=float)
    out = (1.0 - law.multi_prob) * arr
    if law.multi_prob > 0.0:
        if law.geometric_param is not None:
            s = law.geometric_param
            # sum over k = 2 .. M+1 of x^k s^(k-2) (1-s), M = _geom_terms(s)
            acc = (1.0 - s) * _geom_sum(s * arr, _geom_terms(s))
        else:
            acc = np.polyval(law.extra_pmf[::-1], arr)
        out = out + law.multi_prob * arr * arr * acc
    if np.ndim(x) == 0:
        return float(out)
    return out


def selection_shape(law: SelectionLaw, x):
    """s(x) = sum_{k>=1} P(K - 1 >= k | K > 1) x^(k-1); s(1) is the mean."""
    if law.extra_inf_mass > 0.0:
        raise ValueError("selection shape needs a finite mean extra-parent count")
    arr = np.asarray(x, dtype=float)
    if law.geometric_param is not None:
        s = law.geometric_param
        out = _geom_sum(s * arr, _geom_terms(s, slack=1.0 - s))
    else:
        out = np.polyval(_tail_vector(law)[::-1], arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def branching_drift(law: SelectionLaw, x):
    """sum_i pi_i (x^(i+1) - x): the selection drift of the weak type.

    Summed directly from the conditional pmf; agrees with
    -x (1 - x) * selection_shape(law, x) to truncation accuracy.
    """
    if law.extra_inf_mass > 0.0:
        raise ValueError("branching drift needs a finite mean extra-parent count")
    arr = np.asarray(x, dtype=float)
    if law.geometric_param is not None:
        # pi_i = (1-s) s^(i-1) for i = 1 .. M, M = _geom_terms(s)
        s = law.geometric_param
        m = _geom_terms(s)
        out = (1.0 - s) * arr * (arr * _geom_sum(s * arr, m) - _geom_sum(s, m))
    else:
        pmf = law.extra_pmf
        out = arr * arr * np.polyval(pmf[::-1], arr) - arr * sum(pmf)
    if np.ndim(x) == 0:
        return float(out)
    return out


@lru_cache(maxsize=256)
def _tail_vector(law: SelectionLaw) -> tuple[float, ...]:
    m = len(law.extra_pmf)
    return tuple(law.extra_tail(k) for k in range(1, m + 1))


@lru_cache(maxsize=256)
def _extra_cdf(law: SelectionLaw) -> tuple[np.ndarray, bool]:
    """Cumulative conditional pmf of K - 1, with an infinity bucket flag."""
    if law.geometric_param is not None:
        raise ValueError("geometric laws sample directly")
    probs = np.asarray(law.extra_pmf, dtype=float)
    cdf = np.cumsum(probs)
    return cdf, law.extra_inf_mass > 0.0


def sample_extra(law: SelectionLaw, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw K - 1 from the conditional law; -1 encodes infinity."""
    if law.geometric_param is not None:
        return rng.geometric(1.0 - law.geometric_param, size=size).astype(np.int64)
    cdf, has_inf = _extra_cdf(law)
    u = rng.random(size)
    ks = np.searchsorted(cdf, u, side="right").astype(np.int64) + 1
    if has_inf:
        ks[ks > len(cdf)] = -1
    elif len(cdf):
        np.minimum(ks, len(cdf), out=ks)  # guard the u ~ 1 edge
    return ks


def sample_parent_counts(law: SelectionLaw, size: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw K for ``size`` individuals; -1 encodes infinitely many."""
    ks = np.ones(size, dtype=np.int64)
    if law.multi_prob > 0.0:
        mask = rng.random(size) < law.multi_prob
        n_multi = int(mask.sum())
        if n_multi:
            extra = sample_extra(law, n_multi, rng)
            ks[mask] = np.where(extra < 0, -1, 1 + extra)
    return ks
