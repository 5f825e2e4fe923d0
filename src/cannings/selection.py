"""Parent-number laws and the selection functionals they induce.

Each individual samples a random number K >= 1 of potential parents and
adopts the fitter type as soon as one of them carries it.  The law of K
holds the whole selection mechanism:

* ``multi_prob``      -- probability that K > 1 (the selection strength),
* ``extra_pmf``/``geometric_param`` -- conditional law of K - 1 given K > 1,
* ``extra_inf_mass``  -- conditional mass of K = infinity.

Derived objects:

* ``pgf(law, x)``             sum of x^k P(K = k), x^inf = 0, pgf(1) = 1,
* ``selection_shape(law, x)`` s(x) = sum_{k>=1} P(K - 1 >= k) x^(k-1),
* ``branching_drift(law, x)`` sum_i pi_i (x^(i+1) - x), the forward drift
  of the weak type's frequency, which equals -x(1-x) s(x); ``drift_kernel``
  evaluates the same sum in place, for loops that take many steps.

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
    def point_extra(self) -> int | None:
        """i when the conditional law is a point mass at i (one non-zero
        ``extra_pmf`` entry, no mass at infinity), else None."""
        if self.extra_pmf is None or self.extra_inf_mass > 0.0:
            return None
        support = [i for i, p in enumerate(self.extra_pmf, start=1) if p != 0.0]
        return support[0] if len(support) == 1 else None

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


def _horner(coeffs, arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_k coeffs[k] arr^k, bit for bit as np.polyval(coeffs[::-1], arr)
    on finite input, without its per-call overhead; written into ``out``
    when given."""
    if out is None:
        out = np.empty(arr.shape)
    out.fill(coeffs[-1] if coeffs else 0.0)
    for c in coeffs[-2::-1]:
        out *= arr
        out += c
    return out


def _geom_sum(r, m: int):
    """sum_{i<m} r^i = (1 - r^m) / (1 - r), for 0 <= r < 1."""
    return (1.0 - r ** m) / (1.0 - r)


def pgf(law: SelectionLaw, x):
    """E[x^K] with the convention x^infinity = 0 for x < 1.

    At x = 1 this returns exactly 1 for every law, K = infinity and the
    geometric cut included: when every parent is weak, every child is.
    """
    arr = np.asarray(x, dtype=float)
    out = (1.0 - law.multi_prob) * arr
    if law.multi_prob > 0.0:
        if law.geometric_param is not None:
            s = law.geometric_param
            # sum over k = 2 .. M+1 of x^k s^(k-2) (1-s), M = _geom_terms(s)
            acc = (1.0 - s) * _geom_sum(s * arr, _geom_terms(s))
        else:
            acc = _horner(law.extra_pmf, arr)
        out = out + law.multi_prob * arr * arr * acc
    out = np.where(arr == 1.0, 1.0, out)
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
        out = _horner(_tail_vector(law), arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def branching_drift(law: SelectionLaw, x):
    """sum_i pi_i (x^(i+1) - x): the selection drift of the weak type.

    Summed directly from the conditional pmf; agrees with
    -x (1 - x) * selection_shape(law, x) to truncation accuracy.
    """
    arr = np.asarray(x, dtype=float)
    out = np.empty(arr.shape)
    drift_kernel(law)(arr, out, np.empty(arr.shape))
    if np.ndim(x) == 0:
        return float(out)
    return out


def drift_kernel(law: SelectionLaw):
    """fill(x, out, work), which writes ``branching_drift(law, x)`` into
    ``out`` with ``work`` as scratch, both arrays of x's shape.

    The law's constants are computed here, once, so that a caller
    evaluating the drift many times (an Euler loop) allocates nothing
    per evaluation.
    """
    if law.extra_inf_mass > 0.0:
        raise ValueError("branching drift needs a finite mean extra-parent count")
    if law.geometric_param is not None:
        # pi_i = (1-s) s^(i-1) for i = 1 .. M, M = _geom_terms(s):
        # (1-s) x (x _geom_sum(s x, M) - _geom_sum(s, M))
        s = law.geometric_param
        m = _geom_terms(s)
        tail = _geom_sum(s, m)
        keep = 1.0 - s

        def fill(x, out, work):
            np.multiply(x, s, out=work)
            np.power(work, m, out=out)
            np.subtract(1.0, out, out=out)
            np.subtract(1.0, work, out=work)
            out /= work
            out *= x
            out -= tail
            np.multiply(x, keep, out=work)
            out *= work
    else:
        # x^2 sum_i pi_i x^(i-1) - x sum_i pi_i
        pmf = law.extra_pmf
        total = sum(pmf)

        def fill(x, out, work):
            _horner(pmf, x, out=work)
            np.multiply(x, x, out=out)
            out *= work
            np.multiply(x, total, out=work)
            out -= work
    return fill


@lru_cache(maxsize=256)
def _tail_vector(law: SelectionLaw) -> tuple[float, ...]:
    m = len(law.extra_pmf)
    return tuple(law.extra_tail(k) for k in range(1, m + 1))


@lru_cache(maxsize=256)
def _extra_cdf(law: SelectionLaw) -> tuple[np.ndarray, bool]:
    """Cumulative conditional pmf of K - 1, with an infinity bucket flag.

    Without an infinity bucket the last entry is +inf, so that a uniform
    past the rounded total lands in the last bucket, not beyond it.
    """
    cdf = np.cumsum(np.asarray(law.extra_pmf, dtype=float))
    has_inf = law.extra_inf_mass > 0.0
    if len(cdf) and not has_inf:
        cdf[-1] = np.inf
    return cdf, has_inf


def sample_extra(law: SelectionLaw, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw K - 1 from the conditional law; -1 encodes infinity."""
    if law.geometric_param is not None:
        return rng.geometric(1.0 - law.geometric_param, size=size).astype(np.int64)
    cdf, has_inf = _extra_cdf(law)
    ks = cdf.searchsorted(rng.random(size), side="right").astype(np.int64,
                                                                  copy=False)
    ks += 1
    if has_inf:
        ks[ks > len(cdf)] = -1
    return ks


def parent_total_pmf(law: SelectionLaw, n_max: int) -> np.ndarray:
    """P(K_1 + ... + K_n = t) at row n - 1, column t, for n = 1..n_max:
    the law of ``sample_parent_total``'s draw for n individuals, with
    K = infinity left out, so row n - 1 sums to (1 - inf_mass)^n.

    Rows are convolution powers of K's pmf, a geometric law cut where
    ``pgf`` cuts it; each row drops its trailing mass below 1e-18.
    """
    if law.geometric_param is not None:
        s = law.geometric_param
        extra = (1.0 - s) * s ** np.arange(_geom_terms(s))
    else:
        extra = np.asarray(law.extra_pmf, dtype=float)
    k_pmf = np.concatenate(([0.0, 1.0 - law.multi_prob],
                            law.multi_prob * extra))
    rows = [_trimmed(k_pmf)]
    while len(rows) < n_max:
        rows.append(_trimmed(np.convolve(rows[-1], k_pmf)))
    out = np.zeros((n_max, max(row.size for row in rows)))
    for n, row in enumerate(rows):
        out[n, :row.size] = row
    return out


def _trimmed(pmf: np.ndarray) -> np.ndarray:
    """pmf without its trailing mass below 1e-18, keeping entry 0."""
    tail = np.cumsum(pmf[::-1])
    return pmf[:max(1, pmf.size - np.count_nonzero(tail < 1e-18))]


def sample_parent_total(law: SelectionLaw, sizes, rng: np.random.Generator):
    """Total K of each group of ``sizes`` individuals, or -1 for a group
    where one K is infinite.  ``sizes`` is an int, which gives an int, or
    a 1-d array of group sizes.

    One uniform per individual decides K > 1 (probability multi_prob);
    those individuals draw K - 1 with one ``sample_extra`` call.
    """
    counts = np.atleast_1d(np.asarray(sizes, dtype=np.int64))
    total = counts.copy()
    if law.multi_prob > 0.0:
        coins = rng.random(int(counts.sum())) < law.multi_prob
        multi = _segment_sums(coins, counts)
        if multi.any():
            extra = sample_extra(law, int(multi.sum()), rng)
            total += _segment_sums(extra, multi)
            total[_segment_sums(extra < 0, multi) > 0] = -1
    return int(total[0]) if np.ndim(sizes) == 0 else total


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of the consecutive runs of ``values`` with lengths ``counts``."""
    acc = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=acc[1:])
    ends = counts.cumsum()
    return acc[ends] - acc[ends - counts]
