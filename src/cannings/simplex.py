"""Ranked-simplex points and the measures driving skewed reproduction events.

A point z = (z_1 >= z_2 >= ... > 0) with sum(z) <= 1 lives on the ranked
infinite simplex.  It describes a single extreme reproduction event: z_i
is the fraction of the next generation claimed by the i-th largest
family and the leftover 1 - sum(z) is spread over singleton picks.
Points are stored with finite support; zeros are never stored.

Measures on the simplex come in three parametric families:

* ``FiniteAtomic``   -- a finite list of weighted atoms,
* ``LambdaBeta``     -- one-atom points [y] with y Beta(a, b) distributed,
* ``StickBreaking``  -- residual stick-breaking from an i.i.d. stick law.

``LambdaDirac(y, m)`` builds m delta_[y] as a one-atom ``FiniteAtomic``;
``as_atoms`` gives no measure (None) as the empty atom list: no jumps.

The coalescent intensity divides out sum(z^2), the pair-merger weight,
and truncates small events at a floor:

    rate(floor) = integral over {z_1 >= floor} of measure(dz) / sum(z^2).

``TruncatedSampler`` is the one place that turns a measure and a floor
into this rate, into the cut mass measure({z_1 < floor}), and into
draws from the normalized truncated law; at frequency x the floor drops
x (1 - x) times the cut mass of jump variance.
Atomic families are exact; the Beta family has its rate and cut mass as
incomplete Beta integrals, each summed to full precision from a power
series in y or in 1 - y (``_beta_part``), and exact draws by rejection
from a two-piece power-law envelope; stick-breaking weights a fixed
Monte Carlo pool of points, the same in every build, and reports the
standard error of its rate.

An event at z moves the weak type's frequency x by the one jump map,
``jump_map``: x (1 - sum z) + sum z_i B_i with B_i i.i.d. Bernoulli(x).
``bernoulli_patterns`` lists its exact law over the 2^m adoption
patterns.  ``sample_masses`` is the one point draw, for every family: a
batch of ranked points as one zero-padded mass matrix.  A one-atom law
(delta_z) always gives the point z, so its draws consume no randomness.
``binomial_pmf`` is the forward kernel's binomial law: Binomial(n, p)
children of the weak type.  ``pick_laws`` is the lineage side of the
events: the law of the number of labels drawn after each pick, from one
sweep over the masks of groups already drawn.  The discrete ancestral
kernel and the dual chain's xi law both read it.  ``beta_nodes`` is the
Beta law as weighted one-group atoms, a Gauss-Jacobi rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .mc import McEstimate

#: slack allowed on the constraint sum(z) <= 1
MASS_TOL = 1e-12

_MC_SAMPLES = 100_000
_MC_SEED = 0x5EED  # the fixed stream of the stick-breaking pool
#: largest point whose 2^m adoption patterns ``bernoulli_patterns`` lists
_MAX_ENUM_SUPPORT = 12


@dataclass(frozen=True)
class SimplexPoint:
    """A ranked point: masses sorted decreasingly, all > 0, summing <= 1."""

    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        prev = math.inf
        for m in self.masses:
            if not (0.0 < m <= prev):
                raise ValueError("masses must be positive and non-increasing")
            prev = m
        if sum(self.masses) > 1.0 + MASS_TOL:
            raise ValueError("masses must sum to at most 1")

    @classmethod
    def ranked(cls, values) -> "SimplexPoint":
        """Build a point from arbitrary non-negative values: drop zeros, sort."""
        vals = [float(v) for v in values if v > 0.0]
        vals.sort(reverse=True)
        return cls(tuple(vals))

    @property
    def total(self) -> float:
        return sum(self.masses)

    @property
    def residual(self) -> float:
        return max(0.0, 1.0 - self.total)

    @property
    def sum_sq(self) -> float:
        return sum(m * m for m in self.masses)

    def __len__(self) -> int:
        return len(self.masses)


@dataclass(frozen=True)
class FiniteAtomic:
    """Finitely many weighted atoms; weights > 0, atoms never the zero point."""

    atoms: tuple[tuple[float, SimplexPoint], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("need at least one atom")
        fixed = []
        for w, z in self.atoms:
            if w <= 0.0:
                raise ValueError("atom weights must be positive")
            if not isinstance(z, SimplexPoint):
                z = SimplexPoint(tuple(z))
            if len(z) == 0:
                raise ValueError("atoms at the zero point are not allowed")
            fixed.append((float(w), z))
        object.__setattr__(self, "atoms", tuple(fixed))


def LambdaDirac(y: float, total_mass: float = 1.0) -> FiniteAtomic:
    """All mass on the single one-atom point [y], 0 < y <= 1: one atom."""
    if not (0.0 < y <= 1.0):
        raise ValueError("y must lie in (0, 1]")
    if total_mass <= 0.0:
        raise ValueError("total_mass must be positive")
    return FiniteAtomic(((total_mass, SimplexPoint((y,))),))


@dataclass(frozen=True)
class LambdaBeta:
    """One-atom points [y] with y distributed Beta(a, b), scaled to total_mass."""

    a: float
    b: float
    total_mass: float = 1.0

    def __post_init__(self) -> None:
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("Beta parameters must be positive")
        if self.total_mass <= 0.0:
            raise ValueError("total_mass must be positive")


@dataclass(frozen=True)
class StickBreaking:
    """Residual stick-breaking: Z_n = Y_n * prod_{i<n}(1 - Y_i), Y i.i.d.

    ``stick_law`` is "uniform" (on [0, 1)) or "beta" with parameters
    (a, b).  Generation stops once the unbroken remainder drops below
    ``truncation_tol``; the discarded tail is that small by construction.
    """

    stick_law: str = "uniform"
    a: float = 1.0
    b: float = 1.0
    total_mass: float = 1.0
    truncation_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.stick_law not in ("uniform", "beta"):
            raise ValueError("stick_law must be 'uniform' or 'beta'")
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("Beta parameters must be positive")
        if self.total_mass <= 0.0:
            raise ValueError("total_mass must be positive")
        if not (0.0 < self.truncation_tol < 1.0):
            raise ValueError("truncation_tol must lie in (0, 1)")


XiMeasure = Union[FiniteAtomic, LambdaBeta, StickBreaking]


def total_mass(measure: XiMeasure) -> float:
    if isinstance(measure, FiniteAtomic):
        return sum(w for w, _ in measure.atoms)
    return measure.total_mass


def normalized(measure: XiMeasure) -> XiMeasure:
    """Scale the measure to total mass 1 (same family, same shape)."""
    tot = total_mass(measure)
    if isinstance(measure, FiniteAtomic):
        return FiniteAtomic(tuple((w / tot, z) for w, z in measure.atoms))
    return replace(measure, total_mass=1.0)


def as_atoms(measure: XiMeasure | None
             ) -> tuple[tuple[float, SimplexPoint], ...] | None:
    """The measure's atom list: () without a measure, None if continuous."""
    if isinstance(measure, FiniteAtomic):
        return measure.atoms
    return () if measure is None else None


def beta_nodes(a: float, b: float,
               count: int) -> tuple[tuple[float, SimplexPoint], ...]:
    """The Beta(a, b) law as ``count`` one-group atoms [y_j] with weights
    summing to 1: the Gauss-Jacobi rule, exact for polynomials in y of
    degree < 2 count.  Golub-Welsch: y = (1 + t) / 2 at the eigenvalues t
    of the Jacobi matrix of the weight (1 - t)^(b-1) (1 + t)^(a-1), each
    weight the squared first component of the eigenvector."""
    al, be = b - 1.0, a - 1.0
    n = np.arange(1.0, count)
    s = 2.0 * n + al + be
    # the n = 0 diagonal and (n + al + be) / (s - 1) = 1 at n = 1 are
    # written out: the general forms are 0/0 there at a + b = 2 and 1
    diag = np.append((a - b) / (a + b), (be * be - al * al) / (s * (s + 2.0)))
    ratio = np.divide(n + al + be, s - 1.0, out=np.ones(n.size), where=n > 1)
    root = np.sqrt(4.0 * n * (n + al) * (n + be) * ratio / (s * s * (s + 1.0)))
    t, vectors = np.linalg.eigh(np.diag(diag) + np.diag(root, 1)
                                + np.diag(root, -1))
    weights = vectors[0] ** 2 / (vectors[0] ** 2).sum()
    return tuple((float(w), SimplexPoint((float(y),)))
                 for w, y in zip(weights, (1.0 + t) / 2.0))


def sample_masses(measure: XiMeasure, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """``size`` points from the normalized measure as a zero-padded
    (size, width) matrix of ranked rows; width is the largest atom support,
    1 for Beta, the widest stick-breaking point drawn.  Sticks are drawn a
    column at a time, for each row whose remainder is >= truncation_tol."""
    atoms = as_atoms(measure)
    if atoms is not None:
        weights = np.array([w for w, _ in atoms])
        return _atom_rows(_padded([z.masses for _, z in atoms]),
                          weights / weights.sum(), size, rng)
    if isinstance(measure, LambdaBeta):
        return rng.beta(measure.a, measure.b, size=size)[:, None]
    rows = np.arange(size)          # the rows still breaking sticks
    remaining = np.ones(size)       # their unbroken remainders
    columns = []
    for _ in range(1_000_000):
        live = remaining >= measure.truncation_tol
        if not live.all():
            rows, remaining = rows[live], remaining[live]
        if rows.size == 0:
            break
        if measure.stick_law == "uniform":
            y = rng.random(rows.size)
        else:
            y = np.minimum(rng.beta(measure.a, measure.b, size=rows.size),
                           1.0 - 1e-16)
        columns.append((rows, y * remaining))
        remaining = remaining * (1.0 - y)
    else:
        raise RuntimeError("stick-breaking did not terminate; raise truncation_tol")
    masses = np.zeros((size, len(columns)))
    for j, (at, sticks) in enumerate(columns):
        masses[at, j] = sticks
    masses.sort(axis=1)
    return masses[:, ::-1]


def jump_map(xs: np.ndarray, masses: np.ndarray, coins: np.ndarray,
             residual: np.ndarray | None = None) -> np.ndarray:
    """The extreme-event jump x (1 - sum z) + sum z_i B_i, one row per x.

    ``masses`` holds one point per row, zero-padded, or, for one-group
    points, one mass per x as a 1-D column; each group adopts the weak
    type independently, B_i = [coin_i < x] with ``coins`` uniform on
    [0, 1) in the shape of ``masses``, and the residual keeps the
    frequency x.  Padding columns add nothing.  ``residual``, 1 - sum z
    per row, may be passed by a caller that already has it; the result
    is the same bit for bit.
    """
    if masses.ndim == 1:
        gain = (coins < xs) * masses
        if residual is None:
            residual = 1.0 - masses
    else:
        gain = ((coins < xs[:, None]) * masses).sum(axis=1)
        if residual is None:
            residual = 1.0 - masses.sum(axis=1)
    return gain + xs * residual


def bernoulli_patterns(z: SimplexPoint, x) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of ``jump_map`` at the point z: (probability, value) of
    each of the 2^len(z) group adoption patterns, as arrays of shape
    np.shape(x) + (2^len(z),).  The empty point gives ([1], [x])."""
    m = len(z)
    _require_enumerable(m)
    # row p of bits holds the binary digits of p, most significant first
    bits = (np.arange(2 ** m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    xa = np.asarray(x, dtype=float)[..., None, None]
    probs = np.where(bits, xa, 1.0 - xa).prod(axis=-1)
    return probs, bits @ np.asarray(z.masses) + xa[..., 0] * z.residual


def _require_enumerable(width: int) -> None:
    if width > _MAX_ENUM_SUPPORT:
        raise ValueError(f"atom supports above {_MAX_ENUM_SUPPORT} are too "
                         "large for exact enumeration")


def binomial_pmf(n: int, p) -> np.ndarray:
    """P(Binomial(n, p) = k) for k = 0..n, as an array of shape
    np.shape(p) + (n + 1,).

    Built by Pascal's recurrence P(m, k) = (1-p) P(m-1, k) + p P(m-1, k-1)
    on one row, whose terms are all positive.  Against exact rational
    rows the worst absolute error is 1.2e-15 at n = 50, 5.4e-15 at
    n = 200 and 2.8e-14 at n = 1000, each at p within 1e-9 of 0 or 1;
    p = 0 and p = 1 give exact point masses.
    """
    p = np.asarray(p, dtype=float)[..., None]
    q = 1.0 - p
    row = np.zeros(p.shape[:-1] + (n + 1,))
    row[..., 0] = 1.0
    for m in range(1, n + 1):
        row[..., 1:m + 1] = q * row[..., 1:m + 1] + p * row[..., :m]
        row[..., :1] *= q
    return row


#: the widest atom whose 2^m masks ``pick_laws`` is swept for: the exact
#: kernels refuse wider atoms, and the dual chain draws their candidates
MAX_EXACT_SUPPORT = 3


def pick_laws(events, picks: int, fresh) -> np.ndarray:
    """P(d labels drawn after t picks) at [t, d], t = 0..picks and
    d < len(fresh), for picks at one point drawn from ``events``, a
    sequence of (weight, SimplexPoint).

    A pick joins group i with probability z_i or stays solo.  A solo
    pick, or the first into a group, draws a label, new with probability
    fresh[d] when d labels are drawn; fresh[-1] must be 0 unless
    len(fresh) > picks.  One sweep over state[d, (event, mask)], mask the
    groups whose label is drawn: each event's weight starts on its empty
    mask, the moves (``adopt`` draws a label, ``keep`` joins a drawn
    group) are block-diagonal over the events, and pick t moves only the
    rows d <= t.  Every weight is a probability, so the sweep stays in
    [0, 1] at any size.  It is dense in sum 2^len(z): points wider than
    ``bernoulli_patterns`` takes are refused first.
    """
    _require_enumerable(max(len(z) for _, z in events))
    size = sum(2 ** len(z) for _, z in events)
    adopt, keep = np.zeros((size, size)), np.zeros(size)
    state = np.zeros((len(fresh), size))
    start = 0
    for w, z in events:
        masks = np.arange(2 ** len(z))
        state[0, start] = w
        adopt[start + masks, start + masks] = z.residual
        for i, zi in enumerate(z.masses):
            drawn = (masks >> i) & 1 == 1
            adopt[start + masks[~drawn], start + masks[~drawn] + (1 << i)] = zi
            keep[start + masks[drawn]] += zi
        start += masks.size
    fresh = np.asarray(fresh, dtype=float)[:, None]
    repeats = bool(np.any(fresh != 1.0))  # else every drawn label is new
    out = np.zeros((picks + 1, len(fresh)))
    out[0, 0] = state.sum()
    for t in range(1, picks + 1):
        live = state[:t + 1]
        drawn = live @ adopt
        live *= keep
        if repeats:
            live += (1.0 - fresh[:t + 1]) * drawn
            drawn *= fresh[:t + 1]
        live[1:] += drawn[:-1]
        out[t, :t + 1] = live.sum(axis=1)
    return out


def _beta_part(p: float, q: float, lo: float, hi: float) -> float:
    """Integral of y^(p-1) (1-y)^(q-1) over [lo, hi], 0 <= lo <= hi < 1.

    From lo = 0 (p > 0 there) with q > 1 it is the series of positive
    terms x^p (1-x)^q / p * sum_k (p+q)_k / (p+1)_k x^k, x = hi (DLMF
    8.17.8).  Otherwise it is the binomial series sum_k (1-q)_k / k!
    times the integral of y^(p+k-1), each taken in a form that keeps
    full precision as lo/hi -> 0: hi^s (1 - (lo/hi)^s) / s for s = p + k
    > 0, lo^s ((hi/lo)^s - 1) / s for s < 0 and log(hi/lo) at s = 0.
    Its coefficients have one sign for q <= 1; for q > 1 the first
    ceil(q - 1) alternate, and the sum loses a factor of about
    ((1 + hi) / (1 - hi))^(q-1) of its precision.  Both series stop once
    their tail bound falls below 1e-17 of the sum.
    """
    if lo >= hi:
        return 0.0
    if lo == 0.0 and q > 1.0:
        term, total, k = 1.0, 0.0, 0
        while True:
            total += term
            ratio = (p + q + k) / (p + 1.0 + k) * hi  # decreasing in k
            term *= ratio
            k += 1
            if ratio < 1.0 and term <= 1e-17 * (1.0 - ratio) * total:
                scale = math.exp(p * math.log(hi) + q * math.log1p(-hi))
                return scale / p * total
    log_ratio = math.log(hi / lo) if lo > 0.0 else math.inf
    total, coef, k = 0.0, 1.0, 0
    while coef != 0.0:
        s = p + k
        size = math.inf  # bound on the integral of y^(s-1), for s > 0
        if s > 0.0:
            size = hi ** s / s
            total -= coef * size * math.expm1(-s * log_ratio)
        elif s < 0.0:
            total += coef * lo ** s * math.expm1(s * log_ratio) / s
        else:
            total += coef * log_ratio
        k += 1
        # bounds every later term's ratio to the one before it
        ratio = hi * max(1.0, abs(k - q) / k)
        tail = abs(coef) * size * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
        if tail <= 1e-17 * abs(total):
            break
        coef *= (k - q) / k
    return total


def _beta_fn(a: float, b: float) -> float:
    """The Beta function B(a, b)."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _beta_upper(a: float, b: float, floor: float) -> float:
    """Integral of y^(a-3) (1-y)^(b-1) over [floor, 1]: [floor, c] as a
    series in y and [c, 1] as one in 1 - y.  The split c = max(floor,
    min(1/2, 1/b)) keeps the alternating y series (b > 1) within a factor
    e^2 of full precision and the 1 - y series' ratio at most 1 - c."""
    c = max(floor, min(0.5, 1.0 / b))
    return (_beta_part(a - 2.0, b, floor, c)
            + _beta_part(b, a - 2.0, 0.0, 1.0 - c))


def _beta_cut(a: float, b: float, floor: float) -> float:
    """Beta(a, b) mass of [0, floor]: the series on [0, floor], and above
    floor 1/2 one minus the series on [floor, 1], exact to about 1e-16
    in absolute terms."""
    if floor <= 0.5:
        return _beta_part(a, b, 0.0, floor) / _beta_fn(a, b)
    return 1.0 - _beta_part(b, a, 0.0, 1.0 - floor) / _beta_fn(a, b)


def _beta_envelope(a: float, b: float, floor: float,
                   upper: float) -> tuple[float, ...]:
    """(c, k1, k2, share of the lower piece, acceptance rate) of the
    two-piece envelope of y^(a-3) (1-y)^(b-1) on [floor, 1]: k1 y^(a-3)
    on [floor, c) and k2 (1-y)^(b-1) on [c, 1], c = max(floor, 1/2).
    ``upper`` is the target's mass, ``_beta_upper``."""
    c = max(floor, 0.5)
    k1 = max(1.0, (1.0 - c) ** (b - 1.0))
    k2 = max(1.0, c ** (a - 3.0))
    if a == 2.0:
        low = k1 * math.log(c / floor)
    else:
        low = k1 * (c ** (a - 2.0) - floor ** (a - 2.0)) / (a - 2.0)
    total = low + k2 * (1.0 - c) ** b / b
    return c, k1, k2, low / total, upper / total


def _stick_weights(masses: np.ndarray, floor: float) -> np.ndarray:
    """1/sum(z^2) for each row with z_1 >= floor > 0, else 0."""
    sum_sq = np.einsum("ij,ij->i", masses, masses)
    return np.divide(1.0, sum_sq, out=np.zeros(len(masses)),
                     where=masses[:, 0] >= floor)


class TruncatedSampler:
    """The floor-truncated, 1/sum(z^2)-weighted jump law of a measure.

    ``rate`` is its total mass, the integral of 1/sum(z^2) over
    {z_1 >= floor}: exact for atomic families, an incomplete Beta series
    for Beta (``_beta_upper``; floor 0 only where it is finite, a > 2),
    and for stick-breaking the mean weight of a fixed pool of
    ``pool_size`` points, the same in every build (drawn from the
    ``_MC_SEED`` stream), with its standard error in ``std_error`` (0 for
    the other families).  ``cut_mass`` is the measure of the cut
    set {z_1 < floor}: the cut atoms' weights, the same series for Beta
    (``_beta_cut``), and for stick-breaking the share of pool points
    below the floor.  ``atoms``
    holds an atomic measure's kept atoms as (w / sum(z^2), z), None for
    other families or when no atom is kept, as without a measure (rate 0).
    ``draw_masses`` draws from the normalized law:
    atoms by ``rng.choice`` (one kept atom is tiled, with no draw), Beta
    exactly (see ``_draw_beta``), stick-breaking by resampling the pool
    with its weights.  A build is a function of the measure, the floor and
    ``pool_size``: only ``draw_masses`` takes an rng.
    """

    def __init__(self, measure: XiMeasure | None, floor: float, *,
                 pool_size: int = _MC_SAMPLES):
        if not (0.0 <= floor <= 1.0):
            raise ValueError("floor must lie in [0, 1]")
        self.measure = measure
        self.floor = float(floor)
        self.std_error = 0.0
        self.atoms = self._atom_draw = self._beta = self._pool = None
        atoms = as_atoms(measure)
        if atoms is not None:
            kept = tuple((w / z.sum_sq, z) for w, z in atoms
                         if z.masses[0] >= floor)
            self.rate = sum((w for w, _ in kept), 0.0)
            self.cut_mass = float(sum(w for w, z in atoms if z.masses[0] < floor))
            if kept:
                self.atoms = kept
                self._atom_draw = (_padded([z.masses for _, z in kept]),
                                   np.array([w for w, _ in kept]) / self.rate)
            return
        if floor == 0.0 and not (isinstance(measure, LambdaBeta)
                                 and measure.a > 2.0):
            raise ValueError("infinite-intensity: floor required")
        if isinstance(measure, LambdaBeta):
            a, b = measure.a, measure.b
            upper = _beta_upper(a, b, floor)
            self.rate = measure.total_mass * upper / _beta_fn(a, b)
            self.cut_mass = measure.total_mass * _beta_cut(a, b, floor)
            if upper > 0.0:
                self._beta = _beta_envelope(a, b, floor, upper)
            return
        masses = sample_masses(measure, pool_size,
                               np.random.default_rng(_MC_SEED))
        weights = _stick_weights(masses, floor)
        est = McEstimate.from_samples(weights)
        self.rate = measure.total_mass * est.mean
        self.std_error = measure.total_mass * est.std_error
        cut = np.count_nonzero(masses[:, 0] < floor)
        self.cut_mass = float(measure.total_mass * cut / pool_size)
        if weights.sum() > 0.0:
            self._pool = (masses, np.count_nonzero(masses, axis=1),
                          weights / weights.sum())

    def draw_masses(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` points as a zero-padded (size, width) mass matrix: width
        is the largest atom support, 1 for Beta, the widest pool point drawn."""
        if self._atom_draw is not None:
            return _atom_rows(*self._atom_draw, size, rng)
        if self._beta is not None:
            return self._draw_beta(size, rng)[:, None]
        if self._pool is not None:
            masses, widths, probs = self._pool
            which = rng.choice(len(probs), size=size, p=probs)
            return masses[which, :widths[which].max(initial=0)]
        raise ValueError("truncated measure has no mass above the floor")

    def _draw_beta(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` exact draws from y^(a-3) (1-y)^(b-1) on [floor, 1].

        The envelope splits at c = max(floor, 1/2): k1 y^(a-3) below c,
        k2 (1-y)^(b-1) above, each drawn by its inverse CDF (the log form
        at a = 2).  A proposal is kept with probability target/envelope;
        each round draws (piece, position, coin) uniforms for enough
        proposals to fill the rest on average, until ``size`` are kept.
        """
        a, b = self.measure.a, self.measure.b
        c, k1, k2, p_low, accept = self._beta
        f = self.floor
        kept, need = [np.empty(0)], size
        while need > 0:
            pick, u, coin = rng.random((3, int(need / accept) + 16))
            low = pick < p_low
            high = ~low
            y = np.empty(u.size)
            if a == 2.0:
                y[low] = f * (c / f) ** u[low]
            else:
                lo, hi = f ** (a - 2.0), c ** (a - 2.0)
                y[low] = (lo + u[low] * (hi - lo)) ** (1.0 / (a - 2.0))
            y[high] = 1.0 - (1.0 - c) * (1.0 - u[high]) ** (1.0 / b)
            keep = np.empty(u.size, dtype=bool)
            keep[low] = coin[low] * k1 <= (1.0 - y[low]) ** (b - 1.0)
            keep[high] = coin[high] * k2 <= y[high] ** (a - 3.0)
            kept.append(y[keep][:need])
            need -= kept[-1].size
        # the power form can round one unit in the last place below f
        return np.maximum(np.concatenate(kept), f)


def _atom_rows(matrix: np.ndarray, probs: np.ndarray, size: int,
               rng: np.random.Generator) -> np.ndarray:
    """``size`` rows of ``matrix``, row i with probability probs[i], drawn
    by ``rng.choice(len(probs), size=size, p=probs)``.  One row is a
    constant: it is tiled, and ``rng`` is not touched."""
    if len(probs) == 1:
        return np.repeat(matrix, size, axis=0)
    return matrix[rng.choice(len(probs), size=size, p=probs)]


def _padded(rows) -> np.ndarray:
    """Mass tuples stacked into one matrix, each row zero-padded."""
    width = max(map(len, rows))
    return np.array([m + (0.0,) * (width - len(m)) for m in rows])
