"""Ranked-simplex points and the measures driving skewed reproduction events.

A point z = (z_1 >= z_2 >= ... > 0) with sum(z) <= 1 lives on the ranked
infinite simplex.  It describes a single extreme reproduction event: z_i
is the fraction of the next generation claimed by the i-th largest
family and the leftover 1 - sum(z) is spread over singleton picks.
Points are stored with finite support; zeros are never stored.

Measures on the simplex come in four parametric families:

* ``FiniteAtomic``   -- a finite list of weighted atoms,
* ``LambdaDirac``    -- all mass on the one-atom point [y],
* ``LambdaBeta``     -- one-atom points [y] with y Beta(a, b) distributed,
* ``StickBreaking``  -- residual stick-breaking from an i.i.d. stick law.

The coalescent intensity divides out sum(z^2), the pair-merger weight,
and truncates small events at a floor:

    mass(floor) = integral over {z_1 >= floor} of measure(dz) / sum(z^2).

Atomic families evaluate this exactly, the Beta family by adaptive
quadrature (relative tolerance 1e-9), stick-breaking by Monte Carlo with
a reported standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import integrate
from scipy.special import betaln
from scipy.stats import beta as beta_dist

#: slack allowed on the constraint sum(z) <= 1
MASS_TOL = 1e-12

_QUAD_RTOL = 1e-9
_MC_SAMPLES = 100_000
_MC_SEED = 0x5EED  # deterministic default stream for MC-backed integrals


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

    def normalized(self) -> tuple[float, ...]:
        """Group fractions z_i / sum(z).  Needs total > 0."""
        tot = self.total
        if tot <= 0.0:
            raise ValueError("cannot normalize the zero point")
        return tuple(m / tot for m in self.masses)

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


@dataclass(frozen=True)
class LambdaDirac:
    """All mass on the single one-atom point [y], 0 < y <= 1."""

    y: float
    total_mass: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.y <= 1.0):
            raise ValueError("y must lie in (0, 1]")
        if self.total_mass <= 0.0:
            raise ValueError("total_mass must be positive")


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


XiMeasure = Union[FiniteAtomic, LambdaDirac, LambdaBeta, StickBreaking]


@dataclass(frozen=True)
class TruncatedIntensity:
    """Result of truncating a measure at a small-event floor.

    ``mass`` is the integral of 1/sum(z^2) over {z_1 >= floor};
    ``method`` records how it was computed ("exact", "quadrature" or
    "mc"); ``std_error`` is set for the MC backend only.
    """

    base: XiMeasure
    floor: float
    mass: float
    method: str
    std_error: float | None = None


def total_mass(measure: XiMeasure) -> float:
    if isinstance(measure, FiniteAtomic):
        return sum(w for w, _ in measure.atoms)
    return measure.total_mass


def normalized(measure: XiMeasure) -> XiMeasure:
    """Scale the measure to total mass 1 (same family, same shape)."""
    tot = total_mass(measure)
    if isinstance(measure, FiniteAtomic):
        return FiniteAtomic(tuple((w / tot, z) for w, z in measure.atoms))
    if isinstance(measure, LambdaDirac):
        return LambdaDirac(measure.y, 1.0)
    if isinstance(measure, LambdaBeta):
        return LambdaBeta(measure.a, measure.b, 1.0)
    return StickBreaking(measure.stick_law, measure.a, measure.b, 1.0,
                         measure.truncation_tol)


def as_atoms(measure: XiMeasure) -> tuple[tuple[float, SimplexPoint], ...] | None:
    """The measure as a finite atom list, or None for continuous families."""
    if isinstance(measure, FiniteAtomic):
        return measure.atoms
    if isinstance(measure, LambdaDirac):
        return ((measure.total_mass, SimplexPoint((measure.y,))),)
    return None


def sample_point(measure: XiMeasure, rng: np.random.Generator) -> SimplexPoint:
    """Draw one point from the normalized measure."""
    if isinstance(measure, FiniteAtomic):
        weights = np.array([w for w, _ in measure.atoms])
        idx = rng.choice(len(weights), p=weights / weights.sum())
        return measure.atoms[idx][1]
    if isinstance(measure, LambdaDirac):
        return SimplexPoint((measure.y,))
    if isinstance(measure, LambdaBeta):
        y = float(rng.beta(measure.a, measure.b))
        return SimplexPoint.ranked([y])
    return _sample_sticks(measure, rng)


def _sample_sticks(measure: StickBreaking, rng: np.random.Generator) -> SimplexPoint:
    masses = []
    remaining = 1.0
    for _ in range(1_000_000):
        if remaining < measure.truncation_tol:
            return SimplexPoint.ranked(masses)
        if measure.stick_law == "uniform":
            y = rng.random()
        else:
            y = float(rng.beta(measure.a, measure.b))
            y = min(y, 1.0 - 1e-16)
        masses.append(y * remaining)
        remaining *= 1.0 - y
    raise RuntimeError("stick-breaking did not terminate; raise truncation_tol")


def _beta_over_square(a: float, b: float):
    """Beta(a, b) density divided by y^2, as a cheap scalar callable."""
    ln_b = float(betaln(a, b))

    def f(y: float) -> float:
        return math.exp((a - 1.0) * math.log(y) + (b - 1.0) * math.log1p(-y)
                        - ln_b - 2.0 * math.log(y))

    return f


def intensity_mass(measure: XiMeasure, floor: float, *,
                   mc_samples: int = _MC_SAMPLES,
                   rng: np.random.Generator | None = None) -> float:
    """Integral of 1/sum(z^2) over {z_1 >= floor} against the measure."""
    mass, _, _ = _intensity(measure, floor, mc_samples, rng)
    return mass


def _intensity(measure: XiMeasure, floor: float, mc_samples: int,
               rng: np.random.Generator | None) -> tuple[float, str, float | None]:
    if floor < 0.0 or floor > 1.0:
        raise ValueError("floor must lie in [0, 1]")
    atoms = as_atoms(measure)
    if atoms is not None:
        mass = sum(w / z.sum_sq for w, z in atoms if z.masses[0] >= floor)
        return mass, "exact", None
    if isinstance(measure, LambdaBeta):
        if floor == 0.0 and measure.a <= 2.0:
            raise ValueError("infinite-intensity: floor required")
        f = _beta_over_square(measure.a, measure.b)
        lo = floor if floor > 0.0 else 0.0
        val, _err = integrate.quad(f, lo, 1.0, epsabs=1e-12, epsrel=_QUAD_RTOL,
                                   limit=200)
        return measure.total_mass * val, "quadrature", None
    # stick-breaking: Monte Carlo with a reported standard error
    if floor <= 0.0:
        raise ValueError("infinite-intensity: floor required")
    if rng is None:
        rng = np.random.default_rng(_MC_SEED)
    vals = np.empty(mc_samples)
    for i in range(mc_samples):
        z = _sample_sticks(measure, rng)
        vals[i] = (1.0 / z.sum_sq) if (len(z) and z.masses[0] >= floor) else 0.0
    mass = measure.total_mass * float(vals.mean())
    se = measure.total_mass * float(vals.std(ddof=1) / math.sqrt(mc_samples))
    return mass, "mc", se


def truncate_alpha(measure: XiMeasure, pop_size: int, alpha: float, *,
                   mc_samples: int = _MC_SAMPLES,
                   rng: np.random.Generator | None = None) -> TruncatedIntensity:
    """Truncate at the polynomial floor pop_size ** -alpha, 0 < alpha < 1/2.

    The returned mass never exceeds total_mass * pop_size ** (2 * alpha),
    since 1/sum(z^2) <= 1/z_1^2 <= pop_size ** (2*alpha) on the kept set.
    """
    if pop_size < 2:
        raise ValueError("pop_size must be at least 2")
    if not (0.0 < alpha < 0.5):
        raise ValueError("alpha must lie in (0, 1/2)")
    floor = float(pop_size) ** (-alpha)
    mass, method, se = _intensity(measure, floor, mc_samples, rng)
    return TruncatedIntensity(measure, floor, mass, method, se)


def small_mass_gap(measure: XiMeasure, pop_size: int, alpha: float, x: float, *,
                   mc_samples: int = _MC_SAMPLES,
                   rng: np.random.Generator | None = None) -> float:
    """x(1-x) times the measure of the discarded sliver {z_1 < pop_size**-alpha}.

    This is the exact variance deficit, at frequency x, between pair
    interactions under the full measure and under its truncation.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if pop_size < 2:
        raise ValueError("pop_size must be at least 2")
    if not (0.0 < alpha < 0.5):
        raise ValueError("alpha must lie in (0, 1/2)")
    floor = float(pop_size) ** (-alpha)
    atoms = as_atoms(measure)
    if atoms is not None:
        sliver = sum(w for w, z in atoms if z.masses[0] < floor)
    elif isinstance(measure, LambdaBeta):
        sliver = measure.total_mass * float(beta_dist.cdf(floor, measure.a, measure.b))
    else:
        if rng is None:
            rng = np.random.default_rng(_MC_SEED)
        hits = 0
        for _ in range(mc_samples):
            z = sample_point(measure, rng)
            if len(z) == 0 or z.masses[0] < floor:
                hits += 1
        sliver = measure.total_mass * hits / mc_samples
    return x * (1.0 - x) * sliver


def admissibility_index(z: SimplexPoint, c: float) -> int:
    """Smallest k with z_1 + ... + z_k > (1 - c) * sum(z)."""
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    tot = z.total
    if tot <= 0.0:
        raise ValueError("undefined for the zero point")
    threshold = (1.0 - c) * tot
    partial = 0.0
    for k, m in enumerate(z.masses, start=1):
        partial += m
        if partial > threshold:
            return k
    return len(z)  # unreachable for c in (0, 1); kept for fp safety


def admissibility_diagnostic(measure: XiMeasure, sizes=(16, 64, 256, 1024), *,
                             c_of_n=None, samples: int = 2000,
                             rng: np.random.Generator | None = None) -> list[dict]:
    """Empirical probe of how fast the covering index grows with sample size.

    For each n, draws points and reports the mean of
    admissibility_index(Z, c_n) / sqrt(n) with c_n = c_of_n(n)
    (default n ** -2).  A ratio drifting to 0 is consistent with the index
    growing slower than sqrt(n).  This is a diagnostic, never a proof.
    """
    if rng is None:
        rng = np.random.default_rng(_MC_SEED)
    if c_of_n is None:
        c_of_n = lambda n: float(n) ** -2
    rows = []
    for n in sizes:
        c = c_of_n(n)
        ratios = np.empty(samples)
        for i in range(samples):
            z = sample_point(measure, rng)
            ratios[i] = admissibility_index(z, c) / math.sqrt(n)
        rows.append({
            "n": int(n),
            "c": float(c),
            "mean_ratio": float(ratios.mean()),
            "std_error": float(ratios.std(ddof=1) / math.sqrt(samples)),
        })
    return rows


class TruncatedSampler:
    """Draws from the floor-truncated, 1/sum(z^2)-weighted jump law.

    ``rate`` is the total event intensity (same number as
    ``intensity_mass(measure, floor)``).  Atomic families are exact; the
    Beta family uses a fine inverse-CDF grid on [floor, 1]; stick-breaking
    uses a weighted sample pool, which is a documented approximation.
    ``draw`` returns one point, ``draw_masses`` many as a mass matrix.
    """

    def __init__(self, measure: XiMeasure, floor: float, *,
                 grid_size: int = 4096, pool_size: int = 100_000,
                 rng: np.random.Generator | None = None):
        self.measure = measure
        self.floor = float(floor)
        atoms = as_atoms(measure)
        self._atoms = None
        self._atom_matrix = None
        self._grid = None
        self._pool = None
        if atoms is not None:
            kept = [(w / z.sum_sq, z) for w, z in atoms if z.masses[0] >= floor]
            self.rate = sum(w for w, _ in kept)
            if kept:
                probs = np.array([w for w, _ in kept]) / self.rate
                self._atoms = ([z for _, z in kept], probs)
                self._atom_matrix = _padded([z.masses for _, z in kept])
            return
        if isinstance(measure, LambdaBeta):
            if floor <= 0.0:
                raise ValueError("infinite-intensity: floor required")
            self.rate = intensity_mass(measure, floor)
            ys = np.linspace(floor, 1.0 - 1e-12, grid_size)
            f = _beta_over_square(measure.a, measure.b)
            dens = np.array([f(y) for y in ys])
            cell = 0.5 * (dens[1:] + dens[:-1]) * np.diff(ys)
            cdf = np.concatenate([[0.0], np.cumsum(cell)])
            cdf /= cdf[-1]
            self._grid = (ys, cdf)
            return
        # stick-breaking pool
        if floor <= 0.0:
            raise ValueError("infinite-intensity: floor required")
        if rng is None:
            rng = np.random.default_rng(_MC_SEED)
        points = [_sample_sticks(measure, rng) for _ in range(pool_size)]
        weights = np.array([
            (1.0 / z.sum_sq) if (len(z) and z.masses[0] >= floor) else 0.0
            for z in points])
        self.rate = measure.total_mass * float(weights.mean())
        if weights.sum() > 0.0:
            self._pool = (points, weights / weights.sum())

    def draw(self, rng: np.random.Generator) -> SimplexPoint:
        if self._atoms is not None:
            points, probs = self._atoms
            return points[rng.choice(len(points), p=probs)]
        if self._grid is not None:
            ys, cdf = self._grid
            u = rng.random()
            j = int(np.searchsorted(cdf, u, side="right")) - 1
            j = min(max(j, 0), len(ys) - 2)
            span = cdf[j + 1] - cdf[j]
            frac = (u - cdf[j]) / span if span > 0.0 else 0.5
            return SimplexPoint((float(ys[j] + frac * (ys[j + 1] - ys[j])),))
        if self._pool is not None:
            points, probs = self._pool
            return points[rng.choice(len(points), p=probs)]
        raise ValueError("truncated measure has no mass above the floor")

    def draw_masses(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` points as a zero-padded (size, width) mass matrix: width
        is the largest atom support, 1 for Beta, the widest pool point drawn."""
        if self._atoms is not None:
            _, probs = self._atoms
            return self._atom_matrix[rng.choice(len(probs), size=size, p=probs)]
        if self._grid is not None:
            # ``draw``'s inverse CDF; with cdf[0] = 0 <= u < 1 = cdf[-1] and
            # side="right", j lands in a cell of positive width: no guards
            ys, cdf = self._grid
            u = rng.random(size)
            j = np.searchsorted(cdf, u, side="right") - 1
            frac = (u - cdf[j]) / (cdf[j + 1] - cdf[j])
            return (ys[j] + frac * (ys[j + 1] - ys[j]))[:, None]
        if self._pool is not None:
            points, probs = self._pool
            which = rng.choice(len(points), size=size, p=probs)
            return _padded([points[i].masses for i in which])
        raise ValueError("truncated measure has no mass above the floor")

    @property
    def atom_points(self) -> list[SimplexPoint] | None:
        return self._atoms[0] if self._atoms is not None else None


def _padded(rows) -> np.ndarray:
    """Mass tuples stacked into one matrix, each row zero-padded."""
    width = max(map(len, rows))
    return np.array([m + (0.0,) * (width - len(m)) for m in rows])
