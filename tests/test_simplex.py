import itertools
import math

import numpy as np
import pytest

from cannings import (FiniteAtomic, LambdaBeta, LambdaDirac, SimplexPoint,
                      StickBreaking, TruncatedSampler, admissibility_diagnostic,
                      admissibility_index, intensity_mass, normalized,
                      sample_point, small_mass_gap, total_mass, truncate_alpha)

ATOM_PAIR = FiniteAtomic(((2.0, SimplexPoint.ranked([0.3, 0.2])),
                          (1.0, SimplexPoint.ranked([0.5]))))


# ---------------------------------------------------------------------------
# SimplexPoint


def test_point_validation():
    z = SimplexPoint((0.5, 0.3))
    assert z.total == 0.8
    assert abs(z.residual - 0.2) < 1e-15
    assert abs(z.sum_sq - 0.34) < 1e-15          # 0.25 + 0.09
    assert z.normalized() == pytest.approx((0.625, 0.375))  # 0.5/0.8, 0.3/0.8
    with pytest.raises(ValueError):
        SimplexPoint((0.3, 0.5))                 # not sorted
    with pytest.raises(ValueError):
        SimplexPoint((0.5, 0.0))                 # zeros are not stored
    with pytest.raises(ValueError):
        SimplexPoint((0.7, 0.7))                 # mass above 1


def test_ranked_sorts_and_drops_zeros():
    z = SimplexPoint.ranked([0.1, 0.0, 0.4, 0.2])
    assert z.masses == (0.4, 0.2, 0.1)


# ---------------------------------------------------------------------------
# sampling


def test_lambda_dirac_sampling_is_constant():
    rng = np.random.default_rng(0)
    measure = LambdaDirac(0.5)
    for _ in range(10):
        assert sample_point(measure, rng).masses == (0.5,)


def test_finite_atomic_frequencies_within_3_se():
    # weights 2:1 -> probabilities 2/3 and 1/3
    rng = np.random.default_rng(42)
    draws = 100_000
    hits = sum(1 for _ in range(draws)
               if len(sample_point(ATOM_PAIR, rng)) == 2)
    p_hat = hits / draws
    se = math.sqrt((2 / 3) * (1 / 3) / draws)
    assert abs(p_hat - 2 / 3) <= 3 * se


@pytest.mark.parametrize("measure", [
    StickBreaking(),                               # uniform sticks
    StickBreaking(stick_law="beta", a=2.0, b=5.0),
    LambdaBeta(2.0, 3.0),
])
def test_sampled_points_sorted_with_bounded_mass(measure):
    rng = np.random.default_rng(7)
    for _ in range(100_000 if isinstance(measure, StickBreaking) else 1_000):
        z = sample_point(measure, rng)
        masses = np.asarray(z.masses)
        assert np.all(masses[:-1] >= masses[1:])
        assert np.all(masses > 0.0)
        assert masses.sum() <= 1.0 + 1e-12


def test_normalized_rescales_total_mass():
    measure = LambdaDirac(0.5, total_mass=3.0)
    assert total_mass(normalized(measure)) == 1.0
    assert total_mass(normalized(ATOM_PAIR)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# truncated intensities


def test_truncate_alpha_dirac_hand_values():
    # floor = 16^(-1/2) = 0.25; mass = 1 / 0.5^2 = 4
    res = truncate_alpha(LambdaDirac(0.5), 16, 0.499999999)
    assert abs(res.floor - 0.25) < 1e-6
    assert abs(res.mass - 4.0) < 1e-6
    assert res.method == "exact"
    # the atom at 0.1 sits below the floor 0.25
    res0 = truncate_alpha(LambdaDirac(0.1), 16, 0.499999999)
    assert res0.mass == 0.0


def test_truncate_alpha_two_atoms():
    # floor = (10^4)^(-0.25) = 0.1; mass = 1/0.25 + 1/0.13 = 11.6923...
    measure = FiniteAtomic(((1.0, SimplexPoint.ranked([0.5])),
                            (1.0, SimplexPoint.ranked([0.3, 0.2]))))
    res = truncate_alpha(measure, 10_000, 0.25)
    assert abs(res.floor - 0.1) < 1e-12
    assert abs(res.mass - (4.0 + 1.0 / 0.13)) < 1e-10


def test_truncate_alpha_mass_bound():
    # mass <= total_mass * N^(2 alpha) for every family
    cases = [LambdaDirac(0.5, 2.0), ATOM_PAIR, LambdaBeta(2.5, 1.5, 1.5),
             StickBreaking(total_mass=0.7)]
    for measure in cases:
        for pop, alpha in ((16, 0.25), (100, 0.4), (1000, 0.45)):
            res = truncate_alpha(measure, pop, alpha)
            bound = total_mass(measure) * pop ** (2 * alpha)
            slack = 3 * res.std_error if res.std_error else 0.0
            assert res.mass <= bound + slack + 1e-9


def test_intensity_mass_hand_values():
    assert abs(intensity_mass(LambdaDirac(0.5), 0.1) - 4.0) < 1e-12
    assert intensity_mass(LambdaDirac(0.5), 0.6) == 0.0
    # an atom exactly at [1.0]: sum of squares is 1, so mass = weight
    full = FiniteAtomic(((1.75, SimplexPoint.ranked([1.0])),))
    assert abs(intensity_mass(full, 1.0) - 1.75) < 1e-12


def test_intensity_mass_monotone_in_floor():
    floors = [0.05, 0.1, 0.2, 0.35, 0.5, 0.8]
    for measure in (ATOM_PAIR, LambdaBeta(2.0, 2.0), LambdaBeta(0.5, 1.0)):
        masses = [intensity_mass(measure, f) for f in floors]
        assert all(a >= b - 1e-9 for a, b in zip(masses, masses[1:]))


def test_intensity_mass_quadrature_against_closed_form():
    # Lambda = Beta(3, 1): density 3 y^2, so the intensity integrand
    # 3 y^2 / y^2 = 3 and the mass above floor f is 3 (1 - f).
    for floor in (0.0, 0.25, 0.5):
        got = intensity_mass(LambdaBeta(3.0, 1.0), floor)
        assert abs(got - 3.0 * (1.0 - floor)) < 1e-7


def test_infinite_intensity_requires_floor():
    with pytest.raises(ValueError, match="infinite-intensity"):
        intensity_mass(LambdaBeta(1.0, 1.0), 0.0)   # a <= 2: divergent at 0
    with pytest.raises(ValueError, match="infinite-intensity"):
        intensity_mass(StickBreaking(), 0.0)


# ---------------------------------------------------------------------------
# admissibility index


def test_admissibility_index_hand_values():
    assert admissibility_index(SimplexPoint.ranked([0.5]), 0.3) == 1
    z = SimplexPoint.ranked([0.3, 0.2, 0.1])
    # thresholds |z|(1-c): c=0.4 -> 0.36, partial sums 0.3, 0.5 -> k=2
    assert admissibility_index(z, 0.4) == 2
    # c=0.05 -> 0.57, partial sums 0.3, 0.5, 0.6 -> k=3
    assert admissibility_index(z, 0.05) == 3


def test_admissibility_index_non_increasing_in_c():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = sample_point(StickBreaking(), rng)
        grid = [0.01, 0.05, 0.1, 0.2, 0.4, 0.8]
        indices = [admissibility_index(z, c) for c in grid]
        assert all(a >= b for a, b in zip(indices, indices[1:]))


def test_admissibility_diagnostic_smoke():
    rng = np.random.default_rng(9)
    report = admissibility_diagnostic(StickBreaking(), sizes=(16, 64),
                                      rng=rng, samples=200)
    assert [row["n"] for row in report] == [16, 64]
    for row in report:
        assert row["mean_ratio"] > 0.0
        assert row["std_error"] >= 0.0
        assert row["c"] == pytest.approx(row["n"] ** -2)


# ---------------------------------------------------------------------------
# small-mass gap (the truncation defect of the jump variance)


def test_small_mass_gap_hand_values():
    # atom at 0.5 survives the floor 0.25: gap 0
    assert small_mass_gap(LambdaDirac(0.5), 16, 0.499999999, 0.5) == 0.0
    # atom at 0.1 is cut: gap = x(1-x) * mass = 0.25
    got = small_mass_gap(LambdaDirac(0.1), 16, 0.499999999, 0.5)
    assert abs(got - 0.25) < 1e-9
    for x in (0.0, 1.0):
        assert small_mass_gap(LambdaDirac(0.1), 16, 0.25, x) == 0.0


def _bernoulli_second_moment(z: SimplexPoint, x: float) -> float:
    """E[(sum_i (B_i - x) z_i)^2] by exact enumeration, B_i iid Bernoulli(x)."""
    total = 0.0
    m = len(z)
    for bits in itertools.product((0, 1), repeat=m):
        prob = 1.0
        acc = 0.0
        for b, zi in zip(bits, z.masses):
            prob *= x if b else (1.0 - x)
            acc += (b - x) * zi
        total += prob * acc * acc
    return total


def test_small_mass_gap_matches_enumerated_difference():
    # The defect of the truncated second moment:
    #   total_mass * E[(sum (B_i - x) Z_i)^2 / sum Z_i^2]     (Z ~ normalized)
    #   - truncated_mass * E[(sum (B_i - x) Z'_i)^2]          (Z' ~ truncated)
    # equals x(1-x) * Xi({z_1 < floor}); both sides computed independently.
    measure = FiniteAtomic(((1.0, SimplexPoint.ranked([0.5])),
                            (0.5, SimplexPoint.ranked([0.3, 0.2])),
                            (2.0, SimplexPoint.ranked([0.05, 0.04, 0.02]))))
    pop, alpha = 10_000, 0.25            # floor 0.1 cuts the third atom
    x = 0.3
    lhs = 0.0
    for weight, z in measure.atoms:
        term = weight * _bernoulli_second_moment(z, x) / z.sum_sq
        if z.masses[0] < 0.1:
            continue_term = 0.0          # dropped from the truncated measure
        else:
            continue_term = term
        lhs += term - continue_term
    rhs = small_mass_gap(measure, pop, alpha, x)
    assert abs(lhs - rhs) < 1e-10
    # and the cut mass is the third atom's weight: x(1-x) * 2.0 = 0.42
    assert abs(rhs - x * (1 - x) * 2.0) < 1e-12


# ---------------------------------------------------------------------------
# TruncatedSampler.draw_masses


def test_draw_masses_beta_uniform_law():
    # LambdaBeta(3, 1): y^(a-3) (1-y)^(b-1) = 1, so the truncated jump law
    # is uniform on [floor, 1]
    floor = 0.01
    sampler = TruncatedSampler(LambdaBeta(3.0, 1.0), floor)
    draws = 200_000
    masses = sampler.draw_masses(draws, np.random.default_rng(21))
    assert masses.shape == (draws, 1)
    y = masses[:, 0]
    assert np.all((y >= floor) & (y <= 1.0))
    width = 1.0 - floor
    mean_se = y.std(ddof=1) / math.sqrt(draws)
    assert abs(y.mean() - (1.0 + floor) / 2.0) <= 3 * mean_se
    # Var of a sample variance: (mu_4 - sigma^4) / n, mu_4 = width^4 / 80
    var = width ** 2 / 12.0
    var_se = math.sqrt((width ** 4 / 80.0 - var ** 2) / draws)
    assert abs(y.var(ddof=1) - var) <= 3 * var_se


def test_draw_masses_two_atom_frequencies():
    # rates w / sum(z^2): 1 / 0.25 = 4 and 1 / 0.2 = 5
    measure = FiniteAtomic(((1.0, SimplexPoint((0.5,))),
                            (1.0, SimplexPoint((0.4, 0.2)))))
    sampler = TruncatedSampler(measure, 0.1)
    draws = 100_000
    masses = sampler.draw_masses(draws, np.random.default_rng(8))
    assert masses.shape == (draws, 2)
    first = np.all(masses == (0.5, 0.0), axis=1)
    assert np.all(first | np.all(masses == (0.4, 0.2), axis=1))
    p = 4.0 / 9.0
    se = math.sqrt(p * (1.0 - p) / draws)
    assert abs(first.mean() - p) <= 3 * se


def test_draw_masses_beta_matches_scalar_draw():
    sampler = TruncatedSampler(LambdaBeta(0.5, 1.5), 1e-3)
    for seed in range(20):
        z = sampler.draw(np.random.default_rng(seed))
        row = sampler.draw_masses(1, np.random.default_rng(seed))
        assert row.shape == (1, 1)
        assert z.masses == (row[0, 0],)


def test_draw_masses_stick_breaking_rows_are_points():
    sampler = TruncatedSampler(StickBreaking(), 0.05, pool_size=2000,
                               rng=np.random.default_rng(3))
    masses = sampler.draw_masses(300, np.random.default_rng(4))
    assert masses.shape[0] == 300
    assert np.all(masses[:, 0] >= 0.05)
    assert np.all(np.diff(masses, axis=1) <= 0.0)
    assert np.all(masses.sum(axis=1) <= 1.0 + 1e-12)
    # padded to the widest point drawn, not to the widest in the pool
    assert np.any(masses[:, -1] > 0.0)
