import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betaln
from scipy.stats import binom, chisquare

from cannings import (FiniteAtomic, LambdaBeta, LambdaDirac, SimplexPoint,
                      StickBreaking, TruncatedSampler, bernoulli_patterns,
                      binomial_pmf, jump_map, normalized, sample_masses,
                      total_mass)
from cannings.limit_sde import normalized_draws
from cannings.simplex import _MC_SEED, pick_laws

ATOM_PAIR = FiniteAtomic(((2.0, SimplexPoint.ranked([0.3, 0.2])),
                          (1.0, SimplexPoint.ranked([0.5]))))


# ---------------------------------------------------------------------------
# SimplexPoint


def test_point_validation():
    z = SimplexPoint((0.5, 0.3))
    assert z.total == 0.8
    assert abs(z.residual - 0.2) < 1e-15
    assert abs(z.sum_sq - 0.34) < 1e-15          # 0.25 + 0.09
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
    assert sample_masses(measure, 10, rng).tolist() == [[0.5]] * 10


def test_finite_atomic_frequencies_within_3_se():
    # weights 2:1 -> probabilities 2/3 and 1/3
    rng = np.random.default_rng(42)
    draws = 100_000
    hits = np.count_nonzero(sample_masses(ATOM_PAIR, draws, rng)[:, 1] > 0.0)
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
    draws = 100_000 if isinstance(measure, StickBreaking) else 1_000
    masses = sample_masses(measure, draws, rng)
    assert masses.shape[0] == draws
    # ranked rows: positive masses first, then zero padding
    assert np.all(np.diff(masses, axis=1) <= 0.0)
    assert np.all(masses[:, 0] > 0.0) and np.all(masses >= 0.0)
    assert np.all(masses.sum(axis=1) <= 1.0 + 1e-12)


@pytest.mark.parametrize("measure, sum_sq", [
    (StickBreaking(), 1.0 / 2.0),                            # Y ~ U[0, 1)
    (StickBreaking(stick_law="beta", a=2.0, b=5.0), 3.0 / 13.0),
])
def test_stick_sum_of_squares_closed_form(measure, sum_sq):
    # E[sum Z_n^2] = E[Y^2] / (1 - E[(1 - Y)^2]): 1/2 for uniform sticks,
    # (3/28) / (13/28) = 3/13 for Beta(2, 5) sticks
    masses = sample_masses(measure, 100_000, np.random.default_rng(11))
    sq = (masses * masses).sum(axis=1)
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - sum_sq) <= 3 * se


def test_uniform_sticks_largest_group_golomb_dickman():
    # the largest uniform-stick mass is the largest Poisson-Dirichlet(1)
    # component: its mean is the Golomb-Dickman constant
    masses = sample_masses(StickBreaking(), 100_000, np.random.default_rng(12))
    first = masses[:, 0]
    se = first.std(ddof=1) / math.sqrt(first.size)
    assert abs(first.mean() - 0.6243299885) <= 3 * se


def test_normalized_rescales_total_mass():
    measure = LambdaDirac(0.5, total_mass=3.0)
    assert total_mass(normalized(measure)) == 1.0
    assert total_mass(normalized(ATOM_PAIR)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# truncated intensities


def test_sampler_at_power_floor_dirac_hand_values():
    # floor = 16^(-1/2) = 0.25; mass = 1 / 0.5^2 = 4
    res = TruncatedSampler(LambdaDirac(0.5), 16 ** -0.499999999)
    assert abs(res.floor - 0.25) < 1e-6
    assert abs(res.rate - 4.0) < 1e-6
    # the atom at 0.1 sits below the floor 0.25
    res0 = TruncatedSampler(LambdaDirac(0.1), 16 ** -0.499999999)
    assert res0.rate == 0.0


def test_sampler_at_power_floor_two_atoms():
    # floor = (10^4)^(-0.25) = 0.1; mass = 1/0.25 + 1/0.13 = 11.6923...
    measure = FiniteAtomic(((1.0, SimplexPoint.ranked([0.5])),
                            (1.0, SimplexPoint.ranked([0.3, 0.2]))))
    res = TruncatedSampler(measure, 10_000 ** -0.25)
    assert abs(res.floor - 0.1) < 1e-12
    assert abs(res.rate - (4.0 + 1.0 / 0.13)) < 1e-10


def test_sampler_at_power_floor_rate_bound():
    # at the floor N^-alpha, rate <= total_mass * N^(2 alpha) for every
    # family, since 1/sum(z^2) <= 1/z_1^2 <= N^(2 alpha) on the kept set
    cases = [LambdaDirac(0.5, 2.0), ATOM_PAIR, LambdaBeta(2.5, 1.5, 1.5),
             StickBreaking(total_mass=0.7)]
    for measure in cases:
        for pop, alpha in ((16, 0.25), (100, 0.4), (1000, 0.45)):
            res = TruncatedSampler(measure, pop ** -alpha)
            bound = total_mass(measure) * pop ** (2 * alpha)
            assert res.rate <= bound + 3 * res.std_error + 1e-9


def rate(measure, floor):
    return TruncatedSampler(measure, floor).rate


def test_intensity_mass_hand_values():
    assert abs(rate(LambdaDirac(0.5), 0.1) - 4.0) < 1e-12
    assert rate(LambdaDirac(0.5), 0.6) == 0.0
    # an atom exactly at [1.0]: sum of squares is 1, so mass = weight
    full = FiniteAtomic(((1.75, SimplexPoint.ranked([1.0])),))
    assert abs(rate(full, 1.0) - 1.75) < 1e-12


def test_intensity_mass_monotone_in_floor():
    floors = [0.05, 0.1, 0.2, 0.35, 0.5, 0.8]
    for measure in (ATOM_PAIR, LambdaBeta(2.0, 2.0), LambdaBeta(0.5, 1.0)):
        masses = [rate(measure, f) for f in floors]
        assert all(a >= b - 1e-9 for a, b in zip(masses, masses[1:]))


def test_intensity_mass_quadrature_against_closed_form():
    # Lambda = Beta(3, 1): density 3 y^2, so the intensity integrand
    # 3 y^2 / y^2 = 3 and the mass above floor f is 3 (1 - f).
    for floor in (0.0, 0.25, 0.5):
        got = rate(LambdaBeta(3.0, 1.0), floor)
        assert abs(got - 3.0 * (1.0 - floor)) < 1e-7


def test_beta_intensity_closed_form_against_quadrature():
    # integral over [floor, 1] of y^(a-3) (1-y)^(b-1) / B(a, b), by quad
    # with the (1-y)^(b-1) endpoint factor as its algebraic weight
    worst = 0.0
    for a in (0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
        for b in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0):
            for floor in (0.0, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9):
                if floor == 0.0 and a <= 2.0:
                    continue
                ref, _ = integrate.quad(lambda y: y ** (a - 3.0), floor, 1.0,
                                        weight="alg", wvar=(0.0, b - 1.0),
                                        epsabs=0.0, epsrel=1e-13, limit=200)
                ref *= 2.5 * math.exp(-betaln(a, b))
                got = rate(LambdaBeta(a, b, 2.5), floor)
                worst = max(worst, abs(got - ref) / ref)
    assert worst < 1e-10, worst


@pytest.mark.parametrize("n", [0, 1, 6, 60, 1000, 2000])
def test_binomial_pmf_against_scipy(n):
    for p in (0.0, 1e-3, 0.3, 0.5, 0.97, 1.0):
        for m in (n, n // 2):
            row = binomial_pmf(m, p)
            assert row.shape == (m + 1,)
            ref = binom.pmf(np.arange(m + 1), m, p)
            assert np.abs(row - ref).max() <= 1e-14, (m, p)
    # array p broadcasts ahead of the k axis
    ps = np.array([[0.1, 0.7]])
    assert np.array_equal(binomial_pmf(3, ps)[0, 1], binomial_pmf(3, 0.7))


def _exact_binomial_row(n, p):
    """P(Binomial(n, p) = k), k = 0..n, exact in rationals for the float p
    and rounded once to float."""
    p = Fraction(p)
    q = 1 - p
    p_pows, q_pows = [Fraction(1)], [Fraction(1)]
    for _ in range(n):
        p_pows.append(p_pows[-1] * p)
        q_pows.append(q_pows[-1] * q)
    return np.array([float(math.comb(n, k) * p_pows[k] * q_pows[n - k])
                     for k in range(n + 1)])


@pytest.mark.parametrize("n", [50, 200])
def test_binomial_pmf_against_exact_rationals(n):
    # Pascal's recurrence within 1e-14 absolute of the exact row, tails
    # near p = 0 and 1 included; p = 0 and 1 give exact point masses
    for p in (0.0, 1.0, 1e-9, 1.0 - 1e-9, 2.0 ** -30, 0.3):
        row = binomial_pmf(n, p)
        assert np.abs(row - _exact_binomial_row(n, p)).max() <= 1e-14, (n, p)
    assert np.array_equal(binomial_pmf(n, 0.0), np.eye(n + 1)[0])
    assert np.array_equal(binomial_pmf(n, 1.0), np.eye(n + 1)[n])


def test_infinite_intensity_requires_floor():
    with pytest.raises(ValueError, match="infinite-intensity"):
        rate(LambdaBeta(1.0, 1.0), 0.0)   # a <= 2: divergent at 0
    with pytest.raises(ValueError, match="infinite-intensity"):
        rate(LambdaBeta(2.0, 1.0), 0.0)
    with pytest.raises(ValueError, match="infinite-intensity"):
        rate(StickBreaking(), 0.0)
    with pytest.raises(ValueError, match="floor must lie"):
        rate(LambdaDirac(0.5), 1.5)


# ---------------------------------------------------------------------------
# cut mass (x(1-x) times it is the truncation defect of the jump variance)


def variance_gap(measure, floor, x):
    return x * (1 - x) * TruncatedSampler(measure, floor).cut_mass


def test_small_mass_gap_hand_values():
    # atom at 0.5 survives the floor 0.25: gap 0
    assert variance_gap(LambdaDirac(0.5), 16 ** -0.499999999, 0.5) == 0.0
    # atom at 0.1 is cut: gap = x(1-x) * mass = 0.25
    got = variance_gap(LambdaDirac(0.1), 16 ** -0.499999999, 0.5)
    assert abs(got - 0.25) < 1e-9
    for x in (0.0, 1.0):
        assert variance_gap(LambdaDirac(0.1), 16 ** -0.25, x) == 0.0


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
    floor = 10_000 ** -0.25              # 0.1 cuts the third atom
    x = 0.3
    lhs = 0.0
    for weight, z in measure.atoms:
        term = weight * _bernoulli_second_moment(z, x) / z.sum_sq
        if z.masses[0] < 0.1:
            continue_term = 0.0          # dropped from the truncated measure
        else:
            continue_term = term
        lhs += term - continue_term
    rhs = variance_gap(measure, floor, x)
    assert abs(lhs - rhs) < 1e-10
    # and the cut mass is the third atom's weight: x(1-x) * 2.0 = 0.42
    assert abs(rhs - x * (1 - x) * 2.0) < 1e-12


@pytest.mark.parametrize("floor", [1e-3, 0.05])
def test_beta_cut_mass_against_quadrature(floor):
    # Beta(a, b) mass of [0, floor] by quad of the density, with the
    # y^(a-1) endpoint factor as its algebraic weight
    worst = 0.0
    for a in (0.3, 0.5, 1.0, 1.5, 2.5):
        for b in (0.5, 1.0, 2.0, 5.0):
            ref, _ = integrate.quad(lambda y: (1.0 - y) ** (b - 1.0), 0.0,
                                    floor, weight="alg", wvar=(a - 1.0, 0.0),
                                    epsabs=0.0, epsrel=1e-13, limit=200)
            ref *= 2.5 * math.exp(-betaln(a, b))
            got = TruncatedSampler(LambdaBeta(a, b, 2.5), floor).cut_mass
            worst = max(worst, abs(got - ref) / ref)
    assert worst < 1e-10, worst


@pytest.mark.parametrize("floor", [1e-10, 1e-7, 1e-4])
def test_beta_rate_and_cut_mass_at_tiny_floors(floor):
    # closed forms: the rate is the integral of y^(a-3) (1-y)^(b-1) / B(a, b)
    # over [floor, 1], the cut mass the Beta(a, b) mass of [0, floor]
    f = floor
    rates = {(1.0, 1.0): 1.0 / f - 1.0,
             (2.0, 1.0): -2.0 * math.log(f),       # the s = 0 term
             (1.5, 1.0): 3.0 * (f ** -0.5 - 1.0),
             (3.0, 1.0): 3.0 * (1.0 - f)}
    cuts = {(1.0, 1.0): f, (2.0, 1.0): f * f, (1.0, 2.0): 2.0 * f - f * f}
    for (a, b), want in rates.items():
        got = TruncatedSampler(LambdaBeta(a, b), f).rate
        assert abs(got - want) <= 1e-14 * want, (a, b, got, want)
    for (a, b), want in cuts.items():
        got = TruncatedSampler(LambdaBeta(a, b), f).cut_mass
        assert abs(got - want) <= 1e-14 * want, (a, b, got, want)


@pytest.mark.parametrize("a, b", [(0.5, 20.0), (1.5, 50.0), (3.0, 30.0),
                                  (20.0, 0.2), (7.5, 12.0)])
def test_beta_rate_and_cut_mass_at_large_parameters(a, b):
    # a power series in y alone loses all precision here ((1-y)^(b-1)
    # alternates, and at y = 1/2 its terms outgrow the sum by 3^(b-1)):
    # against quad as in the tests above, floors on both sides of 1/2;
    # above 1/2 the cut mass is one minus the rest, so exact in absolute
    # terms, which is what x (1 - x) times it needs
    beta = math.exp(betaln(a, b))
    for floor in (1e-4, 0.05, 0.3, 0.7, 0.9):
        ref, _ = integrate.quad(lambda y: y ** (a - 3.0), floor, 1.0,
                                weight="alg", wvar=(0.0, b - 1.0),
                                epsabs=0.0, epsrel=1e-13, limit=200)
        got = TruncatedSampler(LambdaBeta(a, b), floor).rate
        assert abs(got - ref / beta) <= 1e-10 * ref / beta, (floor, got)
        ref, _ = integrate.quad(lambda y: (1.0 - y) ** (b - 1.0), 0.0, floor,
                                weight="alg", wvar=(a - 1.0, 0.0),
                                epsabs=0.0, epsrel=1e-13, limit=200)
        got = TruncatedSampler(LambdaBeta(a, b), floor).cut_mass
        bound = 1e-10 * ref / beta if floor < 0.5 else 1e-13
        assert abs(got - ref / beta) <= bound, (floor, got)


@pytest.mark.parametrize("measure, floor", [
    (StickBreaking(total_mass=0.7), 0.3),
    (StickBreaking(total_mass=0.7), 0.5),
    (StickBreaking(stick_law="beta", a=0.5, b=2.0), 0.25),
    (StickBreaking(stick_law="beta", a=0.5, b=2.0), 0.5),
])
def test_stick_cut_mass_against_independent_draw(measure, floor):
    # the cut mass over the total mass is the pool's share below the
    # floor: against the share of an independent draw, within 4 binomial
    # standard errors of the difference of the two shares
    pool = 20_000
    got = TruncatedSampler(measure, floor, pool_size=pool).cut_mass
    draws = sample_masses(measure, pool, np.random.default_rng(32))
    p = np.count_nonzero(draws[:, 0] < floor) / pool
    assert 0.0 < p < 1.0
    se = math.sqrt(2.0 * p * (1.0 - p) / pool)
    assert abs(got / total_mass(measure) - p) <= 4.0 * se


# ---------------------------------------------------------------------------
# the jump map and its exact law


def test_pick_laws_mix_events_and_fresh_labels():
    # an empty point draws a label per pick, a full one-group point one
    # label in all; with every label new, t picks give 0.5 (d = t) +
    # 0.5 (d = 1)
    events = [(0.5, SimplexPoint(())), (0.5, SimplexPoint((1.0,)))]
    laws = pick_laws(events, 4, np.ones(5))
    expected = 0.5 * np.eye(5)
    expected[1:, 1] += 0.5
    expected[0, 0] = 1.0
    assert np.array_equal(laws, expected)
    # two uniform labels (fresh = (2 - d) / 2) under the empty point:
    # the second pick repeats the first label with probability 1/2
    laws = pick_laws([(1.0, SimplexPoint(()))], 3, [1.0, 0.5, 0.0])
    assert np.allclose(laws, [[1, 0, 0], [0, 1, 0], [0, 0.5, 0.5],
                              [0, 0.25, 0.75]], atol=1e-15)


def test_jump_map_matches_bernoulli_patterns():
    # z = (0.3, 0.2, 0.1) at x = 0.3: the 8 adoption patterns give 7
    # distinct values (0.3 twice); chi-square at the 1% level
    z = SimplexPoint((0.3, 0.2, 0.1))
    x, draws = 0.3, 20_000
    masses = np.tile(z.masses, (draws, 1))
    coins = np.random.default_rng(5).random(masses.shape)
    ys = jump_map(np.full(draws, x), masses, coins)
    probs, values = bernoulli_patterns(z, x)
    assert abs(probs.sum() - 1.0) < 1e-15
    support, where = np.unique(np.round(values, 12), return_inverse=True)
    assert support.size == 7
    expected = draws * np.bincount(where, weights=probs)
    observed = np.array([(np.abs(ys - v) < 1e-12).sum() for v in support])
    assert observed.sum() == draws
    assert chisquare(observed, expected).pvalue > 0.01


def test_bernoulli_patterns_shapes_and_cap():
    probs, values = bernoulli_patterns(SimplexPoint(()), np.array([0.2, 0.7]))
    assert probs.tolist() == [[1.0], [1.0]]
    assert values.tolist() == [[0.2], [0.7]]
    probs, values = bernoulli_patterns(SimplexPoint((0.5,)), 0.3)
    assert np.allclose(probs, [0.7, 0.3]) and np.allclose(values, [0.15, 0.65])
    with pytest.raises(ValueError, match="too large"):
        bernoulli_patterns(SimplexPoint((0.05,) * 13), 0.5)


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


@pytest.mark.parametrize("measure,row", [
    (LambdaDirac(0.5, 2.0), (0.5,)),
    (FiniteAtomic(((3.0, (0.4, 0.2)),)), (0.4, 0.2))],
    ids=["dirac", "one_atom_two_groups"])
def test_one_atom_draws_consume_no_randomness(measure, row):
    # a one-atom law always gives its point: every draw is the tiled row,
    # and the generator is not touched
    sampler = TruncatedSampler(measure, 0.0)
    masses = np.array([row])
    frac = masses / masses.sum(axis=1)[:, None]
    for size in (0, 1, 1000):
        rng = np.random.default_rng(size)
        state = rng.bit_generator.state
        tiled = np.repeat(masses, size, axis=0)
        assert np.array_equal(sample_masses(measure, size, rng), tiled)
        assert np.array_equal(sampler.draw_masses(size, rng), tiled)
        got_frac, ssq, totals = normalized_draws(measure, size, rng)
        assert np.array_equal(got_frac, np.repeat(frac, size, axis=0))
        assert np.array_equal(ssq, np.full(size, (frac * frac).sum()))
        assert np.array_equal(totals, np.full(size, masses.sum()))
        assert rng.bit_generator.state == state


def test_two_atom_draws_keep_the_choice_stream():
    # two or more atoms are drawn by rng.choice: its rows and its stream
    sampler = TruncatedSampler(ATOM_PAIR, 0.0)
    matrix = np.array([[0.3, 0.2], [0.5, 0.0]])
    probs = np.array([w / z.sum_sq for w, z in ATOM_PAIR.atoms])
    for size in (0, 1, 1000):
        for draw, p in ((lambda rng: sample_masses(ATOM_PAIR, size, rng),
                         np.array([2.0, 1.0]) / 3.0),
                        (lambda rng: sampler.draw_masses(size, rng),
                         probs / probs.sum())):
            ref = np.random.default_rng(size)
            expect = matrix[ref.choice(2, size=size, p=p)]
            rng = np.random.default_rng(size)
            assert np.array_equal(draw(rng), expect)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_draw_masses_stick_breaking_rows_are_points():
    sampler = TruncatedSampler(StickBreaking(), 0.05, pool_size=2000)
    masses = sampler.draw_masses(300, np.random.default_rng(4))
    assert masses.shape[0] == 300
    assert np.all(masses[:, 0] >= 0.05)
    assert np.all(np.diff(masses, axis=1) <= 0.0)
    assert np.all(masses.sum(axis=1) <= 1.0 + 1e-12)
    # padded to the widest point drawn, not to the widest in the pool
    assert np.any(masses[:, -1] > 0.0)


def test_stick_pool_rate_and_std_error():
    # the rate is the mean of the pool's weights 1/sum(z^2) [z_1 >= floor],
    # scaled by the total mass, and std_error its standard error
    measure, floor = StickBreaking(total_mass=0.7), 0.1
    sampler = TruncatedSampler(measure, floor, pool_size=2000)
    masses = sample_masses(measure, 2000, np.random.default_rng(_MC_SEED))
    weights = 0.7 * np.where(masses[:, 0] >= floor,
                             1.0 / (masses * masses).sum(axis=1), 0.0)
    assert sampler.rate == pytest.approx(weights.mean(), rel=1e-12)
    assert sampler.std_error == pytest.approx(
        weights.std(ddof=1) / math.sqrt(2000), rel=1e-12)
    assert sampler.std_error > 0.0


def _beta_law(a, b, floor, cut):
    """P(Y < cut) and E[Y] of the law y^(a-3) (1-y)^(b-1) on [floor, 1],
    by quad; on [cut, 1] the (1-y)^(b-1) endpoint factor is the
    algebraic weight."""
    def mass(k):
        below, _ = integrate.quad(
            lambda y: y ** (a - 3.0 + k) * (1.0 - y) ** (b - 1.0), floor, cut,
            epsabs=0.0, epsrel=1e-12, limit=200)
        above, _ = integrate.quad(lambda y: y ** (a - 3.0 + k), cut, 1.0,
                                  weight="alg", wvar=(0.0, b - 1.0),
                                  epsabs=0.0, epsrel=1e-12, limit=200)
        return below, below + above
    below, total = mass(0)
    return below / total, mass(1)[1] / total


@pytest.mark.parametrize("a, b, floor", [
    (0.5, 2.0, 1e-4), (0.5, 1.5, 1e-3), (0.5, 0.5, 1e-2),
    (1.5, 0.5, 1e-3), (1.5, 3.0, 1e-2), (0.9, 0.3, 1e-4),
    (2.0, 1.5, 1e-4), (2.0, 0.7, 1e-2), (2.0, 3.0, 1e-3),
    (2.5, 0.7, 0.0), (4.0, 2.0, 0.0)])
def test_beta_draw_masses_law(a, b, floor):
    # P(Y < 2 floor) (Y < 0.1 at floor 0) and E[Y] of 200k draws of the
    # truncated jump law, within 3 SE of quadrature
    draws = 200_000
    y = TruncatedSampler(LambdaBeta(a, b), floor).draw_masses(
        draws, np.random.default_rng(31))[:, 0]
    assert np.all((y >= floor) & (y <= 1.0))
    cut = 2.0 * floor if floor > 0.0 else 0.1
    p_ref, mean_ref = _beta_law(a, b, floor, cut)
    p_hat = np.count_nonzero(y < cut) / draws
    assert abs(p_hat - p_ref) <= 3 * math.sqrt(p_ref * (1 - p_ref) / draws)
    assert abs(y.mean() - mean_ref) <= 3 * y.std(ddof=1) / math.sqrt(draws)


def _weighted_law(masses, floor, cut):
    """P(z_1 < cut) and E[z_1] under weights 1/sum(z^2) [z_1 >= floor] on
    draws of the measure, each with its self-normalised standard error."""
    z1 = masses[:, 0]
    w = np.where(z1 >= floor, 1.0 / (masses * masses).sum(axis=1), 0.0)
    out = []
    for h in ((z1 < cut).astype(float), z1):
        est = float((w * h).sum() / w.sum())
        se = float(math.sqrt((w * w * (h - est) ** 2).sum()) / w.sum())
        out.append((est, se))
    return out


@pytest.mark.parametrize("measure, floor", [
    (StickBreaking(), 0.25), (StickBreaking(), 0.15),
    (StickBreaking(stick_law="beta", a=0.5, b=2.0), 0.1),
    (StickBreaking(stick_law="beta", a=0.5, b=2.0), 0.2)])
def test_stick_draw_masses_law(measure, floor):
    # P(z_1 < 2 floor) and E[z_1] of draws from the resampled pool, against
    # an independent draw of the measure weighted by 1/sum(z^2) above the
    # floor; the pool and the reference have the same size, so the pool's
    # own error is taken as the reference's, and the resampling adds the
    # draws' sample variance; within 4 combined standard errors
    pool, draws = 20_000, 100_000
    z1 = TruncatedSampler(measure, floor, pool_size=pool).draw_masses(
        draws, np.random.default_rng(33))[:, 0]
    assert np.all(z1 >= floor)
    reference = sample_masses(measure, pool, np.random.default_rng(32))
    cut = 2.0 * floor
    laws = _weighted_law(reference, floor, cut)
    assert 0.0 < laws[0][0] < 1.0
    for h, (ref, se_ref) in zip(((z1 < cut).astype(float), z1), laws):
        combined = math.sqrt(2.0 * se_ref ** 2 + h.var(ddof=1) / draws)
        assert abs(h.mean() - ref) <= 4.0 * combined

