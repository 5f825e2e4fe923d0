import math

import numpy as np
import pytest
from scipy.stats import binom

from cannings import (DiscreteParams, FiniteAtomic, LambdaBeta, LambdaDirac,
                      SelectionLaw, SimplexPoint, StickBreaking,
                      ancestral_step, ancestral_trajectories,
                      exact_transition_matrices, explicit_family,
                      forward_trajectories, geometric_family, neutral_family,
                      pgf, post_event_frequency, sampling_duality_check,
                      sampling_probability)

DIRAC_HALF = LambdaDirac(0.5, 1.0)


def delta1_law(gamma: float) -> SelectionLaw:
    # K = 2 with probability gamma, else K = 1
    return SelectionLaw(gamma, extra_pmf=(1.0,))


def test_params_validation():
    with pytest.raises(ValueError):
        DiscreteParams(1, 0.0, neutral_family())          # too small
    with pytest.raises(ValueError):
        DiscreteParams(4, 0.5, neutral_family())          # event prob w/o measure
    with pytest.raises(ValueError):
        DiscreteParams(4, 0.5, neutral_family(),
                       xi_hat=LambdaDirac(0.5, 2.0))      # not normalized
    DiscreteParams(4, 0.0, neutral_family())              # fine without measure


def test_post_event_frequency_degenerate_and_empty():
    rng = np.random.default_rng(0)
    z = SimplexPoint((0.3, 0.2))
    assert post_event_frequency(0.0, z, rng) == 0.0
    assert post_event_frequency(1.0, z, rng) == 1.0
    empty = SimplexPoint(())
    assert post_event_frequency(0.37, empty, rng) == 0.37


def test_post_event_frequency_dirac_half():
    # Z = [0.5], x = 0.5: Y = 0.25 + 0.5 B with B ~ Bernoulli(0.5),
    # so Y takes only the values 0.25 and 0.75 and has mean 0.5
    rng = np.random.default_rng(7)
    z = SimplexPoint((0.5,))
    draws = np.array([post_event_frequency(0.5, z, rng) for _ in range(20_000)])
    assert set(np.unique(draws)) <= {0.25, 0.75}
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) <= 3 * se


def test_one_step_law_matches_binomial():
    # N=2, no extreme events, geometric Q(0.1), x=0.5: success probability
    # is the pgf value 0.45/0.95, and X_1 ~ Binomial(2, p)/2
    rng = np.random.default_rng(11)
    params = DiscreteParams(2, 0.0, geometric_family(0.1))
    reps = 100_000
    finals = forward_trajectories(params, 0.5, 1, reps, rng)[:, -1]
    p = 0.45 / 0.95
    for k in range(3):
        expect = binom.pmf(k, 2, p)
        got = float(np.mean(finals == k / 2))
        se = math.sqrt(expect * (1.0 - expect) / reps)
        assert abs(got - expect) <= 3 * se, f"cell {k}"


def test_forward_absorption():
    rng = np.random.default_rng(3)
    params = DiscreteParams(4, 0.5, delta1_law(0.5), xi_hat=DIRAC_HALF)
    for x0 in (0.0, 1.0):
        paths = forward_trajectories(params, x0, 20, 50, rng)
        assert np.all(paths == x0)


def test_forward_requires_grid_state():
    rng = np.random.default_rng(1)
    params = DiscreteParams(4, 0.0, neutral_family())
    with pytest.raises(ValueError):
        forward_trajectories(params, 0.3, 1, 10, rng)


def test_sampling_probability_no_event_is_pgf_power():
    params = DiscreteParams(10, 0.0, geometric_family(0.1))
    p = 0.45 / 0.95
    assert abs(sampling_probability(params, 0.5, 3) - p ** 3) < 1e-12
    assert abs(sampling_probability(params, 0.5, 1) - p) < 1e-12


def test_sampling_probability_at_one_is_one():
    params = DiscreteParams(6, 0.3, neutral_family(), xi_hat=DIRAC_HALF)
    assert abs(sampling_probability(params, 1.0, 4) - 1.0) < 1e-15


def test_sampling_probability_always_event_dirac():
    # gamma = 1, neutral Q, n = 1: S(0.5, 1) = E[Y(0.5)]
    #   = 0.5 * 0.25 + 0.5 * 0.75 = 0.5 by the two-configuration enumeration
    params = DiscreteParams(6, 1.0, neutral_family(), xi_hat=DIRAC_HALF)
    assert abs(sampling_probability(params, 0.5, 1) - 0.5) < 1e-15


def test_sampling_probability_mc_matches_exact():
    rng = np.random.default_rng(23)
    params = DiscreteParams(6, 0.4, geometric_family(0.2), xi_hat=DIRAC_HALF)
    exact = sampling_probability(params, 0.5, 3)
    est = sampling_probability(params, 0.5, 3, mode="mc", replicates=20_000,
                               rng=rng)
    assert abs(est.mean - exact) <= 3 * est.std_error


def test_sampling_probability_multi_atom_support():
    # two atoms with two-group support exercise the enumeration path;
    # hand value for neutral Q, n = 1: S = (1-g) x + g E[Y(x)] = x exactly
    # because every event preserves the mean frequency
    xi = FiniteAtomic(((0.5, (0.3, 0.2)), (0.5, (0.6,))))
    params = DiscreteParams(8, 0.7, neutral_family(), xi_hat=xi)
    assert abs(sampling_probability(params, 0.4, 1) - 0.4) < 1e-12


def test_ancestral_single_lineage_neutral_stays_one():
    rng = np.random.default_rng(5)
    params = DiscreteParams(5, 0.0, neutral_family())
    assert all(ancestral_step(params, 1, rng) == 1 for _ in range(200))


def test_ancestral_birthday_two_labels():
    # N=2, n=2, neutral: both lineages pick one of two labels uniformly,
    # so D = 1 and D = 2 each with probability 1/2
    rng = np.random.default_rng(13)
    params = DiscreteParams(2, 0.0, neutral_family())
    reps = 100_000
    finals = ancestral_trajectories(params, 2, 1, reps, rng)[:, -1]
    frac = float(np.mean(finals == 1))
    se = math.sqrt(0.25 / reps)
    assert abs(frac - 0.5) <= 3 * se


def test_ancestral_total_merger():
    # a full-mass single group funnels every pick into one shared label
    rng = np.random.default_rng(17)
    params = DiscreteParams(6, 1.0, neutral_family(),
                            xi_hat=LambdaDirac(1.0, 1.0))
    finals = ancestral_trajectories(params, 5, 1, 400, rng)[:, -1]
    assert np.all(finals == 1)


def test_ancestral_bounds_and_monotone():
    rng = np.random.default_rng(29)
    params = DiscreteParams(5, 0.5, neutral_family(), xi_hat=DIRAC_HALF)
    paths = ancestral_trajectories(params, 5, 15, 300, rng)
    assert np.all(paths >= 1) and np.all(paths <= 5)
    # neutral Q keeps one pick per lineage, so labels only collapse
    assert np.all(np.diff(paths, axis=1) <= 0)


def test_ancestral_infinite_parent_count_touches_all_labels():
    rng = np.random.default_rng(31)
    law = SelectionLaw(1.0, extra_pmf=(), extra_inf_mass=1.0)
    params = DiscreteParams(7, 0.0, law)
    assert all(ancestral_step(params, 2, rng) == 7 for _ in range(50))


def test_exact_matrices_rows_and_absorption():
    params = DiscreteParams(4, 0.2, delta1_law(0.2), xi_hat=DIRAC_HALF)
    forward, ancestral = exact_transition_matrices(params)
    assert forward.shape == (5, 5) and ancestral.shape == (4, 4)
    assert np.allclose(forward.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(ancestral.sum(axis=1), 1.0, atol=1e-12)
    # frequency 0 and 1 are absorbing, exactly
    assert np.allclose(forward[0], np.eye(5)[0], atol=1e-14)
    assert np.allclose(forward[4], np.eye(5)[4], atol=1e-14)
    # one lineage branches iff K = 2 (prob 0.2) and the picks land on
    # distinct labels: ordinary generations give 0.2 * 3/4 = 0.15, event
    # generations 0.2 * 0.75 * 0.75 = 0.1125 (both-in-group picks always
    # share a label), so row 1 mixes to [0.8575, 0.1425, 0, 0]
    assert np.allclose(ancestral[0], [0.8575, 0.1425, 0.0, 0.0], atol=1e-12)


def test_exact_ancestral_two_label_oracle():
    params = DiscreteParams(2, 0.0, neutral_family())
    _, ancestral = exact_transition_matrices(params)
    assert np.allclose(ancestral, [[1.0, 0.0], [0.5, 0.5]], atol=1e-12)


def test_exact_ancestral_extreme_row_oracle():
    # N=2, always-event, dirac [0.5], neutral Q, n=2: conditioning on
    # whether the shared group label is inside the chosen subset gives
    # inside = [0, 0.3125, 1] and the row (5/8, 3/8)
    params = DiscreteParams(2, 1.0, neutral_family(), xi_hat=DIRAC_HALF)
    _, ancestral = exact_transition_matrices(params)
    assert np.allclose(ancestral[1], [0.625, 0.375], atol=1e-12)


def test_exact_matrices_refuse_large_cases():
    with pytest.raises(ValueError):
        exact_transition_matrices(DiscreteParams(7, 0.0, neutral_family()))
    wide = FiniteAtomic(((1.0, (0.2, 0.2, 0.2, 0.2)),))
    with pytest.raises(ValueError):
        exact_transition_matrices(
            DiscreteParams(4, 0.5, neutral_family(), xi_hat=wide))


def test_duality_zero_generations_is_identity():
    params = DiscreteParams(3, 0.2, delta1_law(0.3), xi_hat=DIRAC_HALF)
    report = sampling_duality_check(params, 1 / 3, 2, 0)
    assert report.gap < 1e-15 and report.passed
    assert report.verdict == "pass"


def test_duality_exact_geometric_parent_law():
    params = DiscreteParams(2, 0.0, geometric_family(0.1))
    report = sampling_duality_check(params, 0.5, 1, 3)
    assert report.gap < 1e-10 and report.passed


def test_duality_exact_with_events():
    params = DiscreteParams(4, 0.2, neutral_family(), xi_hat=DIRAC_HALF)
    report = sampling_duality_check(params, 0.75, 2, 2)
    assert report.gap < 1e-10 and report.passed


def test_duality_exact_selection_and_events():
    params = DiscreteParams(3, 0.5, delta1_law(1.0), xi_hat=DIRAC_HALF)
    for g in (1, 4):
        report = sampling_duality_check(params, 2 / 3, 3, g)
        assert report.gap < 1e-10, f"g={g}: {report.gap}"


def test_duality_mc_mode_agrees():
    rng = np.random.default_rng(37)
    params = DiscreteParams(4, 0.2, delta1_law(0.2), xi_hat=DIRAC_HALF)
    exact = sampling_duality_check(params, 0.5, 2, 3)
    mc = sampling_duality_check(params, 0.5, 2, 3, mode="mc",
                                replicates=20_000, rng=rng)
    assert mc.mode == "mc"
    assert abs(mc.lhs - exact.lhs) <= 4 * mc.lhs_se
    assert abs(mc.rhs - exact.rhs) <= 4 * mc.rhs_se
    assert mc.passed


def test_duality_mc_requires_rng():
    params = DiscreteParams(3, 0.0, neutral_family())
    with pytest.raises(ValueError):
        sampling_duality_check(params, 1 / 3, 2, 1, mode="mc")


# ---------------------------------------------------------------------------
# non-atomic xi_hat


def test_beta_sampling_probability_second_moment():
    # neutral law: S(x, 2) = E[Y^2] = x^2 + x (1 - x) E[y^2], y ~ Beta(a, b)
    a, b, x = 0.5, 2.0, 0.3
    params = DiscreteParams(20, 1.0, neutral_family(), LambdaBeta(a, b))
    ey2 = a * (a + 1.0) / ((a + b) * (a + b + 1.0))
    assert abs(sampling_probability(params, x, 2)
               - (x * x + x * (1.0 - x) * ey2)) < 1e-10
    assert abs(sampling_probability(params, x, 1) - x) < 1e-12


def test_beta_sampling_duality_mc():
    params = DiscreteParams(20, 0.1, explicit_family([0.9, 0.1]),
                            LambdaBeta(1.0, 1.0))
    report = sampling_duality_check(params, 0.5, 3, 5, mode="mc",
                                    replicates=2000,
                                    rng=np.random.default_rng(8))
    assert report.mode == "mc"
    assert report.passed


def test_stick_breaking_sampling_probability_names_family():
    params = DiscreteParams(20, 0.1, neutral_family(), StickBreaking())
    with pytest.raises(ValueError, match="StickBreaking"):
        sampling_probability(params, 0.5, 2)
