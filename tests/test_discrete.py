import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import comb
from scipy.stats import binom

from cannings import (DiscreteParams, FiniteAtomic, LambdaBeta, LambdaDirac,
                      McEstimate, SelectionLaw, SimplexPoint, StickBreaking,
                      ancestral_trajectories, as_atoms, bernoulli_patterns,
                      exact_transition_matrices, explicit_family,
                      forward_trajectories, geometric_family,
                      has_exact_kernels, jump_map, neutral_family, pgf,
                      sample_masses, sampling_duality_check,
                      sampling_probability)
from cannings import discrete
from cannings.discrete import _events
from cannings.simplex import beta_nodes

DIRAC_HALF = LambdaDirac(0.5, 1.0)
# K = infinity with probability 0.075
INFINITE_LAW = SelectionLaw(0.3, extra_pmf=(0.5, 0.25), extra_inf_mass=0.25)


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


@pytest.mark.parametrize("x", [-0.5, 1.5])
def test_start_outside_unit_interval_refused(x):
    # both lie on the grid of N = 6, -0.5 as the index -3
    params = DiscreteParams(6, 0.2, geometric_family(0.1), xi_hat=DIRAC_HALF)
    with pytest.raises(ValueError, match=r"grid point i / pop_size of \[0, 1\]"):
        sampling_duality_check(params, x, 2, 2)
    with pytest.raises(ValueError, match=r"grid point i / pop_size of \[0, 1\]"):
        forward_trajectories(params, x, 1, 1, np.random.default_rng(0))


def post_event_frequency(x, masses, rng, size=1):
    """``size`` draws of the post-event frequency at x: jump_map rows."""
    rows = np.tile(masses, (size, 1))
    return jump_map(np.full(size, x), rows, rng.random(rows.shape))


def test_post_event_frequency_degenerate_and_empty():
    rng = np.random.default_rng(0)
    z = (0.3, 0.2)
    assert post_event_frequency(0.0, z, rng).tolist() == [0.0]
    assert post_event_frequency(1.0, z, rng).tolist() == [1.0]
    # an empty point: zero columns
    assert post_event_frequency(0.37, (), rng).tolist() == [0.37]


def test_post_event_frequency_dirac_half():
    # Z = [0.5], x = 0.5: Y = 0.25 + 0.5 B with B ~ Bernoulli(0.5),
    # so Y takes only the values 0.25 and 0.75 and has mean 0.5
    rng = np.random.default_rng(7)
    draws = post_event_frequency(0.5, (0.5,), rng, size=20_000)
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
    # S averaged over 20,000 sampled extreme events
    masses = sample_masses(DIRAC_HALF, 20_000, rng)
    ys = jump_map(np.full(20_000, 0.5), masses, rng.random(masses.shape))
    g, base = params.extreme_prob, pgf(params.parent_law, 0.5) ** 3
    est = McEstimate.from_samples((1.0 - g) * base
                                  + g * pgf(params.parent_law, ys) ** 3)
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
    assert np.all(ancestral_trajectories(params, 1, 1, 200, rng) == 1)


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
    assert np.all(ancestral_trajectories(params, 2, 1, 50, rng)[:, 1] == 7)


# one model per branch of the ancestral step: a single-atom xi_hat (c10's
# h = 0.2 and the bench's finite config), a multi-atom one with geometric
# parent counts, an infinite parent count, no extreme generations, and
# the continuous families that draw their point per generation
ANCESTRAL_MODELS = {
    "dirac": (DiscreteParams(50, 0.2, delta1_law(0.2), DIRAC_HALF), 12),
    "explicit": (DiscreteParams(50, 0.1, explicit_family([0.9, 0.1]),
                                DIRAC_HALF), 12),
    "geometric_atomic": (DiscreteParams(
        20, 0.3, geometric_family(0.3),
        FiniteAtomic(((0.5, (0.3, 0.2, 0.1)), (0.5, (0.5,))))), 8),
    "infinite": (DiscreteParams(10, 0.3, INFINITE_LAW,
                                LambdaDirac(0.7, 1.0)), 5),
    "neutral": (DiscreteParams(30, 0.0, neutral_family()), 20),
    "beta": (DiscreteParams(30, 0.3, geometric_family(0.2),
                            LambdaBeta(1.0, 2.0)), 10),
    "stick": (DiscreteParams(30, 0.3, explicit_family([0.8, 0.15, 0.05]),
                             StickBreaking()), 10),
}

# sha256 of ancestral_trajectories(params, n0, 10, 200, default_rng(2024))
# as little-endian int64, then of the next rng.random() as float64: the
# random stream of the step batched over replicates, which draws every
# lineage's parent count, the extreme coins, the points, the cells and
# the slot labels of a generation in one call each; dirac, explicit and
# infinite (one-atom xi_hat) re-recorded when one-atom point draws stopped
# consuming uniforms
ANCESTRAL_DIGESTS = {
    "dirac": "82f78142dfac47ef5d75929b2fd1bb5615b16a39b41f7e33741b6787cc040608",
    "explicit": "7c7336abd98d728ceb9c9c282ede8550b1f5a218644f3d12278b4da9cfdc6718",
    "geometric_atomic": "dc3d6ea81563946e735d2bcd5c3980adc7d2f8c0dda2d308a8a423345e55cc77",
    "infinite": "df26558c8e0da16730d01d8ce071d3d51eaeeb990f64bbd260798c090a07b945",
    "neutral": "e58b4ed2e1a8a18091027b817390540aa009219742c9349b6b6c29037d59903b",
    "beta": "77c48a92f7ea94bb95ae3a2eb9acf6bd7928d5e38129621ab3da31cf57dd5d99",
    "stick": "dbdf0d5fb13a9ec84aad7b81eb5da033d4e5e84b984c1c0cacbf1bd7862fb81a",
}


@pytest.mark.parametrize("name", sorted(ANCESTRAL_MODELS))
def test_ancestral_stream_pinned(name):
    params, n0 = ANCESTRAL_MODELS[name]
    rng = np.random.default_rng(2024)
    paths = ancestral_trajectories(params, n0, 10, 200, rng)
    digest = hashlib.sha256(paths.astype("<i8").tobytes())
    digest.update(np.float64(rng.random()).tobytes())
    assert digest.hexdigest() == ANCESTRAL_DIGESTS[name]


@pytest.mark.parametrize("name", ["dirac", "explicit", "geometric_atomic",
                                  "infinite", "neutral"])
def test_ancestral_law_matches_kernel(name):
    # the one- and two-generation laws of D from n0 against the exact
    # kernel's rows, cell by cell within 4 standard errors
    params, n0 = ANCESTRAL_MODELS[name]
    reps = 20_000
    paths = ancestral_trajectories(params, n0, 2, reps,
                                   np.random.default_rng(5))
    _, ancestral = exact_transition_matrices(params)
    row = ancestral[n0 - 1]
    for generation, law in ((1, row), (2, row @ ancestral)):
        freq = np.bincount(paths[:, generation] - 1,
                           minlength=params.pop_size) / reps
        se = np.sqrt(law * (1.0 - law) / reps)
        assert np.all(np.abs(freq - law) <= 4 * se), generation


def test_ancestral_law_matches_beta_kernel():
    # the one- and two-generation laws of D from n0 against the Beta node
    # kernel's rows; cells expecting fewer than 5 hits are pooled into one,
    # where a bare standard-error bound says nothing, and every cell is
    # tested within 4 standard errors
    params, n0 = ANCESTRAL_MODELS["beta"]
    reps = 20_000
    paths = ancestral_trajectories(params, n0, 2, reps,
                                   np.random.default_rng(5))
    _, ancestral = exact_transition_matrices(params)
    row = ancestral[n0 - 1]
    for generation, law in ((1, row), (2, row @ ancestral)):
        freq = np.bincount(paths[:, generation] - 1,
                           minlength=params.pop_size) / reps
        rare = law * reps < 5.0
        law = np.append(law[~rare], law[rare].sum())
        freq = np.append(freq[~rare], freq[rare].sum())
        se = np.sqrt(law * (1.0 - law) / reps)
        assert np.all(np.abs(freq - law) <= 4 * se), generation


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
    # the kernels refuse only a stick-breaking xi_hat and atoms wider
    # than MAX_EXACT_SUPPORT; has_exact_kernels also caps pop_size, as
    # the CLI's rule for exact mode
    wide = FiniteAtomic(((1.0, (0.2, 0.2, 0.2, 0.2)),))
    refused = [DiscreteParams(4, 0.5, neutral_family(), xi_hat=wide),
               DiscreteParams(4, 0.5, neutral_family(), StickBreaking())]
    for params in refused:
        assert not has_exact_kernels(params)
        with pytest.raises(ValueError):
            exact_transition_matrices(params)
    big = DiscreteParams(7, 0.0, neutral_family())
    assert not has_exact_kernels(big)
    exact_transition_matrices(big)
    # no extreme generations: xi_hat never enters; Beta enters through
    # its nodes
    for params in (DiscreteParams(6, 0.0, neutral_family()),
                   DiscreteParams(6, 0.0, neutral_family(), StickBreaking()),
                   DiscreteParams(6, 0.5, neutral_family(), DIRAC_HALF),
                   DiscreteParams(6, 0.5, neutral_family(),
                                  LambdaBeta(1.0, 2.0))):
        assert has_exact_kernels(params)
        exact_transition_matrices(params)


TWO_ATOMS = FiniteAtomic(((0.5, (0.3, 0.2, 0.1)), (0.5, (0.5,))))

# Dirac, two-atom, geometric and Beta models for the kernels at larger
# sizes; the arcsine law, a + b = 1, takes the node rule's special case
KERNEL_MODELS = {
    "dirac": lambda pop: DiscreteParams(pop, 0.2, delta1_law(0.2), DIRAC_HALF),
    "two_atoms": lambda pop: DiscreteParams(
        pop, 0.3, explicit_family([0.6, 0.3, 0.1]), TWO_ATOMS),
    "geometric": lambda pop: DiscreteParams(
        pop, 0.1, geometric_family(0.4), DIRAC_HALF),
    "beta": lambda pop: DiscreteParams(
        pop, 0.3, geometric_family(0.2), LambdaBeta(1.0, 2.0)),
    "beta_arcsine": lambda pop: DiscreteParams(
        pop, 0.2, explicit_family([0.6, 0.3, 0.1]), LambdaBeta(0.5, 0.5)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_exact_rows_sum_to_one_at_large_sizes(name):
    for pop in (50, 100):
        params = KERNEL_MODELS[name](pop)
        forward, ancestral = exact_transition_matrices(params)
        assert np.all(ancestral >= 0.0) and np.all(forward >= 0.0)
        assert np.abs(ancestral.sum(axis=1) - 1.0).max() < 1e-12, pop
        assert np.abs(forward.sum(axis=1) - 1.0).max() < 1e-12, pop


@pytest.mark.parametrize("pop, bound", [(100, 48e6), (200, 100e6)],
                         ids=["pop_100", "pop_200"])
def test_exact_kernels_memory(pop, bound):
    # one binomial row per (state, pattern) and one pick sweep over
    # (d, mask) peak near 2.2 MB at 100 and 8.2 MB at 200; dense
    # ((N+1) 2^m)^2 lineage matrices would take 125 MB at 200 and fail
    tracemalloc.start()
    try:
        exact_transition_matrices(KERNEL_MODELS["two_atoms"](pop))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS) + ["infinite"])
def test_one_generation_duality_identity(name):
    # F S = S A^T with S[i, n - 1] = S(i / N, n): the duality holds
    # exactly for every starting state and sample size at once
    make = KERNEL_MODELS.get(
        name, lambda pop: DiscreteParams(pop, 0.3, INFINITE_LAW, TWO_ATOMS))
    for pop in (6, 50, 100):
        params = make(pop)
        forward, ancestral = exact_transition_matrices(params)
        s = sampling_probability(params, (np.arange(pop + 1) / pop)[:, None],
                                 np.arange(1, pop + 1))
        gap = np.abs(forward @ s - s @ ancestral.T).max()
        assert gap < 1e-13, (pop, gap)


def kernel_digest(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


# the bench's exact model (N = 6, two atoms) and c10's N = 50 Dirac model
PINNED_KERNEL_MODELS = {
    "bench_two_atoms": DiscreteParams(
        6, 0.2, geometric_family(0.1),
        FiniteAtomic(((0.5, (0.3, 0.2, 0.1)), (0.5, (0.5,))))),
    "c10_dirac": ANCESTRAL_MODELS["dirac"][0],
}
# sha256 of both kernels (forward, then ancestral) and of the Dirac
# model's grid S[i, n - 1] = S(i / N, n), as little-endian float64,
# recorded before S and the kernels shared one event list
KERNEL_DIGESTS = {
    ("bench_two_atoms", "kernels"):
        "65d8fa7fe78605ed9269a2e864c5a77087916e4ed3719e233c2962f609b1b789",
    ("c10_dirac", "kernels"):
        "12cf8270ff1a8a3fa1fddb72fc29f78cc1ff4e094d6858e5ee8a3f47ceb2d507",
    ("c10_dirac", "s_grid"):
        "fe3a993296ac3e8f8a24639e3107682f2c04c858178d4eeb732596f027296654",
}


def test_exact_kernels_and_s_grid_pinned():
    digests = {}
    for name, what in KERNEL_DIGESTS:
        params = PINNED_KERNEL_MODELS[name]
        pop = params.pop_size
        if what == "kernels":
            digests[name, what] = kernel_digest(
                *exact_transition_matrices(params))
        else:
            digests[name, what] = kernel_digest(sampling_probability(
                params, (np.arange(pop + 1) / pop)[:, None],
                np.arange(1, pop + 1)))
    assert digests == KERNEL_DIGESTS


def test_xi_weights_off_one_by_rounding_keep_the_duality():
    # DiscreteParams accepts weights summing to 1 within 1e-9; S, both
    # kernels and the check must read them as one normalised law, or the
    # missing 8e-10 turns up as a K = infinity jump to d = N
    xi = FiniteAtomic(((0.5, (0.3,)), (0.4999999992, (0.5,))))
    params = DiscreteParams(6, 1.0, geometric_family(0.1), xi)
    forward, ancestral = exact_transition_matrices(params)
    assert np.abs(forward.sum(axis=1) - 1.0).max() < 1e-15
    s = sampling_probability(params, (np.arange(7) / 6)[:, None],
                             np.arange(1, 7))
    assert np.abs(forward @ s - s @ ancestral.T).max() < 1e-13
    for g in (3, 10):
        assert sampling_duality_check(params, 0.5, 3, g).passed, g


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_duality_exact_at_larger_sizes(name):
    for pop in (10, 20, 50):
        params = KERNEL_MODELS[name](pop)
        report = sampling_duality_check(params, round(0.8 * pop) / pop, 5, 4)
        assert report.gap < 1e-10, (pop, report.gap)


def inclusion_exclusion_ancestral(params):
    """The ancestral kernel by inclusion-exclusion over label subsets:
    P(D = d) = C(N, d) sum_j (-1)^(d-j) C(d, j) P(all picks inside a
    j-subset), where a lineage's picks stay inside with the pgf at the
    j / N-patterns of the event's groups.  Its signed sums cancel, so it
    is a reference only at small N."""
    pop, law, g = params.pop_size, params.parent_law, params.extreme_prob
    atoms = as_atoms(params.xi_hat) if g > 0.0 else ()
    j = np.arange(pop + 1)
    d = np.arange(1, pop + 1)[:, None]
    weights = comb(pop, d) * (-1.0) ** (d - j) * comb(d, j)
    out = np.zeros((pop, pop))
    for w, z in [(1.0 - g, SimplexPoint(()))] + [(g * w, z) for w, z in atoms]:
        probs, ys = bernoulli_patterns(z, j / pop)
        psi = pgf(law, np.minimum(ys, 1.0))
        inside = (probs * psi ** d[..., None]).sum(axis=-1)
        out += w * inside @ weights.T
    return out


def test_exact_ancestral_matches_inclusion_exclusion():
    laws = [neutral_family(), geometric_family(0.6),
            explicit_family([0.5, 0.2, 0.0, 0.3]),
            INFINITE_LAW]
    for pop in range(2, 7):
        for law in laws:
            for g, xi in ((0.0, None), (0.2, DIRAC_HALF), (1.0, TWO_ATOMS)):
                params = DiscreteParams(pop, g, law, xi)
                _, ancestral = exact_transition_matrices(params)
                reference = inclusion_exclusion_ancestral(params)
                gap = np.abs(ancestral - reference).max()
                assert gap < 1e-13, (pop, law, g, gap)


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


def test_exact_check_covers_every_grid_point(monkeypatch):
    # a defect in ancestral row n' = 4 leaves the (x, n = 2) entries of
    # one generation alone; the whole-grid identity still sees it
    params = DiscreteParams(4, 0.2, delta1_law(0.3), xi_hat=DIRAC_HALF)
    assert sampling_duality_check(params, 0.5, 2, 1).passed
    build = discrete.exact_transition_matrices

    def skewed(p):
        forward, ancestral = build(p)
        ancestral[3, 1] += 1e-6
        ancestral[3, 2] -= 1e-6
        return forward, ancestral

    monkeypatch.setattr(discrete, "exact_transition_matrices", skewed)
    report = sampling_duality_check(params, 0.5, 2, 1)
    assert report.verdict == "fail" and report.gap > 1e-8
    assert abs(report.lhs.mean - report.rhs.mean) < 1e-15


def test_exact_gap_is_the_grid_maximum():
    # one model and g give one gap, whatever (x, n) the call asks for
    params = DiscreteParams(5, 0.3, geometric_family(0.2), xi_hat=DIRAC_HALF)
    reports = [sampling_duality_check(params, i / 5, n, 3)
               for i in range(6) for n in range(1, 6)]
    assert len({r.gap for r in reports}) == 1
    for r in reports:
        assert r.gap >= abs(r.lhs.mean - r.rhs.mean) and r.passed


def test_duality_mc_mode_agrees():
    rng = np.random.default_rng(37)
    params = DiscreteParams(4, 0.2, delta1_law(0.2), xi_hat=DIRAC_HALF)
    exact = sampling_duality_check(params, 0.5, 2, 3)
    mc = sampling_duality_check(params, 0.5, 2, 3, mode="mc",
                                replicates=20_000, rng=rng)
    assert mc.lhs.replicates == 20_000
    assert abs(mc.lhs.mean - exact.lhs.mean) <= 4 * mc.lhs.std_error
    assert abs(mc.rhs.mean - exact.rhs.mean) <= 4 * mc.rhs.std_error
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


BETA_LAWS = [(1.0, 2.0), (0.5, 1.5), (0.3, 0.7), (3.0, 0.5)]


def beta_quadrature(params, x, n):
    """S(x, n) for a Beta xi_hat by a tight adaptive quadrature over the
    group size y against the weight y^(a-1) (1-y)^(b-1)."""
    from scipy import integrate
    from scipy.special import beta as beta_fn

    a, b = params.xi_hat.a, params.xi_hat.b
    law, g = params.parent_law, params.extreme_prob

    def integrand(y):
        return (x * pgf(law, y + x * (1.0 - y)) ** n
                + (1.0 - x) * pgf(law, x * (1.0 - y)) ** n)

    val, _ = integrate.quad(integrand, 0.0, 1.0, weight="alg",
                            wvar=(a - 1.0, b - 1.0), epsabs=1e-15,
                            epsrel=1e-14, limit=200)
    return (1.0 - g) * pgf(law, x) ** n + g * val / beta_fn(a, b)


@pytest.mark.parametrize("a, b", BETA_LAWS)
def test_beta_sampling_probability_matches_quadrature(a, b):
    xs = np.array([0.0, 0.02, 0.3, 0.88, 1.0])
    ns = np.array([1, 2, 12, 50])
    for law in (geometric_family(0.2), explicit_family([0.6, 0.3, 0.1])):
        params = DiscreteParams(30, 0.3, law, LambdaBeta(a, b))
        s = sampling_probability(params, xs[:, None], ns)
        reference = [[beta_quadrature(params, x, n) for n in ns] for x in xs]
        assert np.abs(s - reference).max() < 1e-13, law


@pytest.mark.parametrize("a, b", BETA_LAWS)
def test_beta_node_rule_converged_at_large_n(a, b):
    # at n = 1000 the rule S draws agrees with a rule of twice the nodes
    law = geometric_family(0.2)
    params = DiscreteParams(30, 0.3, law, LambdaBeta(a, b))
    nodes = len(_events(params, 1000)) - 1  # the empty point, then J nodes
    twice = FiniteAtomic(beta_nodes(a, b, 2 * nodes))
    xs = np.linspace(0.0, 1.0, 11)
    s = sampling_probability(params, xs, 1000)
    ref = sampling_probability(DiscreteParams(30, 0.3, law, twice), xs, 1000)
    assert np.abs(s - ref).max() < 1e-13


def test_beta_sampling_duality_mc():
    params = DiscreteParams(20, 0.1, explicit_family([0.9, 0.1]),
                            LambdaBeta(1.0, 1.0))
    report = sampling_duality_check(params, 0.5, 3, 5, mode="mc",
                                    replicates=2000,
                                    rng=np.random.default_rng(8))
    assert report.lhs.replicates == 2000
    assert report.passed


def test_stick_breaking_sampling_probability_names_family():
    params = DiscreteParams(20, 0.1, neutral_family(), StickBreaking())
    with pytest.raises(ValueError, match="StickBreaking"):
        sampling_probability(params, 0.5, 2)
