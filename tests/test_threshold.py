import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from cannings import (FiniteAtomic, LambdaBeta, LambdaDirac, LimitParams,
                      McEstimate, RecurrenceReport, StickBreaking, as_atoms,
                      compare, fixation_probability, kappa_star,
                      neutral_family, offspring_delta, recurrence_probe,
                      sample_masses, total_mass)
from cannings.threshold import _digamma_slope, kappa_star_quadrature
from kappa_sampler import DegenerateDraws, kappa_star_mc


def dirac_threshold(y, law, mass=1.0):
    """kappa_star for mass * delta_[y] at kingman_rate 0."""
    return kappa_star(LimitParams(1.0, 0.0, law, xi=LambdaDirac(y, mass)))


def test_closed_form_reference_value():
    # -log(1 - 1/2) / (1/2)^2 = 4 log 2
    value, reason = dirac_threshold(0.5, offspring_delta(1))
    assert reason is None
    assert abs(value - 2.772588722239781) < 1e-12
    assert abs(value - 4 * math.log(2)) < 1e-12


def test_closed_form_scaling_in_beta():
    # beta is an outer 1/beta factor
    assert abs(dirac_threshold(0.5, offspring_delta(2))[0]
               - 2 * math.log(2)) < 1e-12
    for y in (0.1, 0.7):
        assert abs(dirac_threshold(y, offspring_delta(4))[0] * 4
                   - dirac_threshold(y, offspring_delta(1))[0]) < 1e-12


def test_closed_form_small_and_large_y():
    def closed(y):
        return dirac_threshold(y, offspring_delta(1))[0]

    # small atoms: kappa* ~ 1/y (so it decreases as y grows from 0)
    for y in (0.001, 0.01):
        assert abs(y * closed(y) - 1.0) <= y
    grid = [0.02, 0.05, 0.1, 0.2]
    vals = [closed(y) for y in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # near-total mergers push the threshold back up to infinity
    assert closed(1.0 - 1e-9) > closed(0.9)


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        dirac_threshold(0.0, offspring_delta(1))
    assert dirac_threshold(1.0, offspring_delta(1))[0] == math.inf
    with pytest.raises(ValueError):
        dirac_threshold(0.5, neutral_family())


def test_kappa_star_scales_the_dirac_closed_form_with_mass():
    assert dirac_threshold(0.5, offspring_delta(2), 2.0) == (
        2.0 * dirac_threshold(0.5, offspring_delta(2))[0], None)


def test_kappa_star_one_atom_finite_atomic_is_the_dirac():
    # the same measure m delta_[y], written as one atom of weight m
    for y, m in ((0.5, 1.0), (0.3, 2.5), (0.97, 0.4)):
        atomic = LimitParams(1.0, 0.0, offspring_delta(1),
                             xi=FiniteAtomic(((m, (y,)),)))
        assert kappa_star(atomic) == dirac_threshold(y, offspring_delta(1), m)


def test_kappa_star_atoms_closed_form_matches_quadrature():
    # sum over atoms of w (-log(1 - |z|)) / sum(z^2): 6.5452 + 2.7726; the
    # quadrature reads sum(Z*^2) off the normalized groups
    xi = FiniteAtomic(((1.0, (0.3, 0.2, 0.1)), (1.0, (0.5,))))
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=xi)
    value, reason = kappa_star(params)
    assert reason is None
    assert abs(value - (-math.log(0.4) / 0.14 + 4 * math.log(2))) < 1e-12
    quad = kappa_star_quadrature(params)
    assert quad.replicates == 64
    assert abs(quad.mean - value) <= 1e-14 * value
    assert compare(quad, McEstimate.exact(value)).passed


@pytest.mark.parametrize("xi", [
    # an atom of full size: every lineage joins one of its two groups
    FiniteAtomic(((1.0, (0.4,)), (1.0, (0.6, 0.4)))),
    StickBreaking(), LambdaBeta(0.5, 1.5), LambdaBeta(1.0, 2.0)],
    ids=["two-group-full", "stick", "beta-0.5", "beta-1"])
def test_kappa_star_infinite_where_the_integral_diverges(xi):
    value, reason = kappa_star(LimitParams(1.0, 0.0, offspring_delta(1),
                                           xi=xi))
    assert value == math.inf and reason.startswith("kappa* = inf")


@pytest.mark.parametrize("sigma, y", [(0.5, 0.5), (0.0, 1.0)])
def test_kappa_star_infinite_with_a_reason(sigma, y):
    # pairwise mergers, or total mergers, pull the chain back to one
    # lineage at every selection rate
    params = LimitParams(1.0, sigma, offspring_delta(1),
                         xi=LambdaDirac(y, 1.0))
    value, reason = kappa_star(params)
    assert value == math.inf and reason.startswith("kappa* = inf")


def test_kappa_star_without_a_measure_is_zero():
    # no measure is the empty atom list: the dual chain only branches and
    # escapes at every selection rate > 0
    params = LimitParams(1.0, 0.0, offspring_delta(1))
    assert kappa_star(params) == (0.0, None)


EULER_GAMMA = 0.5772156649015329
# psi's one positive root
PSI_ROOT = 1.4616321449683622
PSI_GRID = np.concatenate([np.geomspace(1e-3, 1e3, 601),
                           PSI_ROOT + np.linspace(-1e-3, 1e-3, 41)])


def test_digamma_matches_scipy():
    # psi(1 + x) - psi(1) = x slope(1, x) and psi(x) = psi(1 + x) - 1 / x;
    # relative to max(1, |psi|), so absolute near the root
    for x in PSI_GRID:
        psi = x * _digamma_slope(1.0, x) - 1.0 / x - EULER_GAMMA
        want = special.digamma(x)
        assert abs(psi - want) <= 1e-13 * max(1.0, abs(want)), x


def test_trigamma_matches_scipy():
    for x in PSI_GRID:
        want = special.polygamma(1, x)
        assert abs(_digamma_slope(x, 0.0) - want) <= 1e-13 * want, x


def beta_reference(a, b):
    """E[-log(1 - Y) / Y^2], Y ~ Beta(a, b), by scipy's quad: the
    integral of y^(a-3) (1-y)^(b-1) (-log(1-y)) / B(a, b), split at 1/2
    so that QUADPACK's algebraic and log weights take both ends."""
    def near(y):
        return (-math.log1p(-y) / y if y else 1.0) * (1.0 - y) ** (b - 1.0)

    low, _ = integrate.quad(near, 0.0, 0.5, weight="alg", wvar=(a - 2.0, 0.0),
                            epsabs=0.0, epsrel=1e-13, limit=200)
    high, _ = integrate.quad(lambda y: -y ** (a - 3.0), 0.5, 1.0,
                             weight="alg-logb", wvar=(0.0, b - 1.0),
                             epsabs=0.0, epsrel=1e-13, limit=200)
    return (low + high) / special.beta(a, b)


# the closed form's checkpoints, its removable points a = 2 and a + b = 2
# and their neighbours, where the naive form loses digits, and the
# Beta(2 - alpha, alpha) coalescents
BETA_POINTS = [(2.5, 1.0), (3.0, 2.0), (1.5, 1.5), (2.0, 1.0), (2.0, 3.0),
               (1.2, 0.7), (5.0, 0.5), (1.5, 2.0), (2.0, 0.5),
               (2.0 + 1e-7, 0.5), (2.0 - 1e-7, 0.5), (1.5, 0.5),
               (1.5, 0.5 + 1e-7), (1.5, 0.5 - 1e-7), (1.05, 0.2),
               (1.05, 0.95), (1.9, 0.1), (1.01, 0.99)]
# b < 0.01 near a = 2, the Beta(2 - alpha, alpha) line among them: every
# node of a 64-node Laguerre rule in b t lies at t >~ 4 there, so that
# Q_64 and Q_32 of that rule miss the same mass
SMALL_B_POINTS = [(2.0, 0.005), (1.99, 0.005), (2.01, 0.001), (2.1, 0.005),
                  (1.994, 0.006), (1.997, 0.003), (1.999, 0.001)]
# a -> 1, where kappa* grows as 1 / (a - 1): the closed form is a sum of
# positive terms with no rounded b + 1, so it keeps its digits
BETA_POINTS += SMALL_B_POINTS + [
    (a, b) for a in (1.0 + 1e-7, 1.0 + 1e-5, 1.001, 1.01)
    for b in (0.0005, 0.05, 1.0)]


@pytest.mark.parametrize("a, b", BETA_POINTS)
def test_kappa_star_beta_matches_scipy_quad(a, b):
    params = LimitParams(1.0, 0.0, offspring_delta(2),
                         xi=LambdaBeta(a, b, total_mass=3.0))
    value, reason = kappa_star(params)
    assert reason is None
    # m / beta = 3 / 2 times the Beta mean
    assert value == pytest.approx(1.5 * beta_reference(a, b), rel=1e-10)


@pytest.mark.parametrize("a, b", BETA_POINTS)
def test_kappa_star_beta_quadrature_check_passes(a, b):
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=LambdaBeta(a, b))
    value, _ = kappa_star(params)
    quad = kappa_star_quadrature(params)
    assert 0.0 < quad.std_error < 1e-5 * value
    assert compare(quad, McEstimate.exact(value)).passed


def test_kappa_star_beta_at_two_is_the_trigamma_form():
    # kappa* = m b (b + 1) psi'(b) / beta at a = 2
    b = 0.7
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=LambdaBeta(2.0, b))
    assert kappa_star(params)[0] == pytest.approx(
        b * (b + 1.0) * special.polygamma(1, b), rel=1e-14)


@pytest.mark.parametrize("a, b", SMALL_B_POINTS)
def test_kappa_star_quadrature_resolves_small_b(a, b):
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=LambdaBeta(a, b))
    value, _ = kappa_star(params)
    assert 0.0 < kappa_star_quadrature(params).std_error < 1e-13 * value


@pytest.mark.parametrize("a, b", [(2.5, 1.0), (2.0, 0.005), (1.05, 0.2)])
def test_kappa_star_check_fails_a_perturbed_closed_form(a, b):
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=LambdaBeta(a, b))
    value, _ = kappa_star(params)
    quad = kappa_star_quadrature(params)
    assert not compare(quad, McEstimate.exact(value * (1.0 + 1e-9))).passed


# the Monte Carlo estimator that acceptance check c06 uses


def test_mc_matches_closed_form():
    rng = np.random.default_rng(61)
    est = kappa_star_mc(LambdaDirac(0.5, 1.0), 1.0, 100_000, rng)
    assert abs(est.mean - 4 * math.log(2)) <= 3 * est.std_error
    assert est.std_error < 0.05


def test_mc_beta_scaling_exact():
    xi = LambdaDirac(0.5, 1.0)
    a = kappa_star_mc(xi, 1.0, 10_000, np.random.default_rng(5))
    b = kappa_star_mc(xi, 2.0, 10_000, np.random.default_rng(5))
    assert abs(a.mean - 2.0 * b.mean) < 1e-12
    assert abs(a.std_error - 2.0 * b.std_error) < 1e-12


def test_mc_scales_with_total_mass():
    # the chain's xi events fire at a rate proportional to the mass, so
    # the threshold scales with it; at mass 1 the estimate is unchanged
    a = kappa_star_mc(LambdaDirac(0.5, 1.0), 1.0, 10_000,
                      np.random.default_rng(9))
    for mass in (0.25, 3.0):
        b = kappa_star_mc(LambdaDirac(0.5, mass), 1.0, 10_000,
                          np.random.default_rng(9))
        assert b.mean == pytest.approx(mass * a.mean, rel=1e-12)
        assert b.std_error == pytest.approx(mass * a.std_error, rel=1e-12)


def test_mc_heavy_tail_warning():
    # an atom close to 1 puts most of the integral into the extreme
    # draws (integrand ~ 1/(1-W)); the tail share must trip the warning
    rng = np.random.default_rng(33)
    diag = {}
    with pytest.warns(RuntimeWarning, match="possible infinite variance"):
        kappa_star_mc(LambdaDirac(1.0 - 1e-6, 1.0), 1.0, 20_000, rng,
                      diagnostics=diag)
    assert diag["tail_share"] > 0.20
    assert diag["tail_draws"] == 20
    assert diag["max_value"] > 100.0


def test_mc_no_warning_for_moderate_atom():
    rng = np.random.default_rng(34)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa_star_mc(LambdaDirac(0.5, 1.0), 1.0, 20_000, rng)


def test_mc_degenerate_draw_guard():
    class ZeroRng:
        def random(self, size=None):
            return np.zeros(size) if size is not None else 0.0

        def choice(self, n, size=None, p=None):
            return np.zeros(size, dtype=np.int64)

    with pytest.raises(ValueError, match="degenerate"):
        kappa_star_mc(LambdaDirac(0.5, 1.0), 1.0, 100, ZeroRng())


def test_mc_argument_errors():
    rng = np.random.default_rng(0)
    xi = LambdaDirac(0.5, 1.0)
    with pytest.raises(ValueError):
        kappa_star_mc(xi, 0.0, 100, rng)
    with pytest.raises(ValueError):
        kappa_star_mc(xi, math.inf, 100, rng)
    with pytest.raises(ValueError):
        kappa_star_mc(xi, 1.0, 1, rng)


def whole_array_kappa_star_mc(xi, mean_extra, replicates, rng, diagnostics):
    """The estimator as whole-array passes: every point drawn and stored
    (atoms through ``rng.choice``, one atom tiled without a draw), all U
    drawn at once, the tail from a partitioned copy."""
    atoms = as_atoms(xi)
    if atoms is not None:
        width = max(len(z) for _, z in atoms)
        matrix = np.array([z.masses + (0.0,) * (width - len(z))
                           for _, z in atoms])
        weights = np.array([w for w, _ in atoms])
        masses = (np.repeat(matrix, replicates, axis=0) if len(atoms) == 1
                  else matrix[rng.choice(len(atoms), size=replicates,
                                         p=weights / weights.sum())])
    else:
        masses = sample_masses(xi, replicates, rng)
    totals = masses.sum(axis=1)
    if masses.shape[1] == 1:
        ssq = np.ones(replicates)
    else:
        frac = masses / totals[:, None]
        ssq = (frac * frac).sum(axis=1)
    w = np.sqrt(rng.random(replicates)) * totals
    if np.any(w <= 0.0) or np.any(w >= 1.0):
        raise DegenerateDraws("degenerate draw with W in {0, 1}")
    vals = 1.0 / (ssq * (2.0 * mean_extra / total_mass(xi)) * w * (1.0 - w))
    top = max(1, int(0.001 * replicates))
    share = (float(np.sort(np.partition(vals, -top)[-top:]).sum())
             / float(vals.sum()))
    diagnostics.update(tail_share=share, tail_draws=top,
                       max_value=float(vals.max()))
    if share > 0.20 and top / replicates < 0.20:
        warnings.warn(
            "possible infinite variance: the top "
            f"0.1% of draws carry {100 * share:.1f}% "
            "of the sum; the standard error is unreliable", RuntimeWarning)
    return McEstimate.from_samples(vals)


BIT_GRID = {
    "dirac-0.5": LambdaDirac(0.5, 1.0),
    "2dirac-0.3": LambdaDirac(0.3, 2.0),
    "near-one": LambdaDirac(1.0 - 1e-6, 1.0),
    "three-groups": FiniteAtomic(((1.5, (0.3, 0.2, 0.1)),)),
    "two-atoms": FiniteAtomic(((1.0, (0.3, 0.2, 0.1)), (1.0, (0.5,)))),
    "beta-2.5-1": LambdaBeta(2.5, 1.0),
    "beta-0.5-1.5": LambdaBeta(0.5, 1.5),
    "stick": StickBreaking(),
}


def run_recorded(estimator, xi, replicates, seed):
    """(estimate or error, diagnostics, warning texts, next uniform)."""
    rng = np.random.default_rng(seed)
    diag = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = estimator(xi, 1.3, replicates, rng, diag)
        except DegenerateDraws as exc:
            out = str(exc)
    return out, diag, [str(w.message) for w in caught], rng.random()


@pytest.mark.parametrize("name", sorted(BIT_GRID))
@pytest.mark.parametrize("seed", [0, 61])
# 16_385 is one past a chunk of 2^14 draws; 100_003 is no multiple of it
@pytest.mark.parametrize("replicates", [2, 16_385, 100_003])
def test_mc_is_the_whole_array_estimator_bit_for_bit(name, seed, replicates):
    # the chunked pass draws the same stream and does the same arithmetic
    # on every value: estimate, diagnostics, warning and the generator's
    # next draw are identical
    xi = BIT_GRID[name]
    got = run_recorded(kappa_star_mc, xi, replicates, seed)
    want = run_recorded(whole_array_kappa_star_mc, xi, replicates, seed)
    assert isinstance(got[0], McEstimate)
    assert got == want


def test_mc_degenerate_draws_agree_with_the_whole_array_estimator():
    # Beta(0.01, 1) draws underflow to y = 0, so some W = 0; the error
    # comes at the first chunk holding one
    got = run_recorded(kappa_star_mc, LambdaBeta(0.01, 1.0), 200_000, 0)
    want = run_recorded(whole_array_kappa_star_mc, LambdaBeta(0.01, 1.0),
                        200_000, 0)
    assert got[0] == "degenerate draw with W in {0, 1}"
    assert got[:3] == want[:3]


@pytest.mark.parametrize("replicates", [2, 16_385])
def test_mc_one_atom_draws_only_its_uniforms(replicates):
    # a one-atom point is a constant: the estimator draws U and nothing
    # else, so the generator stands where rng.random(replicates) leaves it
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    kappa_star_mc(LambdaDirac(0.5, 1.0), 1.0, replicates, rng)
    ref.random(replicates)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("replicates", [2, 3, 4])
def test_mc_few_replicates_do_not_warn(replicates):
    # the one top draw is at least a quarter of the sum of four: a tail
    # that is no small share of the draws says nothing of the variance
    diag = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kappa_star_mc(LambdaDirac(0.5, 1.0), 1.0, replicates,
                      np.random.default_rng(replicates), diag)
    assert diag["tail_draws"] == 1 and diag["tail_share"] >= 1 / replicates


def traced_peak_mib(xi) -> float:
    """tracemalloc's peak over one 10^6-draw call, in MiB."""
    kappa_star_mc(xi, 1.0, 100, np.random.default_rng(1))  # warm up
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        kappa_star_mc(xi, 1.0, 10**6, rng)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("xi, limit", [
    # one array of values and the standard error's one temporary
    (LambdaDirac(0.5, 1.0), 16.0),
    # one (draws, width + 2) table of the atoms' fractions, sums and |Z|,
    # read with one draw: 45.8 MiB, not the 61.0 of a mass and a fraction
    # matrix per draw
    (FiniteAtomic(((0.6, (0.3, 0.2)), (0.4, (0.7,)))), 46.3),
    # no more than the whole-array estimator's peak (30.5 MiB)
    (LambdaBeta(2.5, 1.0), 30.6),
], ids=["dirac", "two-atoms", "beta"])
def test_mc_memory(xi, limit):
    assert traced_peak_mib(xi) <= limit


def coalescing_params() -> LimitParams:
    return LimitParams(0.0, 1.0, offspring_delta(1))


def test_fixation_escaping_regime_is_certain():
    probe = RecurrenceReport("escaping", 1.0, 0.0, None)
    # the weak type is lost surely unless it has already fixed at x = 1
    for x, expect in ((0.0, 1.0), (0.25, 1.0), (1.0, 0.0)):
        est = fixation_probability(x, probe)
        assert est.mean == expect and est.std_error == 0.0


def test_fixation_inconclusive_probe_raises():
    probe = RecurrenceReport("inconclusive", 0.4, 2.0, 1.0)
    with pytest.raises(ValueError, match="inconclusive"):
        fixation_probability(0.25, probe)


def test_fixation_recurrent_regime_uses_occupation_pgf():
    # pure coalescence: the dual chain sits at 1, so phi(x) = x and the
    # weak type is lost with probability 1 - x, with zero standard error
    rng = np.random.default_rng(77)
    probe = recurrence_probe(coalescing_params(), 2, horizon=30.0, cap=1_000,
                             replicates=25, rng=rng, burn_in=10.0)
    # a dead chain never re-enters 1, so force the recurrent branch
    probe = dataclasses.replace(probe, verdict="recurrent-looking")
    for x, expect in ((0.0, 1.0), (0.3, 0.7), (1.0, 0.0)):
        est = fixation_probability(x, probe)
        assert abs(est.mean - expect) < 1e-12
        assert est.std_error < 1e-12


def test_fixation_recurrent_probe_requires_stationary():
    # a recurrent-looking probe run without burn_in kept no occupation
    probe = RecurrenceReport("recurrent-looking", 0.0, 50.0, 1.0)
    with pytest.raises(ValueError, match="occupation"):
        fixation_probability(0.5, probe)


def dirac_fixation_exact(x: float, kappa: float, y: float,
                         n_max: int) -> tuple[float, float]:
    """(1 - sum_n pi(n) x^n, pi(n_max)) for the dual chain of
    Lambda = delta_y with delta-1 offspring, its generator truncated to
    {1, ..., n_max} by dropping the branch out of n_max.  A delta_y event
    merges k >= 2 of n lineages at rate C(n, k) y^k (1 - y)^(n - k) / y^2."""
    q = np.zeros((n_max + 1, n_max + 1))  # index 0 unused
    for n in range(1, n_max + 1):
        if n < n_max:
            q[n, n + 1] = kappa * n
        for k in range(2, n + 1):
            q[n, n - k + 1] += (math.comb(n, k) * y ** k * (1 - y) ** (n - k)
                                / y ** 2)
        q[n, n] = -q[n].sum()
    # pi Q = 0 with sum(pi) = 1: the last balance equation is redundant
    a = q[1:, 1:].T.copy()
    a[-1] = 1.0
    rhs = np.zeros(n_max)
    rhs[-1] = 1.0
    pi = np.linalg.solve(a, rhs)
    return 1.0 - float(pi @ x ** np.arange(1.0, n_max + 1)), float(pi[-1])


def test_fixation_matches_exact_generator_solve():
    # Lambda = delta_0.5, kappa = 1 < kappa* = 4 ln 2: the truncated
    # stationary law gives the loss probability from x = 0.5
    exact, tail = dirac_fixation_exact(0.5, 1.0, 0.5, 200)
    assert abs(exact - 0.7391521) < 5e-8
    assert tail < 1e-6
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=LambdaDirac(0.5))
    probe = recurrence_probe(params, 2, horizon=200.0, cap=10_000,
                             replicates=100, rng=np.random.default_rng(13),
                             burn_in=50.0)
    assert probe.verdict == "recurrent-looking"
    est = fixation_probability(0.5, probe)
    assert est.replicates == 100
    assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_fixation_domain_error():
    probe = RecurrenceReport("escaping", 1.0, 0.0, None)
    with pytest.raises(ValueError):
        fixation_probability(1.5, probe)
