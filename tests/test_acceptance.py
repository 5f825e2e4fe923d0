"""Acceptance suite: ten end-to-end checks of the toolkit's core claims.

Each test prints one ``[PASS]``/``[FAIL]`` line with the measured quantity
and its tolerance (run with ``pytest tests/test_acceptance.py -v -s`` to see
them), then asserts the same condition.  Criteria 1-6 are exact or
tight-tolerance identities; 7-9 are seeded Monte Carlo checks; 10 takes its
verdict from exact kernels and smoke-checks them with a seeded Monte Carlo
run.  All are fully deterministic.
"""

import math

import numpy as np

from cannings import (
    DiscreteParams,
    FiniteAtomic,
    LambdaDirac,
    LimitParams,
    McEstimate,
    SelectionLaw,
    ancestral_trajectories,
    branching_drift,
    exact_transition_matrices,
    forward_trajectories,
    generator_apply_bernoulli,
    generator_apply_exact,
    generator_matrix,
    geometric_family,
    geometric_offspring,
    moment_duality_check,
    neutral_family,
    offspring_delta,
    pgf,
    recurrence_probe,
    sampling_duality_check,
    selection_shape,
    simulate_batch,
)
from kappa_sampler import kappa_star_mc

DIRAC_HALF = LambdaDirac(0.5, 1.0)
X_GRID = [i / 20 for i in range(21)]  # 0, 0.05, ..., 1


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {name} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c01_branching_drift_identity():
    # sum_i pi_i (x^{i+1} - x) must equal -x(1-x)s(x) for every conditional
    # extra-parent law pi
    laws = [offspring_delta(1), offspring_delta(2), offspring_delta(5),
            geometric_offspring(0.1)]
    worst = max(abs(branching_drift(law, x) + x * (1 - x) * selection_shape(law, x))
                for law in laws for x in X_GRID)
    _verdict(1, "branching drift identity", worst < 1e-12,
             f"max gap {worst:.2e} over 4 laws x 21 points (tol 1e-12)")


def test_c02_generator_duality_exact():
    # forward generator on x^n equals the dual chain's rate matrix Q on
    # n -> x^n (states up to 8, so every branching from n <= 6 stays
    # inside), by exact enumeration on both sides
    measures = [DIRAC_HALF,
                FiniteAtomic(((1.0, (0.3, 0.2)), (1.0, (0.5,))))]
    worst = 0.0
    count = 0
    for xi in measures:
        for sigma in (0.0, 1.0):
            for law in (offspring_delta(1), offspring_delta(2)):
                params = LimitParams(1.0, sigma, law, xi=xi)
                q = generator_matrix(params, 8)
                for n in range(1, 7):
                    for x in [i / 10 for i in range(1, 10)]:
                        fwd = generator_apply_exact(params, n, x)
                        dual = q[n - 1] @ x ** np.arange(1.0, 10.0)
                        worst = max(worst, abs(fwd - dual))
                        count += 1
    _verdict(2, "generator duality (exact)", worst < 1e-10,
             f"max |A x^n - Q x^n| = {worst:.2e} over {count} cases (tol 1e-10)")


def test_c03_bernoulli_generator_mc():
    # the two-coin Bernoulli factory estimate of the jump generator matches
    # exact enumeration for f(x) = x^3
    rng = np.random.default_rng(7)
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    worst_z = 0.0
    for x in (0.25, 0.5, 0.75):
        exact = generator_apply_exact(params, 3, x)
        est = generator_apply_bernoulli(params, 3, x, 10**6, rng)
        assert est.std_error > 0.0
        worst_z = max(worst_z, abs(est.mean - exact) / est.std_error)
    _verdict(3, "Bernoulli generator representation", worst_z <= 4.0,
             f"worst deviation {worst_z:.2f} SE over 3 points (tol 4 SE)")


def test_c04_sampling_duality_exact():
    # finite-population sampling duality holds to matrix-power precision on
    # every small case: E_x[S(X_g, n)] = E_n[S(x, D_g)]
    worst = 0.0
    count = 0
    for pop in (2, 3, 4):
        for extreme_prob in (0.0, 0.2, 1.0):
            for law in (neutral_family(), geometric_family(0.1)):
                params = DiscreteParams(pop, extreme_prob, law, DIRAC_HALF)
                for g in range(1, 6):
                    for n in range(1, pop + 1):
                        for i in range(pop + 1):
                            rep = sampling_duality_check(
                                params, i / pop, n, g, mode="exact")
                            worst = max(worst, rep.gap)
                            count += 1
    _verdict(4, "sampling duality (exact, finite N)", worst < 1e-10,
             f"max gap {worst:.2e} over {count} cases (tol 1e-10)")


def test_c05_weak_selection_pgf():
    # the geometric family's pgf has the classical weak-selection closed form
    worst = max(abs(pgf(geometric_family(s), x) - x * (1 - s) / (1 - x * s))
                for s in (0.01, 0.1, 0.5) for x in X_GRID)
    _verdict(5, "weak-selection pgf closed form", worst < 1e-12,
             f"max gap {worst:.2e} vs x(1-s)/(1-xs) (tol 1e-12)")


def test_c06_kappa_star_mc():
    # Monte Carlo threshold estimate vs the Dirac closed form 4 ln 2
    rng = np.random.default_rng(6)
    est = kappa_star_mc(DIRAC_HALF, 1.0, 10**6, rng)
    target = 4 * math.log(2.0)
    gap = abs(est.mean - target)
    ok = gap <= 3 * est.std_error and est.std_error < 0.01
    _verdict(6, "kappa* Monte Carlo vs closed form", ok,
             f"estimate {est.mean:.4f} vs {target:.4f}, gap {gap:.4f} "
             f"(tol {3 * est.std_error:.4f}), SE {est.std_error:.4f} (< 0.01)")


def test_c07_moment_duality_limit():
    # E_x[X_t^n] = E_n[x^{D_t}] at the limit, Monte Carlo on both sides
    rng = np.random.default_rng(1)
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    rep = moment_duality_check(params, 0.5, 2, 1.0, 1e-3, 10**5, rng)
    _verdict(7, "moment duality at the limit", rep.passed,
             f"gap {rep.gap:.5f} vs tolerance {rep.tolerance:.5f} "
             f"(3 combined SE), lhs {rep.lhs.mean:.4f} rhs {rep.rhs.mean:.4f}")


def test_c08_threshold_behavior():
    # below the threshold (kappa = 1 < 4 ln 2) the dual chain keeps returning
    # to 1; above it (kappa = 6) virtually every replicate escapes the cap
    rng = np.random.default_rng(8)
    low = LimitParams(1.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    high = LimitParams(6.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    rec = recurrence_probe(low, 2, 1000.0, 10_000, 1000, rng)
    esc = recurrence_probe(high, 2, 1000.0, 10_000, 1000, rng)
    ok = (rec.verdict == "recurrent-looking" and rec.escape_fraction == 0.0
          and esc.verdict == "escaping" and esc.escape_fraction >= 0.99)
    _verdict(8, "threshold behavior of the dual chain", ok,
             f"kappa=1: {rec.verdict} (escape {rec.escape_fraction:.3f}, "
             f"mean returns {rec.mean_returns_to_one:.0f}); "
             f"kappa=6: {esc.verdict} (escape {esc.escape_fraction:.3f})")


def test_c09_extinction_above_threshold():
    # above the threshold the weak allele dies out: almost every forward path
    # is near 0 by T = 200
    rng = np.random.default_rng(9)
    params = LimitParams(6.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    finals, _ = simulate_batch(params, 0.5, 200.0, dt=1e-3, n_paths=1000,
                               rng=rng)
    frac = float(np.mean(finals < 0.01))
    _verdict(9, "extinction above threshold", frac >= 0.95,
             f"fraction of paths with X_T < 0.01: {frac:.3f} (need >= 0.95)")


def test_c10_moment_gap_shrink_rate():
    # the forward/ancestral moment gap at finite N shrinks roughly linearly
    # in the event-probability scale h: successive halvings of h should
    # roughly halve the gap (ratio in [1.5, 3]).  The gaps come from the
    # exact kernels; each of the six moments is also simulated, as a
    # smoke check of both chains against its exact value at 3 SE
    rng = np.random.default_rng(4)
    pop, x, n, g = 50, 0.88, 12, 10
    gaps, misses = {}, []
    for h in (0.2, 0.1, 0.05):
        params = DiscreteParams(pop, h, SelectionLaw(h, extra_pmf=(1.0,)),
                                DIRAC_HALF)
        # E[X_10^12] from x = 0.88 against E[0.88^(D_10)] from 12 lineages
        forward, ancestral = exact_transition_matrices(params)
        fwd_exact = (np.linalg.matrix_power(forward, g)[round(x * pop)]
                     @ (np.arange(pop + 1) / pop) ** n)
        anc_exact = (np.linalg.matrix_power(ancestral, g)[n - 1]
                     @ x ** np.arange(1, pop + 1))
        gaps[h] = abs(fwd_exact - anc_exact)
        fwd = forward_trajectories(params, x, g, 100_000, rng)[:, -1]
        anc = ancestral_trajectories(params, n, g, 100_000, rng)[:, -1]
        for side, samples, exact in (("forward", fwd ** n, fwd_exact),
                                     ("ancestral", x ** anc, anc_exact)):
            est = McEstimate.from_samples(samples)
            if abs(est.mean - exact) > 3 * est.std_error:
                misses.append(f"{side} h={h}: {est.mean:.5f} ± "
                              f"{est.std_error:.5f} against {exact:.5f}")
    r1 = gaps[0.2] / gaps[0.1]
    r2 = gaps[0.1] / gaps[0.05]
    ok = 1.5 <= r1 <= 3.0 and 1.5 <= r2 <= 3.0 and not misses
    _verdict(10, "moment-gap shrink rate", ok,
             f"exact gaps {gaps[0.2]:.6f} / {gaps[0.1]:.6f} / "
             f"{gaps[0.05]:.6f}, ratios {r1:.3f}, {r2:.3f} (need both in "
             f"[1.5, 3]); MC moments outside 3 SE: {misses or 'none'}")
