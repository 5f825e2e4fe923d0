import math
import warnings

import numpy as np
import pytest

from cannings import (LambdaDirac, LimitParams, RecurrenceReport,
                      fixation_probability, kappa_star_dirac, kappa_star_mc,
                      offspring_delta, recurrence_probe, stationary_estimate)


def test_closed_form_reference_value():
    # -log(1 - 1/2) / (1/2)^2 = 4 log 2
    assert abs(kappa_star_dirac(0.5, 1.0) - 2.772588722239781) < 1e-12
    assert abs(kappa_star_dirac(0.5, 1.0) - 4 * math.log(2)) < 1e-12


def test_closed_form_scaling_in_beta():
    # beta is an outer 1/beta factor
    assert abs(kappa_star_dirac(0.5, 2.0) - 2 * math.log(2)) < 1e-12
    for y in (0.1, 0.7):
        assert abs(kappa_star_dirac(y, 4.0) * 4 - kappa_star_dirac(y, 1.0)) < 1e-12


def test_closed_form_small_and_large_y():
    # small atoms: kappa* ~ 1/y (so it decreases as y grows from 0)
    for y in (0.001, 0.01):
        assert abs(y * kappa_star_dirac(y, 1.0) - 1.0) <= y
    grid = [0.02, 0.05, 0.1, 0.2]
    vals = [kappa_star_dirac(y, 1.0) for y in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # near-total mergers push the threshold back up to infinity
    assert kappa_star_dirac(1.0 - 1e-9, 1.0) > kappa_star_dirac(0.9, 1.0)


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        kappa_star_dirac(0.0, 1.0)
    with pytest.raises(ValueError):
        kappa_star_dirac(1.0, 1.0)
    with pytest.raises(ValueError):
        kappa_star_dirac(0.5, 0.0)


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


def test_mc_total_mass_invariance():
    # the threshold depends on the normalized measure only
    a = kappa_star_mc(LambdaDirac(0.5, 1.0), 1.0, 10_000,
                      np.random.default_rng(9))
    b = kappa_star_mc(LambdaDirac(0.5, 3.0), 1.0, 10_000,
                      np.random.default_rng(9))
    assert a.mean == b.mean and a.std_error == b.std_error


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


def coalescing_params() -> LimitParams:
    return LimitParams(0.0, 1.0, offspring_delta(1))


def test_fixation_escaping_regime_is_certain():
    probe = RecurrenceReport("escaping", 1.0, 0.0, None, 10, 100.0, 1000)
    # the weak type is lost surely unless it has already fixed at x = 1
    for x, expect in ((0.0, 1.0), (0.25, 1.0), (1.0, 0.0)):
        est = fixation_probability(x, probe)
        assert est.mean == expect and est.std_error == 0.0


def test_fixation_inconclusive_probe_raises():
    probe = RecurrenceReport("inconclusive", 0.4, 2.0, 1.0, 10, 100.0, 1000)
    with pytest.raises(ValueError, match="inconclusive"):
        fixation_probability(0.25, probe)


def test_fixation_recurrent_regime_uses_occupation_pgf():
    # pure coalescence: the dual chain sits at 1, so phi(x) = x and the
    # weak type is lost with probability 1 - x, with zero standard error
    rng = np.random.default_rng(77)
    params = coalescing_params()
    probe = recurrence_probe(params, 2, horizon=100.0, cap=1_000,
                             replicates=10, rng=rng)
    # a dead chain never re-enters 1, so force the recurrent branch
    probe = RecurrenceReport("recurrent-looking", 0.0, 99.0, 1.0, 10,
                             100.0, 1_000) if probe.verdict != \
        "recurrent-looking" else probe
    stationary = stationary_estimate(params, 2, burn_in=10.0, horizon=30.0,
                                     replicates=25, rng=rng)
    for x, expect in ((0.0, 1.0), (0.3, 0.7), (1.0, 0.0)):
        est = fixation_probability(x, probe, stationary)
        assert abs(est.mean - expect) < 1e-12
        assert est.std_error < 1e-12


def test_fixation_recurrent_probe_requires_stationary():
    probe = RecurrenceReport("recurrent-looking", 0.0, 50.0, 1.0, 10,
                             100.0, 1_000)
    with pytest.raises(ValueError, match="stationary"):
        fixation_probability(0.5, probe)


def test_fixation_domain_error():
    probe = RecurrenceReport("escaping", 1.0, 0.0, None, 10, 100.0, 1000)
    with pytest.raises(ValueError):
        fixation_probability(1.5, probe)
