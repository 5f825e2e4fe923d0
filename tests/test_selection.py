import math

import numpy as np
import pytest

from cannings import (SelectionLaw, branching_drift, explicit_family,
                      geometric_family, geometric_offspring, neutral_family,
                      offspring_delta, offspring_pmf, pgf,
                      sample_parent_counts, selection_shape)
from cannings.selection import _geom_terms

X_GRID = np.arange(0.0, 1.0001, 0.05)


def test_law_validation():
    with pytest.raises(ValueError):
        SelectionLaw(1.2, extra_pmf=(1.0,))          # multi_prob out of range
    with pytest.raises(ValueError):
        SelectionLaw(0.5, extra_pmf=(0.5, 0.4))      # pmf does not sum to 1
    with pytest.raises(ValueError):
        SelectionLaw(0.5)                             # no conditional law given
    with pytest.raises(ValueError):
        SelectionLaw(0.5, extra_pmf=(1.0,), geometric_param=0.5)  # both given
    law = SelectionLaw(0.5, extra_pmf=(0.6,), extra_inf_mass=0.4)
    assert law.inf_mass == 0.2                        # 0.5 * 0.4
    assert math.isinf(law.mean_extra)


def test_pgf_basic_values():
    neutral = neutral_family()
    assert pgf(neutral, 0.0) == 0.0
    assert pgf(neutral, 1.0) == 1.0
    assert pgf(neutral, 0.37) == 0.37
    # geometric(0.1): pgf(0.5) = 0.5 * 0.9 / (1 - 0.05) = 0.47368421...
    law = geometric_family(0.1)
    assert abs(pgf(law, 0.5) - 0.45 / 0.95) < 1e-14
    assert pgf(law, 0.0) == 0.0
    assert abs(pgf(law, 1.0) - 1.0) < 1e-12


@pytest.mark.parametrize("s", [0.01, 0.1, 0.5])
def test_geometric_pgf_matches_closed_form(s):
    law = geometric_family(s)
    for x in X_GRID:
        closed = x * (1.0 - s) / (1.0 - x * s)
        assert abs(pgf(law, float(x)) - closed) < 1e-12


def test_pgf_with_mass_at_infinity():
    # x^inf = 0 below 1; pgf(1) carries the defect 1 - P(K = inf)
    law = SelectionLaw(0.5, extra_pmf=(0.6,), extra_inf_mass=0.4)
    assert abs(pgf(law, 1.0) - (1.0 - 0.2)) < 1e-15
    # at x < 1 the infinite-pick branch contributes nothing:
    # 0.5 x + 0.5 * 0.6 * x^2
    assert abs(pgf(law, 0.5) - (0.25 + 0.3 * 0.25)) < 1e-15


def test_pgf_nondecreasing_and_convex_on_grid():
    laws = [neutral_family(), geometric_family(0.3),
            explicit_family((0.2, 0.5, 0.3))]
    for law in laws:
        vals = np.array([pgf(law, float(x)) for x in X_GRID])
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) >= -1e-12)


def test_selection_shape_hand_values():
    # pi = delta_1: s(x) = P(K* >= 1) = 1 everywhere
    for x in (0.0, 0.3, 1.0):
        assert abs(selection_shape(offspring_delta(1), x) - 1.0) < 1e-14
    # pi = delta_2: s(x) = 1 + x
    for x in (0.0, 0.5, 1.0):
        assert abs(selection_shape(offspring_delta(2), x) - (1.0 + x)) < 1e-14


def test_selection_shape_at_one_equals_mean():
    for law, beta in ((offspring_delta(1), 1.0), (offspring_delta(5), 5.0),
                      (geometric_offspring(0.25), 1.0 / 0.75),
                      (offspring_pmf((0.5, 0.5)), 1.5)):
        assert abs(selection_shape(law, 1.0) - beta) < 1e-10
        assert abs(law.mean_extra - beta) < 1e-12


def test_selection_shape_rejects_infinite_mean():
    law = SelectionLaw(1.0, extra_pmf=(0.5,), extra_inf_mass=0.5)
    with pytest.raises(ValueError):
        selection_shape(law, 0.5)


def test_branching_drift_hand_values():
    # pi = delta_2, x = 0.5: 0.5^3 - 0.5 = -0.375
    assert abs(branching_drift(offspring_delta(2), 0.5) - (-0.375)) < 1e-15
    # pi = delta_1, x = 0.25: 0.0625 - 0.25 = -0.1875 = -x(1-x)
    assert abs(branching_drift(offspring_delta(1), 0.25) - (-0.1875)) < 1e-15
    for law in (offspring_delta(1), geometric_offspring(0.2)):
        assert branching_drift(law, 0.0) == 0.0
        assert abs(branching_drift(law, 1.0)) < 1e-12


@pytest.mark.parametrize("law", [offspring_delta(1), offspring_delta(2),
                                 offspring_delta(5), geometric_offspring(0.1)])
def test_drift_identity_on_grid(law):
    # sum_i pi_i (x^(i+1) - x) = -x (1-x) s(x), the two routes computed
    # through independent code paths
    for x in X_GRID:
        x = float(x)
        direct = branching_drift(law, x)
        via_shape = -x * (1.0 - x) * selection_shape(law, x)
        assert abs(direct - via_shape) < 1e-12


def test_branching_drift_nonpositive_vanishing_only_at_ends():
    for law in (offspring_delta(2), geometric_offspring(0.4)):
        for x in X_GRID:
            d = branching_drift(law, float(x))
            if 0.0 < x < 1.0:
                assert d < 0.0
            else:
                assert abs(d) < 1e-12


def test_sample_parent_counts_geometric_mean():
    # K for geometric_family(s): P(K = k) = s^(k-1) (1 - s); E K = 1/(1-s)
    rng = np.random.default_rng(19)
    s = 0.3
    draws = 100_000
    counts = sample_parent_counts(geometric_family(s), draws, rng)
    assert np.all(counts >= 1)
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(draws)
    assert abs(mean - 1.0 / (1.0 - s)) <= 3 * se


def test_sample_parent_counts_infinity_sentinel():
    rng = np.random.default_rng(4)
    law = SelectionLaw(1.0, extra_pmf=(), extra_inf_mass=1.0)
    counts = sample_parent_counts(law, 100, rng)
    assert np.all(counts == -1)


def test_explicit_family_round_trip():
    # full law of K: P(1)=0.7, P(2)=0.2, P(3)=0.1
    law = explicit_family((0.7, 0.2, 0.1))
    assert abs(law.multi_prob - 0.3) < 1e-15
    assert law.extra_pmf == pytest.approx((2 / 3, 1 / 3))
    # pgf by hand at 0.5: 0.7*0.5 + 0.2*0.25 + 0.1*0.125 = 0.4125
    assert abs(pgf(law, 0.5) - 0.4125) < 1e-15


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 0.99])
def test_geometric_closed_form_matches_truncated_pmf(s):
    # the closed-form geometric sums against Horner over the same truncated
    # pmf, written out explicitly: pi_i = (1-s) s^(i-1), i = 1 .. M
    m = _geom_terms(s)
    pi = tuple((1.0 - s) * s ** (i - 1) for i in range(1, m + 1))
    # selection_shape sums the tails s^(k-1) for k <= M'; an explicit pmf
    # with those tails lumps the geometric tail beyond M' at M'
    m_shape = _geom_terms(s, slack=1.0 - s)
    lumped = tuple((1.0 - s) * s ** (i - 1) for i in range(1, m_shape)) \
        + (s ** (m_shape - 1),)
    pairs = [
        (pgf(geometric_family(s), X_GRID), pgf(SelectionLaw(s, extra_pmf=pi), X_GRID)),
        (selection_shape(geometric_offspring(s), X_GRID),
         selection_shape(offspring_pmf(lumped), X_GRID)),
        (branching_drift(geometric_offspring(s), X_GRID),
         branching_drift(offspring_pmf(pi), X_GRID)),
    ]
    for closed, explicit in pairs:
        # relative above 1: s(1) = 1/(1-s) is 100 at s = 0.99
        assert np.all(np.abs(closed - explicit)
                      <= 1e-13 * np.maximum(1.0, np.abs(explicit)))
