import math

import numpy as np
import pytest
from scipy.stats import norm

from cannings import McEstimate
from cannings.mc import interval


def test_from_samples_matches_hand_computation():
    # mean of (1, 2, 3, 6) = 3; sample sd = sqrt((4+1+0+9)/3) = sqrt(14/3)
    est = McEstimate.from_samples([1.0, 2.0, 3.0, 6.0])
    assert est.mean == 3.0
    assert est.replicates == 4
    assert abs(est.std_error - math.sqrt(14.0 / 3.0) / 2.0) < 1e-15


def test_interval_contains_mean_and_is_symmetric():
    rng = np.random.default_rng(5)
    est = McEstimate.from_samples(rng.normal(2.0, 1.0, size=400))
    lo, hi = est.interval
    assert lo < est.mean < hi
    assert abs((hi - est.mean) - (est.mean - lo)) < 1e-12
    # 95% normal interval: half-width = 1.959964 * SE
    assert abs((hi - lo) / 2.0 - 1.959964 * est.std_error) < 1e-5 * est.std_error


def test_exact_value_has_zero_se():
    est = McEstimate.exact(0.75)
    assert est.mean == 0.75
    assert est.std_error == 0.0
    assert est.replicates == 0
    assert est.interval == (0.75, 0.75)


def test_merge_two_batches_equals_pooled():
    rng = np.random.default_rng(11)
    values = rng.normal(size=500)
    pooled = McEstimate.from_samples(values)
    merged = McEstimate.from_samples(values[:123]).merge(
        McEstimate.from_samples(values[123:]))
    assert abs(merged.mean - pooled.mean) < 1e-12
    assert abs(merged.std_error - pooled.std_error) < 1e-12
    assert merged.replicates == 500


def test_merge_associative_to_1e12():
    rng = np.random.default_rng(23)
    a = McEstimate.from_samples(rng.exponential(size=101))
    b = McEstimate.from_samples(rng.exponential(size=57))
    c = McEstimate.from_samples(rng.exponential(size=400))
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert abs(left.mean - right.mean) < 1e-12
    assert abs(left.std_error - right.std_error) < 1e-12
    assert left.replicates == right.replicates == 558


def test_merge_with_exact_is_passthrough():
    a = McEstimate.from_samples([1.0, 2.0, 3.0])
    b = McEstimate.exact(7.0)
    assert a.merge(b) == a
    assert b.merge(a) == a


def test_merge_rejects_mixed_confidence_levels():
    a = McEstimate.from_samples([1.0, 2.0], confidence_level=0.95)
    b = McEstimate.from_samples([1.0, 2.0], confidence_level=0.99)
    with pytest.raises(ValueError):
        a.merge(b)


def test_from_samples_rejects_empty_and_2d():
    with pytest.raises(ValueError):
        McEstimate.from_samples([])
    with pytest.raises(ValueError):
        McEstimate.from_samples(np.zeros((3, 3)))


@pytest.mark.parametrize("level", [0.95, 0.99])
def test_interval_uses_the_normal_quantile(level):
    # the quantile is cached per level; repeated calls stay bit-identical
    z = float(norm.ppf(0.5 + level / 2.0))
    for _ in range(2):
        assert interval(1.5, 0.25, level) == (1.5 - z * 0.25, 1.5 + z * 0.25)
    est = McEstimate.from_samples([1.0, 2.0, 4.0], confidence_level=level)
    assert est.interval == (est.mean - z * est.std_error,
                            est.mean + z * est.std_error)
