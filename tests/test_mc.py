import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from cannings import McEstimate
from cannings.mc import _Z, interval


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


def test_normal_quantile_is_ndtri():
    # the interval's z is a literal, so that mc needs no scipy.special
    assert _Z == float(ndtri(0.975))


def test_exact_value_has_zero_se():
    est = McEstimate.exact(0.75)
    assert est.mean == 0.75
    assert est.std_error == 0.0
    assert est.replicates == 0
    assert est.interval == (0.75, 0.75)


def test_from_samples_rejects_empty_and_2d():
    with pytest.raises(ValueError):
        McEstimate.from_samples([])
    with pytest.raises(ValueError):
        McEstimate.from_samples(np.zeros((3, 3)))


def test_interval_uses_the_normal_quantile():
    # the 95% quantile is computed once; repeated calls stay bit-identical
    z = float(norm.ppf(0.975))
    for _ in range(2):
        assert interval(1.5, 0.25) == (1.5 - z * 0.25, 1.5 + z * 0.25)
    est = McEstimate.from_samples([1.0, 2.0, 4.0])
    assert est.interval == (est.mean - z * est.std_error,
                            est.mean + z * est.std_error)
