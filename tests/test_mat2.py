import numpy as np
import pytest

from perdiff.mat2 import svals2


def test_svals_simple():
    assert svals2(np.eye(2)) == (1.0, 1.0)
    assert svals2(np.diag([3.0, 0.0])) == (3.0, 0.0)
    smax, smin = svals2([[0.0, 1.0], [-2.0, 0.0]])
    assert (smax, smin) == pytest.approx((2.0, 1.0), abs=1e-14)


def test_svals_against_sampled_maximization():
    # sigma_max is the max of |A v| over unit vectors
    rng = np.random.default_rng(11)
    phis = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
    vs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    for _ in range(10):
        A = rng.uniform(-3, 3, (2, 2))
        smax, smin = svals2(A)
        norms = np.linalg.norm(vs @ A.T, axis=1)
        assert abs(smax - np.max(norms)) < 1e-6
        # the grid resolves the flat maximum better than the sharp minimum
        assert abs(smin - np.min(norms)) < 1e-5

