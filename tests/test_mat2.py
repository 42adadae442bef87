import numpy as np
import pytest

from perdiff.mat2 import pinv2, svals2


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


def test_pinv_fixed_points():
    assert np.array_equal(pinv2(np.eye(2)), np.eye(2))
    assert np.array_equal(pinv2(np.zeros((2, 2))), np.zeros((2, 2)))
    # an orthogonal projector is its own pseudo-inverse
    P = np.array([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(pinv2(P), P, atol=1e-15)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(3)
    mats = [rng.uniform(-2, 2, (2, 2)) for _ in range(30)]
    mats += [np.outer(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(10)]
    for A in mats:
        Ap = pinv2(A)
        smax = svals2(A)[0]
        tol = 1e-12 * (1.0 + smax)
        np.testing.assert_allclose(A @ Ap @ A, A, atol=tol)
        np.testing.assert_allclose(Ap @ A @ Ap, Ap, atol=tol)
        np.testing.assert_allclose((A @ Ap).T, A @ Ap, atol=tol)
        np.testing.assert_allclose((Ap @ A).T, Ap @ A, atol=tol)


def test_pinv_rank_cutoff():
    np.testing.assert_allclose(pinv2([[1.0, 1.0], [1.0, 1.0]]), np.full((2, 2), 0.25),
                               atol=1e-15)
    # relative cutoff: a tiny singular value next to a big one counts as zero
    np.testing.assert_allclose(pinv2([[1e6, 0.0], [0.0, 1e-5]]), [[1e-6, 0.0], [0.0, 0.0]],
                               rtol=1e-12, atol=1e-18)
    # ... but not next to a singular value of order one
    np.testing.assert_allclose(pinv2([[1.0, 0.0], [0.0, 1e-5]]), [[1.0, 0.0], [0.0, 1e5]],
                               rtol=1e-12)
