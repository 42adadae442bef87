import math

import numpy as np
import pytest

from perdiff import check_solution, multistart_search, newton_solve, residual

from conftest import CANONICAL_G, make_problem


def test_residual_zero_solution():
    p = make_problem(0, 2, 3, "tanh(x)")
    np.testing.assert_array_equal(residual(p, np.zeros(3)), np.zeros(3))


def test_residual_constant_forcing():
    # y(1 + b + c) = 1 at b=0, c=2 gives y = 1/3
    p = make_problem(0, 2, 3, "1")
    np.testing.assert_allclose(residual(p, np.full(3, 1.0 / 3.0)), np.zeros(3), atol=1e-15)


def test_residual_is_affine_in_linear_case():
    p = make_problem(0.3, -1.2, 5, "x")
    rng = np.random.default_rng(0)
    y1, y2 = rng.standard_normal(5), rng.standard_normal(5)
    r0 = residual(p, np.zeros(5))
    lhs = residual(p, y1 + y2) - r0
    rhs = (residual(p, y1) - r0) + (residual(p, y2) - r0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_residual_shape_check():
    p = make_problem(0, 2, 3, "x")
    with pytest.raises(ValueError):
        residual(p, np.zeros(4))


def test_newton_keeps_exact_solution():
    p = make_problem(0, 2, 3, "1")
    y = np.full(3, 1.0 / 3.0)
    out = newton_solve(p, y)
    np.testing.assert_allclose(out, y, atol=1e-12)


def test_newton_exact_on_affine_problem():
    # Newton converges in one step for affine systems
    p = make_problem(0, 2, 3, "x+1")
    out = newton_solve(p, np.array([4.0, -3.0, 2.0]), max_iter=2)
    assert out is not None
    assert check_solution(p, out, tol=1e-10)
    np.testing.assert_allclose(out, np.full(3, 0.5), atol=1e-9)


def test_newton_failure_returns_none():
    # no N-periodic solution exists: summing the residual of y(t+2)-2y(t+1)+y(t)=1
    # over a period forces 0 = N
    p = make_problem(-2, 1, 3, "1")
    assert newton_solve(p, np.zeros(3), max_iter=20) is None


def test_multistart_finds_canonical_solution():
    p = make_problem(-3, 2, 3, CANONICAL_G)
    sols = multistart_search(p, 20, 5.0, seed=0)
    assert len(sols) >= 1
    for y in sols:
        assert check_solution(p, y, tol=1e-9)


def test_multistart_unique_solution_of_linear_problem():
    p = make_problem(0, 2, 3, "0")
    sols = multistart_search(p, 10, 5.0, seed=3)
    assert len(sols) == 1
    np.testing.assert_allclose(sols[0], np.zeros(3), atol=1e-10)


def test_multistart_monotone_and_deterministic():
    p = make_problem(1, 1, 3, CANONICAL_G)
    few = multistart_search(p, 8, 5.0, seed=7)
    many = multistart_search(p, 16, 5.0, seed=7)
    again = multistart_search(p, 16, 5.0, seed=7)
    # determinism: identical repeat
    assert len(many) == len(again)
    for a, b in zip(many, again):
        np.testing.assert_array_equal(a, b)
    # monotone union: every earlier solution reappears
    for y in few:
        assert any(np.max(np.abs(y - z)) <= 1e-6 for z in many)


def test_multistart_argument_validation():
    p = make_problem(0, 2, 3, "0")
    with pytest.raises(ValueError):
        multistart_search(p, 0, 1.0)
    with pytest.raises(ValueError):
        multistart_search(p, 1, 0.0)


@pytest.mark.parametrize("n_starts", [2.5, math.nan, math.inf])
def test_multistart_refuses_a_count_that_is_not_an_integer(n_starts):
    with pytest.raises(ValueError, match=r"^n_starts must be an integer >= 1$"):
        multistart_search(make_problem(0, 2, 3, "0"), n_starts, 1.0)


@pytest.mark.parametrize("box", [math.nan, math.inf, -math.inf])
def test_multistart_refuses_a_box_that_is_not_finite(box):
    with pytest.raises(ValueError, match=r"^box must be finite and positive$"):
        multistart_search(make_problem(0, 2, 3, "0"), 2, box)


def test_multistart_refuses_a_box_whose_width_overflows():
    # [-box, box] is 2 * box wide: past half the largest float the draw
    # overflowed inside numpy; half the largest float still runs
    p = make_problem(0, 2, 3, "tanh(x)")
    for box in (1e308, np.float64(1e308), np.nextafter(np.finfo(float).max / 2, math.inf)):
        with pytest.raises(ValueError, match=r"^box must be at most half the largest float"):
            multistart_search(p, 2, box)
    assert isinstance(multistart_search(p, 2, np.finfo(float).max / 2), list)


@pytest.mark.parametrize("y", [[1e308, 1e308, 1e308], [1e308, -1e308, 1e308], [-1.7e308, 0.0, 1e308]])
def test_a_y_whose_residual_overflows_fails_the_oracle(y):
    # under the error filter for RuntimeWarning an overflow raised; the
    # residual overflows to inf, which fails every tolerance
    p = make_problem(0, 2, 3, "tanh(x)")
    y = np.array(y)
    assert not np.isfinite(residual(p, y)).all()
    assert check_solution(p, y) is False
    assert newton_solve(p, y) is None


def test_newton_runs_on_when_the_squared_residual_overflows():
    # |r| near 1e154: r @ r overflows to inf, the full step is taken, and
    # Newton finds the zero solution of the linear problem
    p = make_problem(2.0, 0.5, 3, "x")
    y = newton_solve(p, np.array([9.66029843e153, 5.57466317e153, 8.64507559e153]))
    assert y is not None and check_solution(p, y)
