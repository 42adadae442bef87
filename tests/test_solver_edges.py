"""Harder solver paths: line-search fallbacks, even periods, degenerate forcing."""

import math

import numpy as np
import pytest

from perdiff import (
    build_linear_data,
    check_solution,
    classify,
    multistart_search,
    solve,
    sup_norm,
)

from conftest import make_problem


def test_solve_1d_with_strong_nonlinearity():
    # Lipschitz constant ~2 against an operator norm ~2: the plain fixed
    # point diverges, so damping plus the Newton fallback must carry it
    p = make_problem(-3, 2, 3, "2*tanh(x)+0.1*cos(2*pi*t/3)")
    rep = solve(p, r=10.0)
    assert rep.regime == 1
    assert rep.residual_sup <= 1e-9
    assert rep.oracle_verified


@pytest.mark.parametrize("N", [17, 21, 25])
def test_solve_1d_at_large_period(N):
    # multipliers 1 and 2: shooting over a period carries rounding noise
    # scaled by 2^N, which a Newton Jacobian that differences whole operator
    # applications turns into a singular or wrong system
    p = make_problem(-3, 2, N, f"tanh(x)+0.1*cos(2*pi*t/{N})")
    rep = solve(p)
    assert rep.oracle_verified
    assert rep.residual_sup <= 1e-9


def test_solve_1d_with_multiplier_one_half_at_period_25():
    # multipliers 1 and 1/2: an adjoint orbit rolled backward over the
    # period drifts by 2^N times the rounding and fails the image test
    p = make_problem(-1.5, 0.5, 25, "tanh(x)+0.1*cos(2*pi*t/25)")
    rep = solve(p)
    assert rep.regime == 1
    assert rep.oracle_verified
    assert rep.residual_sup <= 1e-9


@pytest.mark.parametrize("b, c, N", [(0, 2, 63), (0, 2, 243), (0.5, -3, 81)])
def test_solve_nonresonant_at_large_period(b, c, N):
    # multipliers off the unit circle: |mu|^N up to 3^81 once broke the
    # reduced-equation post-check
    p = make_problem(b, c, N, f"tanh(x)+0.1*cos(2*pi*t/{N})")
    rep = solve(p)
    assert rep.regime == 0
    assert rep.oracle_verified
    assert rep.residual_sup <= 1e-9


def test_solve_nonresonant_with_strong_nonlinearity():
    p = make_problem(0, 2, 3, "1.5*sin(x)+0.3*cos(2*pi*t/3)")
    rep = solve(p)
    assert rep.regime == 0
    assert rep.residual_sup <= 1e-9
    assert rep.oracle_verified


@pytest.mark.parametrize("b,c,N,g", [
    (0, -2, 3, "4*ln(x+1)+1"),
    (1, -3, 3, "(x+1)^0.5"),
    (0, -2, 3, "3*(x+0.5)^0.5"),
    (0, 2, 3, "4*ln(x+1)+1"),
    (0, 2, 64, "4*ln(x+1)+1"),
])
def test_solve_nonresonant_backs_off_at_the_domain_edge(b, c, N, g):
    # full Newton or Picard steps leave the domain of g; the line search
    # must count such a trial as an infinite residual and halve the step
    # instead of giving up with a DomainError
    p = make_problem(b, c, N, g)
    rep = solve(p)
    assert rep.regime == 0
    assert rep.oracle_verified
    assert rep.residual_sup <= 1e-9


@pytest.mark.parametrize("g", ["tanh(x)+0.1*cos(2*pi*t/4)", "atan(x)+0.2*sin(2*pi*t/4)"])
def test_solve_nonresonant_from_a_stationary_start(g):
    # g'(0) = 1 makes the linearisation at w = 0 resonant (z^2 + 1 has the
    # roots +-i, of period 4): the Newton system is singular and 0 is a
    # stationary point of |residual|^2, so the search must fall back to the
    # Picard direction
    p = make_problem(0, 2, 4, g)
    rep = solve(p)
    assert rep.regime == 0
    assert rep.oracle_verified
    assert rep.residual_sup <= 1e-9


def test_even_period_resonance_classifies_and_solves():
    # b=2, c=1 has the double eigenvalue -1; an even period makes (-1)^N = 1,
    # a one-dimensional kernel with alternating sign structure
    p = make_problem(2, 1, 4, "0.2*tanh(x)+0.05*cos(2*pi*t/4)")
    rc = classify(p)
    assert rc.dim == 1
    z = rc.kernel_basis[0]
    np.testing.assert_allclose(z[0], -z[1], atol=1e-9)
    rep = solve(p, r=10.0)
    assert rep.regime == 1
    assert rep.residual_sup <= 1e-9
    assert rep.oracle_verified


def test_solve_2d_forcing_free_reports_nontrivial_flag():
    p = make_problem(1, 1, 3, "tanh(x)")
    rep = solve(p, radius=10.0, grid=5)
    assert rep.regime == 2
    assert sup_norm(rep.y) <= 1e-9  # trivial root reported first
    assert rep.nontrivial_root_found in (True, False)


@pytest.mark.parametrize("b,c,N,g,radius", [
    (-3, 2, 7, "tanh(x)+0.1*cos(2*pi*t/7)+0.01*ln(abs(x))", 0.0),
    (-3, 2, 7, "atan(x)+0.1*cos(2*pi*t/7)+0.001*ln(x*x)", 0.0),
    (-1.5, 0.5, 9, "tanh(x)+0.1*cos(2*pi*t/9)+0.01*ln(abs(x))", 0.0),
    (-1.5, 0.5, 9, "atan(x)+0.1*cos(2*pi*t/9)+0.001*ln(x*x)", 0.0),
    (-2.0 * math.cos(2.0 * math.pi / 5), 1.0, 5, "tanh(x)+0.3*cos(2*pi*t/5)+0.01*ln(abs(x))", 5.0),
], ids=["dim1-N7-ln-abs", "dim1-N7-ln-square", "dim1-N9-ln-abs", "dim1-N9-ln-square",
        "dim2-N5-ln-abs"])
def test_a_g_undefined_at_zero_is_not_forcing_free(b, c, N, g, radius):
    # the zero sequence solves nothing where g(t, 0) is undefined: the
    # solve keeps its verified root instead of failing on that question
    rep = solve(make_problem(b, c, N, g), radius=radius)
    assert rep.oracle_verified
    assert rep.residual_sup <= 1e-9
    assert rep.nontrivial_root_found is None
    if rep.regime == 2:
        assert rep.winding == 1


def test_oracle_matches_nonresonant_solver_for_small_lipschitz():
    # contraction regime: the periodic solution is unique, so the two
    # independent paths must land on the same sequence
    p = make_problem(0, 2, 5, "0.1*tanh(x)+0.2*cos(2*pi*t/5)")
    rep = solve(p)
    assert rep.regime == 0
    sols = multistart_search(p, 8, 3.0, seed=2)
    assert len(sols) == 1
    assert np.max(np.abs(rep.y - sols[0])) <= 1e-8


def test_large_period_rotation_case():
    # N = 25 with theta = 2*pi/25: kernel dimension 2 at desk scale
    import math
    b = -2.0 * math.cos(2.0 * math.pi / 25.0)
    p = make_problem(b, 1, 25, "tanh(x)+0.1*cos(2*pi*t/25)")
    assert classify(p).dim == 2
    rep = solve(p, radius=50.0, grid=5)
    assert rep.regime == 2
    assert rep.residual_sup <= 1e-9
    assert rep.oracle_verified
    assert check_solution(p, rep.y, tol=1e-9)


def test_solve_2d_with_a_radius_samples_g_only_on_the_disk():
    # ln(x+50) is undefined below x = -50: the default-radius estimate
    # samples g on [-100, 100], which a caller-given radius must skip
    p = make_problem(0, 1, 4, "atan(x)+0.1*cos(pi*t/2)+0.001*ln(x+50)")
    rep = solve(p, radius=5)
    assert rep.regime == 2
    assert rep.oracle_verified
    assert rep.winding == 1


@pytest.mark.parametrize("N", [85, 129, 257])
def test_large_period_rotation_verifies_with_its_default_radius(N):
    # the auxiliary Newton from w1 = 0 at alpha = 0 needs more than its
    # step budget here, and the default radius puts the other seeds far
    # apart; solving the auxiliary and bifurcation equations together
    # from the first seed needs neither
    import math
    p = make_problem(-2.0 * math.cos(2.0 * math.pi / N), 1, N, f"tanh(x)+0.1*cos(2*pi*t/{N})")
    rep = solve(p)
    assert rep.regime == 2
    assert rep.winding == 1
    assert rep.oracle_verified
    assert rep.residual_sup <= 1e-9


def test_solve_2d_where_the_auxiliary_newton_has_no_direction():
    # at alpha = 0, w1 = 0 the matrix I - G1 D has the eigenvalue 0, so an
    # auxiliary solve there stalls; the constant solution sits at alpha = 0
    p = make_problem(1, 1, 3, "2*atan(x)+0.05")
    rep = solve(p)
    assert rep.regime == 2
    assert rep.winding == 1
    assert rep.oracle_verified
    np.testing.assert_allclose(rep.y, np.full(3, 0.0499172), atol=1e-7)
