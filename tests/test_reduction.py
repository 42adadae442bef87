import math

import numpy as np
import pytest

from perdiff import (
    BifurcationMap,
    ConvergenceError,
    BoundaryZeroError,
    ModeLimitError,
    NotInImageError,
    NoSignChangeError,
    apply_F,
    apply_L,
    bifurcation_jacobian,
    bifurcation_value,
    build_linear_data,
    check_solution,
    mp_solve,
    multistart_search,
    proj_P,
    proj_Q,
    solve,
    SolverError,
    sup_norm,
    winding_of_map,
)

import perdiff.expr as expr
from perdiff import oracle, reduction
from perdiff.reduction import _aux_jacobian, _brent

from conftest import CANONICAL_G, dense_mpiq, g1_atol, make_problem


def _bm(b, c, N, g):
    p = make_problem(b, c, N, g)
    return p, BifurcationMap(p, build_linear_data(p))


def _with_w2(bm, v1, gv):
    # (v1, v2), v2 the second component of M_p(I-Q)(0, gv) rebuilt through
    # mp_solve: the solver reads only first components
    F = np.zeros((bm.problem.N, 2))
    F[:, 1] = gv
    v = mp_solve(bm.ld, F - proj_Q(bm.ld, F))
    v[:, 0] = v1
    return v


def _aux_solution(bm, alpha):
    # the full auxiliary solution w(alpha): the solver's w1, and w2 from
    # g evaluated afresh at lift1 + w1
    lift = bm.kernel_lift(alpha)
    w1, _ = reduction._aux_fixed_point(bm, lift)
    return _with_w2(bm, w1, expr.evaluate(bm.problem.g, np.arange(bm.problem.N), lift[:, 0] + w1))


def test_apply_F_values():
    p = make_problem(0, 2, 3, "x")
    out = apply_F(p, np.tile([2.0, 5.0], (3, 1)))
    np.testing.assert_array_equal(out, np.tile([0.0, 2.0], (3, 1)))

    p = make_problem(0, 2, 3, "tanh(x)")
    assert sup_norm(apply_F(p, np.zeros((3, 2)))) == 0.0

    p = make_problem(0, 2, 3, CANONICAL_G)
    out = apply_F(p, np.zeros((3, 2)))
    expected = [0.1 * math.cos(2.0 * math.pi * t / 3.0) for t in range(3)]
    np.testing.assert_allclose(out[:, 0], np.zeros(3), atol=0)
    np.testing.assert_allclose(out[:, 1], expected, atol=1e-15)


def test_aux_solve_zero_nonlinearity():
    _, bm = _bm(-3, 2, 3, "0")
    for alpha in (0.0, 1.0, -7.5):
        assert sup_norm(_aux_solution(bm, [alpha])) == 0.0


def test_aux_solve_contract_and_norm_bound():
    p, bm = _bm(-3, 2, 3, "0.01*tanh(x)")
    ld = bm.ld
    for alpha in (0.0, 0.5, 3.0):
        w = _aux_solution(bm, [alpha])
        lift = bm.kernel_lift([alpha])
        Fx = apply_F(p, lift + w)
        target = mp_solve(ld, Fx - proj_Q(ld, Fx))
        assert sup_norm(w - target) <= reduction._AUX_TOL
        assert sup_norm(proj_P(ld, w)) <= 1e-10
        # the fixed point obeys the operator-norm estimate
        assert sup_norm(w) <= bm.norm_upper * 0.01 * (1 + 1e-9)


# one row per regime, the last a rotation at N = 15
_REGIME_ROWS = [
    (0, 2, 5),
    (-3, 2, 9),
    (-1.5, 0.5, 13),
    (-2.0 * math.cos(2.0 * math.pi / 15), 1, 15),
]


@pytest.mark.parametrize("b,c,N", _REGIME_ROWS + [(0, 2, 243)])
def test_aux_operator_matches_mp_solve(b, c, N):
    # the cached operator is the first component of M_p(I-Q) applied to
    # F = (0, g-values); with a trivial kernel (0, 2, 5) that is the
    # (first, g) block of L^{-1}
    _, bm = _bm(b, c, N, "tanh(x)")
    G = bm.aux_operator
    assert G.shape == (N, N)
    # gathered from one column, it is the (first, g) slice of the dense
    # blocks of single solves (up to the rounding of either)
    B = dense_mpiq(bm.ld)
    np.testing.assert_allclose(G, B[:, 0, :, 1], rtol=0, atol=g1_atol(bm.ld, B))
    rng = np.random.default_rng(N)
    for _ in range(4):
        F = np.zeros((N, 2))
        F[:, 1] = rng.standard_normal(N)
        expected = mp_solve(bm.ld, F - proj_Q(bm.ld, F))
        got = _with_w2(bm, G @ F[:, 1], F[:, 1])
        assert sup_norm(got - expected) <= 1e-12 * (1.0 + sup_norm(F))
        # L M_p (I - Q) = I - Q, which is L L^{-1} = I when Q = 0
        residual = apply_L(bm.ld, got) - (F - proj_Q(bm.ld, F))
        assert sup_norm(residual) <= 1e-10 * (1.0 + sup_norm(F))
        # the norm bound dominates every image of a g-only input
        assert sup_norm(got) <= bm.norm_upper * np.max(np.abs(F[:, 1])) * (1 + 1e-9)


def test_norm_bound_is_computed_only_where_read(monkeypatch):
    # dim-0 and dim-1 solves, and a planar solve with a given radius, never
    # compute the bound; the default radius reads it
    def no_bound(ld):
        raise AssertionError("norm bound computed")

    monkeypatch.setattr(reduction, "norm_bound_mp_iq", no_bound)
    assert solve(make_problem(0, 2, 5, CANONICAL_G)).oracle_verified
    assert solve(make_problem(-3, 2, 3, CANONICAL_G)).oracle_verified
    assert solve(make_problem(1, 1, 3, CANONICAL_G), radius=50.0).oracle_verified
    with pytest.raises(AssertionError, match="norm bound"):
        solve(make_problem(1, 1, 3, CANONICAL_G))


def test_norm_bound_image_failure_is_a_solver_error(monkeypatch):
    _, bm = _bm(1, 1, 3, CANONICAL_G)

    def not_in_image(ld):
        raise NotInImageError(3.3e-9)

    monkeypatch.setattr(reduction, "norm_bound_mp_iq", not_in_image)
    monkeypatch.setattr(reduction, "_mpiq_g1", not_in_image)
    for name in ("norm_upper", "aux_operator"):
        with pytest.raises(SolverError, match="not in image") as info:
            getattr(bm, name)
        assert info.value.diagnostics == {"defect": 3.3e-9, "N": 3}


@pytest.mark.parametrize("b,c,N", _REGIME_ROWS)
def test_solve_leaves_the_oracle_to_judge(b, c, N, monkeypatch):
    # the reduction alone lands at tol, down to a few 1e-12; the oracle
    # computes the residual but never runs its own Newton solver
    def no_newton(*args, **kwargs):
        raise AssertionError("solve called oracle.newton_solve")

    monkeypatch.setattr(oracle, "newton_solve", no_newton)
    p = make_problem(b, c, N, f"tanh(x)+0.1*cos(2*pi*t/{N})")
    for tol in (1e-9, 3e-12):
        rep = solve(p, tol=tol)
        assert rep.regime == build_linear_data(p).resonance.dim
        assert rep.oracle_verified
        assert rep.residual_sup <= tol


def test_solve_refuses_more_than_two_resonant_modes():
    with pytest.raises(ModeLimitError, match="3 resonant modes"):
        solve(make_problem(-2.0, 1.0, 100_000, "tanh(x)"))


# one row per kernel dimension 0, 1, 2
_DIM_ROWS = [(0, 2, 3), (-3, 2, 3), (1, 1, 3)]


def _no_linear_data(problem):
    raise AssertionError("linear data built before the arguments were checked")


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_solve_rejects_a_bad_tolerance(tol, monkeypatch):
    monkeypatch.setattr(reduction, "build_linear_data", _no_linear_data)
    for row in _DIM_ROWS:
        with pytest.raises(ValueError, match="tol"):
            solve(make_problem(*row, CANONICAL_G), tol=tol)


@pytest.mark.parametrize("row", _DIM_ROWS, ids=["dim0", "dim1", "dim2"])
@pytest.mark.parametrize("name,value", [
    ("r", 0.0), ("r", -1.0), ("r", math.nan), ("r", math.inf),
    ("radius", math.nan), ("radius", math.inf),
    ("grid", 0), ("grid", -5),
])
def test_solve_rejects_a_bad_argument(name, value, row, monkeypatch):
    # every argument is checked on every regime, whichever solver reads it,
    # before the linear data is built
    monkeypatch.setattr(reduction, "build_linear_data", _no_linear_data)
    with pytest.raises(ValueError, match=name):
        solve(make_problem(*row, CANONICAL_G), **{name: value})


def test_aux_jacobian_matches_full_difference_jacobian():
    # the pointwise Jacobian equals the column-by-column central difference
    # of the whole residual w - M_p(I-Q)F(lift + w), at a nonzero w
    N = 5
    p, bm = _bm(-3, 2, N, "tanh(x)+0.1*cos(2*pi*t/5)")
    ld = bm.ld
    lift = bm.kernel_lift([0.7])
    wf = 0.3 * np.random.default_rng(0).standard_normal(2 * N)

    def resid(vf):
        v = vf.reshape(N, 2)
        Fx = apply_F(p, lift + v)
        return (v - mp_solve(ld, Fx - proj_Q(ld, Fx))).ravel()

    expected = np.empty((2 * N, 2 * N))
    for j in range(2 * N):
        e = np.zeros(2 * N)
        e[j] = 1e-6 * (1.0 + abs(wf[j]))
        expected[:, j] = (resid(wf + e) - resid(wf - e)) / (2.0 * e[j])
    # Newton runs on the w1 block; the w2 columns of the full Jacobian are I
    np.testing.assert_allclose(expected[:, 1::2], np.eye(2 * N)[:, 1::2], rtol=0, atol=1e-6)
    np.testing.assert_allclose(_aux_jacobian(bm, lift, wf[0::2]), expected[0::2, 0::2],
                               rtol=0, atol=1e-6)


def test_inner_iterations_count_newton_on_its_last_step(monkeypatch):
    # at alpha = 0 the plain fixed-point iteration does not contract and
    # Newton does the solve; with the budget cut to exactly the steps used,
    # Newton converges on its last allowed step and those steps must still
    # be counted
    p, bm = _bm(-3, 2, 9, "tanh(x)+0.1*cos(2*pi*t/9)")
    jacobians = []

    def counting(*args):
        jacobians.append(1)
        return _aux_jacobian(*args)

    monkeypatch.setattr(reduction, "_aux_jacobian", counting)
    _aux_solution(bm, [0.0])
    assert jacobians
    used = bm._inner_iters
    monkeypatch.setattr(reduction, "_AUX_NEWTON_STEPS", used)
    tight = BifurcationMap(p, bm.ld)
    _aux_solution(tight, [0.0])
    assert tight._inner_iters == used
    monkeypatch.setattr(reduction, "_AUX_NEWTON_STEPS", used - 1)
    with pytest.raises(ConvergenceError):
        _aux_solution(BifurcationMap(p, bm.ld), [0.0])


@pytest.mark.parametrize("field", ["inner_tol", "inner_max_iter", "_inner_iters", "_last_aux"])
def test_bifurcation_map_takes_no_inner_solve_settings(field):
    # the auxiliary tolerance and step budget are module constants, and the
    # step counter and the kept last solution start empty
    p = make_problem(-3, 2, 3, CANONICAL_G)
    with pytest.raises(TypeError):
        BifurcationMap(p, build_linear_data(p), **{field: 5})


def test_bifurcation_value_odd_symmetry():
    _, bm = _bm(-3, 2, 3, "tanh(x)")
    assert bifurcation_value(bm, [0.0])[0] == pytest.approx(0.0, abs=1e-13)


def test_bifurcation_value_signs_at_ends():
    _, bm = _bm(-3, 2, 3, CANONICAL_G)
    assert bifurcation_value(bm, [10.0])[0] > 0.0
    assert bifurcation_value(bm, [-10.0])[0] < 0.0


def test_bifurcation_value_matches_explicit_rows():
    # constant kernel: the reduced equation is the plain sum of g values
    p, bm = _bm(-3, 2, 3, CANONICAL_G)
    alpha = 0.7
    w = _aux_solution(bm, [alpha])
    args = alpha + w[:, 0]
    direct = sum(expr.evaluate(p.g, t, args[t]) for t in range(3))
    assert bifurcation_value(bm, [alpha])[0] == pytest.approx(direct, abs=1e-12)

    # rotation kernel: cos/sin-weighted sums of g values
    p2, bm2 = _bm(1, 1, 3, CANONICAL_G)
    th = bm2.ld.resonance.theta
    alpha2 = np.array([0.4, -1.1])
    w2 = _aux_solution(bm2, alpha2)
    lift = bm2.kernel_lift(alpha2)
    args = (lift + w2)[:, 0]
    gs = [expr.evaluate(p2.g, t, args[t]) for t in range(3)]
    expected = np.array([
        sum(math.cos(th * t) * gs[t] for t in range(3)),
        sum(math.sin(th * t) * gs[t] for t in range(3)),
    ])
    np.testing.assert_allclose(bifurcation_value(bm2, alpha2), expected, atol=1e-12)


def _rotation_row(N):
    return (-2.0 * math.cos(2.0 * math.pi / N), 1.0, N)


@pytest.mark.parametrize("b,c,N", [
    (-3, 2, 9), (-1.5, 0.5, 21), _rotation_row(5), _rotation_row(33), (0, -1, 6),
])
def test_bifurcation_jacobian_matches_central_difference(b, c, N):
    # the implicit-function derivative against a central difference of the
    # map itself, the Jacobian the planar Newton took before
    _, bm = _bm(b, c, N, f"tanh(x)+0.1*cos(2*pi*t/{N})")
    for a0 in (0.0, 0.7, -2.5):
        alpha = np.full(bm.dim, a0)
        alpha[1:] = 0.3 - 0.5 * a0
        J = bifurcation_jacobian(bm, alpha)
        assert J.shape == (bm.dim, bm.dim)
        expected = np.empty_like(J)
        for j in range(bm.dim):
            e = np.zeros(bm.dim)
            e[j] = 1e-6 * (1.0 + abs(alpha[j]))
            expected[:, j] = (bifurcation_value(bm, alpha + e)
                              - bifurcation_value(bm, alpha - e)) / (2.0 * e[j])
        assert np.max(np.abs(J - expected)) <= 1e-6 * np.max(np.abs(J))


def test_bifurcation_jacobian_reuses_the_value_solve():
    # right after a value at the same alpha the Jacobian takes no auxiliary
    # Newton step; at a fresh alpha it solves once
    _, bm = _bm(-3, 2, 9, "tanh(x)+0.1*cos(2*pi*t/9)")
    bifurcation_value(bm, [0.4])
    steps = bm._inner_iters
    bifurcation_jacobian(bm, [0.4])
    assert bm._inner_iters == steps
    bifurcation_jacobian(bm, [0.9])
    assert bm._inner_iters > steps


def test_bifurcation_value_evaluates_g_only_in_its_auxiliary_solve(monkeypatch):
    # the value pairs the g-values of the converged auxiliary residual: a
    # repeat at the same alpha evaluates g no more, and a fresh alpha
    # evaluates it exactly as often as its auxiliary solve alone does
    p, bm = _bm(1, 1, 9, "tanh(x)+0.1*cos(2*pi*t/9)")
    calls = []
    real_evaluate = expr.evaluate

    def counting(*args):
        calls.append(1)
        return real_evaluate(*args)

    monkeypatch.setattr(expr, "evaluate", counting)
    alpha = np.array([0.4, -1.1])
    bifurcation_value(bm, alpha)
    value_calls = len(calls)
    assert value_calls > 0
    bifurcation_value(bm, alpha)
    assert len(calls) == value_calls
    reduction._aux_fixed_point(BifurcationMap(p, bm.ld), bm.kernel_lift(alpha))
    assert len(calls) == 2 * value_calls


def test_brent_meets_the_width_on_a_smooth_root():
    f = lambda x: math.tanh(x - 0.3)
    x, evaluations = _brent(f, -10.0, 10.0, f(-10.0), f(10.0), 1e-11)
    assert abs(x - 0.3) <= 1e-11
    assert evaluations <= 12


def test_brent_returns_an_exact_zero():
    # the first secant step lands on the zero of a linear f exactly
    f = lambda x: 2.0 * x
    assert _brent(f, -1.0, 3.0, f(-1.0), f(3.0), 1e-12) == (0.0, 1)
    # a zero at the bracket end is returned without an evaluation
    assert _brent(f, -1.0, 0.0, f(-1.0), 0.0, 1e-12) == (0.0, 0)


def test_brent_converges_where_interpolation_is_useless():
    # a step function: its values +-1 say nothing about where the jump is,
    # so interpolation is useless; the bracket must still close on the jump
    f = lambda x: float(np.sign(x - 0.3))
    x, evaluations = _brent(f, -10.0, 10.0, -1.0, 1.0, 1e-11)
    assert abs(x - 0.3) <= 1e-11
    assert evaluations <= 2 * 41


@pytest.mark.parametrize("b,c,Ns", [(-3, 2, (3, 9, 13, 17)), (-1.5, 0.5, (5, 13, 21, 25))])
def test_solve_1d_root_finder_evaluations(b, c, Ns):
    # counts that do not depend on the machine: the bisection it replaced
    # took 41 evaluations on each of these rows
    for N in Ns:
        for shape in ("tanh(x)", "atan(x)", "x/(1+abs(x))"):
            rep = solve(make_problem(b, c, N, f"{shape}+0.15*cos(2*pi*t/{N}+1.0)"))
            assert rep.oracle_verified
            assert 1 <= rep.iterations["bisection"] <= 12


@pytest.mark.parametrize("error", [ConvergenceError, expr.DomainError])
def test_nontrivial_scan_skips_a_bracket_whose_refinement_fails(monkeypatch, error):
    # the solve has found its root when the scan for nontrivial roots
    # starts; an auxiliary solve that fails inside a bracket's refinement
    # drops that bracket instead of the whole solve
    p = make_problem(-3, 2, 3, "1.5*sin(x)")
    grid = np.linspace(-10.0, 10.0, 33)
    scanning = []
    real_forcing_free, real_aux = reduction._forcing_free, reduction._aux_fixed_point

    def forcing_free(problem):
        scanning.append(True)
        return real_forcing_free(problem)

    def aux(bm, lift):
        if scanning and not any(np.array_equal(lift, bm.kernel_lift([a])) for a in grid):
            raise error("refinement failed")
        return real_aux(bm, lift)

    monkeypatch.setattr(reduction, "_forcing_free", forcing_free)
    monkeypatch.setattr(reduction, "_aux_fixed_point", aux)
    rep = solve(p)
    assert rep.regime == 1
    assert rep.oracle_verified
    assert rep.nontrivial_root_found is False


def test_winding_synthetic_maps():
    assert winding_of_map(lambda a: a, 3.0) == 1
    assert winding_of_map(lambda a: np.array([1.0, 0.5]), 3.0) == 0
    assert winding_of_map(lambda a: np.array([a[0] ** 2 - a[1] ** 2, 2 * a[0] * a[1]]), 2.0) == 2
    with pytest.raises(BoundaryZeroError):
        winding_of_map(lambda a: np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        winding_of_map(lambda a: a, -1.0)


def test_winding_evaluates_each_point_once():
    # z -> z^5 settles at 32 points; the sweeps of 8 and 16 points are the
    # even points of the next one, so the map is called 32 times, not 56
    points = []

    def z5(a):
        points.append(tuple(a))
        z = complex(a[0], a[1]) ** 5
        return np.array([z.real, z.imag])

    assert winding_of_map(z5, 1.0) == 5
    assert len(points) == len(set(points)) == 32


def test_winding_samples_counts_the_sweep():
    # this sweep refines from 16 to 32 points, and the report says so
    rep = solve(make_problem(0, 1, 4, "0.8*sin(x)+0.5*tanh(x)"))
    assert rep.winding == -3
    assert rep.iterations["winding_samples"] == 32


def test_winding_canonical_dim2():
    _, bm = _bm(1, 1, 3, CANONICAL_G)
    beta = lambda a: bifurcation_value(bm, a)
    assert winding_of_map(beta, 50.0, 8) == 1
    # stable under doubling of the initial sample count
    assert winding_of_map(beta, 50.0, 32) == 1
    assert winding_of_map(beta, 50.0, 64) == 1


def test_solve_nonresonant_zero_and_constant():
    rep = solve(make_problem(0, 2, 3, "0"))
    np.testing.assert_array_equal(rep.y, np.zeros(3))
    assert rep.residual_sup == 0.0
    assert rep.regime == 0

    rep = solve(make_problem(0, 2, 3, "1"))
    assert rep.regime == 0
    np.testing.assert_allclose(rep.y, np.full(3, 1.0 / 3.0), atol=1e-12)


def test_solve_nonresonant_canonical(dim0_problem):
    rep = solve(make_problem(0, 2, 3, "0.5*tanh(x)+0.2*cos(2*pi*t/3)"))
    assert rep.regime == 0
    assert rep.residual_sup <= 1e-9
    assert rep.oracle_verified
    rep2 = solve(dim0_problem)
    assert rep2.oracle_verified
    assert rep2.regime == 0


def test_solve_1d_trivial_root():
    rep = solve(make_problem(-3, 2, 3, "tanh(x)"))
    assert sup_norm(rep.y) <= 1e-10
    assert abs(rep.alpha[0]) <= 1e-10
    assert rep.regime == 1
    # forcing-free problem: the solver reports on nontrivial roots too
    assert rep.nontrivial_root_found is False


def test_solve_1d_canonical(dim1_problem):
    rep = solve(dim1_problem, r=10.0)
    assert rep.regime == 1
    assert rep.residual_sup <= 1e-9
    assert rep.oracle_verified
    assert sup_norm(rep.y) > 1e-3
    assert rep.nontrivial_root_found is None  # forcing is not zero at 0
    # matches an independent multistart solution
    sols = multistart_search(dim1_problem, 24, 5.0, seed=0)
    assert min(np.max(np.abs(rep.y - s)) for s in sols) <= 1e-8


def test_solve_1d_no_sign_change():
    with pytest.raises(NoSignChangeError):
        solve(make_problem(-3, 2, 3, "2+tanh(x)"), r=10.0)


def test_solve_2d_trivial_root():
    rep = solve(make_problem(1, 1, 3, "0"), radius=5.0)
    assert rep.regime == 2
    np.testing.assert_allclose(rep.y, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(rep.alpha, np.zeros(2), atol=1e-12)
    assert rep.winding is None  # boundary sweep vanishes identically


def test_solve_2d_canonical(dim2_problem):
    rep = solve(dim2_problem, radius=50.0, grid=9)
    assert rep.regime == 2
    assert rep.residual_sup <= 1e-9
    assert rep.winding == 1
    assert rep.degree_evidence
    assert rep.oracle_verified
    sols = multistart_search(dim2_problem, 24, 5.0, seed=0)
    assert min(np.max(np.abs(rep.y - s)) for s in sols) <= 1e-8


def test_solve_2d_default_radius(dim2_problem):
    rep = solve(dim2_problem, radius=0.0, grid=5)
    assert rep.regime == 2
    assert rep.residual_sup <= 1e-9
    assert rep.oracle_verified


def test_solve_dispatch(dim0_problem, dim1_problem, dim2_problem):
    assert solve(dim0_problem).regime == 0
    assert solve(dim1_problem).regime == 1
    assert solve(dim2_problem, radius=50.0).regime == 2


def test_reduced_equations_hold_on_solutions(dim0_problem, dim1_problem, dim2_problem):
    # both halves of the reduction, and the recurrence itself, hold on output
    for k, (rep, p) in enumerate([
        (solve(dim0_problem), dim0_problem),
        (solve(dim1_problem), dim1_problem),
        (solve(dim2_problem, radius=50.0), dim2_problem),
    ]):
        assert rep.regime == k
        ld = build_linear_data(p)
        x = rep.solution
        Fx = apply_F(p, x)
        assert sup_norm(x - proj_P(ld, x) - mp_solve(ld, Fx - proj_Q(ld, Fx))) <= 1e-8
        assert sup_norm(proj_Q(ld, Fx)) <= 1e-8
        assert sup_norm(apply_L(ld, x) - Fx) <= 1e-8
        assert check_solution(p, rep.y, tol=1e-9)


def test_solver_reports_are_deterministic(dim1_problem):
    a = solve(dim1_problem)
    b = solve(dim1_problem)
    assert a.regime == 1
    np.testing.assert_array_equal(a.y, b.y)
    assert a.as_dict() == b.as_dict()
