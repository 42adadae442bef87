import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from perdiff import (
    BifurcationMap,
    ConvergenceError,
    BoundaryZeroError,
    ModeLimitError,
    NotInImageError,
    NoSignChangeError,
    apply_L,
    bifurcation_jacobian,
    bifurcation_value,
    build_linear_data,
    check_corollary,
    check_solution,
    check_thm1,
    check_thm2,
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
from perdiff import linear, oracle, reduction
from perdiff.reduction import _brent, _jacobian, _residual, _row_error, apply_F

from conftest import (CANONICAL_G, dense_mpiq, forget_linear_data, g1_atol, instance_grid,
                      make_problem)


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
    w1 = reduction._aux_fixed_points(bm, lift[None, :, 0])[0][0]
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


def _outcome(run, p):
    try:
        return repr(run(p).as_dict())
    except Exception as e:  # a failure must repeat as well, class and message
        return f"{type(e).__name__}: {e}"


def test_kept_linear_data_gives_the_cold_reports(monkeypatch):
    # a second forcing on a kept operator reports exactly what it reports
    # on a freshly built one, failures included
    def check(p):
        if build_linear_data(p).resonance.dim == 2:
            return check_thm2(p, zhat=1.0)
        return check_thm1(p, r=10.0, zhat=1.0)

    for b, c, N in instance_grid():
        first = make_problem(b, c, N, f"atan(x)+0.2*sin(2*pi*t/{N})")
        second = make_problem(b, c, N, f"tanh(x)+0.1*cos(2*pi*t/{N})")
        for run in (solve, check):
            forget_linear_data(monkeypatch)
            _outcome(run, first)
            assert build_linear_data(second) is build_linear_data(first)
            warm = _outcome(run, second)
            forget_linear_data(monkeypatch)
            assert warm == _outcome(run, second), (b, c, N, run)


def test_an_image_failure_of_the_column_is_not_kept(monkeypatch):
    forget_linear_data(monkeypatch)
    p = make_problem(-3, 2, 9, "tanh(x)+0.1*cos(2*pi*t/9)")
    with monkeypatch.context() as patch:
        def not_in_image(ld, h):
            raise NotInImageError(3.3e-9)

        patch.setattr(linear, "mp_solve", not_in_image)
        for _ in range(2):
            with pytest.raises(SolverError, match="cannot assemble"):
                solve(p)
    assert solve(p).oracle_verified


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
    ("grid", 0), ("grid", -5), ("grid", 2.5),
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
    _, _, dg, _, fell = _residual(bm, lift[None, :, 0], wf[None, 0::2])
    assert not fell
    np.testing.assert_allclose(_jacobian(bm, dg, np.empty((1, N, N)))[0], expected[0::2, 0::2],
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
        return _jacobian(*args)

    monkeypatch.setattr(reduction, "_jacobian", counting)
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


@pytest.mark.parametrize("b,c,N", [(-1.5, 0.5, 9), _rotation_row(5)], ids=["dim1", "dim2"])
def test_bordered_jacobian_matches_central_difference(b, c, N):
    # all four blocks of the bordered Jacobian against a column-by-column
    # central difference of the bordered residual, at a nonzero (w1, alpha)
    _, bm = _bm(b, c, N, f"tanh(x)+0.1*cos(2*pi*t/{N})")
    m = bm.dim
    x0 = np.zeros((1, N))
    u = np.concatenate([0.3 * np.random.default_rng(1).standard_normal(N), [0.7, -0.4][:m]])[None]
    _, _, dg, _, fell = _residual(bm, x0, u)
    assert not fell
    J = _jacobian(bm, dg, np.empty((1, N + m, N + m)))[0]
    expected = np.empty_like(J)
    for j in range(N + m):
        e = np.zeros_like(u)
        e[0, j] = 1e-6 * (1.0 + abs(u[0, j]))
        diff = _residual(bm, x0, u + e)[1] - _residual(bm, x0, u - e)[1]
        expected[:, j] = diff[0] / (2.0 * e[0, j])
    np.testing.assert_allclose(J, expected, rtol=0, atol=1e-6)
    # the border blocks hold more than rounding noise
    assert min(np.abs(J[:N, N:]).max(), np.abs(J[N:, :N]).max(), np.abs(J[N:, N:]).max()) > 0.1


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_solve_holds_about_two_dense_matrices():
    # the Newton matrix is written in place into one buffer per solve: one
    # dim-0 auxiliary solve at N = 512 and one bordered solve on the N = 257
    # rotation row each peak at most 2.5 float (N, N) arrays (4.0 and 4.2
    # with a fresh matrix per step)
    for (b, c, N), solve_once in [
        ((0, 2, 512), lambda bm: reduction._aux_y(bm, [])),
        (_rotation_row(257), lambda bm: reduction._bordered_newton(bm, [0.5, 0.3])),
    ]:
        _, bm = _bm(b, c, N, f"tanh(x)+0.1*cos(2*pi*t/{N})")
        bm.aux_operator, bm.g_bound, bm.border  # built once per map, outside the measurement
        assert _peak_bytes(lambda: solve_once(bm)) <= 2.5 * 8 * N * N


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
    reduction._aux_y(BifurcationMap(p, bm.ld), alpha)
    assert len(calls) == 2 * value_calls


def _stack_of(bm, k, scale):
    # k kernel coordinates around the origin, spread over [-scale, scale]
    # (dim 1) or over circles of radius up to scale (dim 2)
    if bm.dim == 1:
        return np.linspace(-scale, scale, k)[:, None]
    phi = 2.0 * np.pi * np.arange(k) / k
    rho = scale * (0.3 + 0.7 * np.arange(k) / k)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=1)


def _per_point(p, ld, alphas):
    # values and auxiliary Newton steps of one call per point, on a fresh map
    bm = BifurcationMap(p, ld)
    return np.array([bifurcation_value(bm, a) for a in alphas]), bm._inner_iters


@pytest.mark.parametrize("b,c,N,g", [
    (-3, 2, 9, "tanh(x)+0.1*cos(2*pi*t/9+0.3)"),
    (-1.5, 0.5, 21, "atan(x)+0.12*cos(2*pi*t/21+4.1)"),
    _rotation_row(15) + ("x/(1+abs(x))+0.17*cos(2*pi*t/15+0.8)",),
    _rotation_row(33) + ("tanh(x)+0.1*cos(2*pi*t/33)",),
    (-1.5, 0.5, 13, "ln(x+5)+0.1*cos(2*pi*t/13)"),
    _rotation_row(5) + ("ln(x+5)+0.1*cos(2*pi*t/5)",),
], ids=["dim1-N9", "dim1-N21", "dim2-N15", "dim2-N33", "dim1-ln", "dim2-ln"])
def test_bifurcation_value_of_a_stack_matches_the_points(b, c, N, g):
    # one stacked auxiliary Newton gives each point's value and takes each
    # point's steps; ln(x+5) puts some trial points outside g's domain
    p, bm = _bm(b, c, N, g)
    alphas = _stack_of(bm, 16, 2.0)
    stacked = bifurcation_value(bm, alphas)
    assert stacked.shape == (16, bm.dim)
    expected, steps = _per_point(p, bm.ld, alphas)
    np.testing.assert_allclose(stacked, expected, rtol=0, atol=1e-13)
    assert bm._inner_iters == steps


def test_bifurcation_value_of_a_stack_larger_than_a_chunk():
    # at N = 65 a chunk holds 15 Jacobians, so 40 points take three chunks
    p, bm = _bm(*_rotation_row(65), "tanh(x)+0.1*cos(2*pi*t/65)")
    assert max(1, linear._CHUNK_ENTRIES // 65 ** 2) == 15
    alphas = _stack_of(bm, 40, 3.0)
    expected, steps = _per_point(p, bm.ld, alphas)
    np.testing.assert_allclose(bifurcation_value(bm, alphas), expected, rtol=0, atol=1e-13)
    assert bm._inner_iters == steps


def test_a_stack_member_outside_the_domain_raises_what_its_point_raises():
    # the first failing member's error, naming t and x, after the members
    # before it: their steps are counted, as one call per point counts them
    p, bm = _bm(-3, 2, 5, "ln(x+5)+0.1*cos(2*pi*t/5)")
    alphas = np.array([[1.0], [2.0], [-9.0], [0.5]])
    with pytest.raises(expr.DomainError, match=r"ln of a non-positive value \(at t=\d+, x=") as info:
        bifurcation_value(bm, alphas)
    point = BifurcationMap(p, bm.ld)
    bifurcation_value(point, alphas[0])
    bifurcation_value(point, alphas[1])
    with pytest.raises(expr.DomainError) as at_point:
        bifurcation_value(point, alphas[2])
    assert str(info.value) == str(at_point.value)
    assert bm._inner_iters == point._inner_iters > 0


def test_a_stack_member_whose_slopes_leave_the_domain_raises_what_its_point_raises():
    # the second lift sits 5e-7 above ln's pole at x = -5: its residual is
    # defined, but its slope difference at h = 1e-6 is not, so the stack's
    # one evaluation fails and the slopes are taken row by row
    p, bm = _bm(-3, 2, 5, "ln(x+5)+0.1*cos(2*pi*t/5)")
    edge = (-5.0 + 5e-7) / bm.ld.resonance.kernel_basis[0, 0, 0]
    alphas = np.array([[1.0], [edge], [2.0]])
    with pytest.raises(expr.DomainError, match=r"\(at t=0, x=") as info:
        bifurcation_value(bm, alphas)
    point = BifurcationMap(p, bm.ld)
    bifurcation_value(point, alphas[0])
    with pytest.raises(expr.DomainError) as at_point:
        bifurcation_value(point, alphas[1])
    assert str(info.value) == str(at_point.value)
    assert bm._inner_iters == point._inner_iters > 0


def test_a_stack_member_over_the_step_budget_raises_convergence_error(monkeypatch):
    # the budget cut to one step below what the hardest member needs: that
    # member alone runs out, and the stack raises its ConvergenceError
    p, bm = _bm(-3, 2, 9, "tanh(x)+0.1*cos(2*pi*t/9)")
    alphas = np.array([[-0.5], [1.0], [3.0]])
    needs = []
    for a in alphas:
        point = BifurcationMap(p, bm.ld)
        bifurcation_value(point, a)
        needs.append(point._inner_iters)
    assert needs[1] > max(needs[0], needs[2])
    monkeypatch.setattr(reduction, "_AUX_NEWTON_STEPS", needs[1] - 1)
    with pytest.raises(ConvergenceError, match="did not converge"):
        bifurcation_value(bm, alphas)
    # as one call per point: the first member's steps and the spent budget
    assert bm._inner_iters == needs[0] + needs[1] - 1


def test_a_stalling_stack_member_raises_what_its_point_raises():
    # from w1 = 0 the auxiliary Newton stalls at the ninth of these points
    # (and at two later ones)
    p, bm = _bm(*_rotation_row(15), "x/(1+abs(x))+0.17*cos(2*pi*t/15+0.8)")
    alphas = _stack_of(bm, 16, 4.0)
    with pytest.raises(ConvergenceError, match="stalled") as info:
        bifurcation_value(bm, alphas)
    point = BifurcationMap(p, bm.ld)
    for a in alphas[:8]:
        bifurcation_value(point, a)
    with pytest.raises(ConvergenceError) as at_point:
        bifurcation_value(point, alphas[8])
    assert str(info.value) == str(at_point.value)
    assert bm._inner_iters == point._inner_iters


@pytest.mark.parametrize("g,slope", [
    ("0.3*tanh(x)+0.1*cos(2*pi*t/9)", 0.27),
    ("tanh(x)+0.1*cos(2*pi*t/9)", 0.9),
], ids=["converges", "over-budget"])
def test_a_stack_member_with_a_singular_jacobian_matches_its_point(g, slope, monkeypatch):
    # a Jacobian is made singular wherever the mean slope of g exceeds
    # slope, which only the middle lift, near g's steepest point, reaches:
    # the batched solve fails, that member searches along -r alone, and
    # the stack still gives each point's value or error and steps
    p, bm = _bm(-3, 2, 9, g)
    singular = []

    def jacobian(bm, dg, J):
        J = _jacobian(bm, dg, J)
        rows = dg.mean(axis=1) > slope
        singular.append((len(dg), int(rows.sum())))
        J[rows] = 0.0
        return J

    monkeypatch.setattr(reduction, "_jacobian", jacobian)
    alphas = np.array([[-2.0], [0.1], [2.0]])

    def outcome(bm, points):
        try:
            values = [bifurcation_value(bm, a) for a in points]
        except ConvergenceError as e:
            return str(e), bm._inner_iters
        return np.concatenate(values).ravel().tolist(), bm._inner_iters

    stacked = outcome(bm, [alphas])
    assert (3, 1) in singular
    assert stacked == outcome(BifurcationMap(p, bm.ld), alphas)


def test_a_stack_leaving_the_domain_needs_no_scalar_evaluation(monkeypatch):
    # trial points of this stack leave ln's domain again and again, but no
    # point fails there, so g is never evaluated at a single (t, x); the
    # stack raises its point's error after its point's steps
    p, bm = _bm(*_rotation_row(33), "ln(x+5)+0.1*cos(2*pi*t/33)")
    phi = 2.0 * np.pi * np.arange(16) / 16
    circle = 3.0 * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    evaluate, scalar = expr.evaluate, []

    def counted(node, t, x):
        if np.ndim(x) == 0:
            scalar.append((t, x))
        return evaluate(node, t, x)

    monkeypatch.setattr(expr, "evaluate", counted)
    with pytest.raises(ConvergenceError) as info:
        bifurcation_value(bm, circle)
    point = BifurcationMap(p, bm.ld)
    with pytest.raises(ConvergenceError) as at_point:
        for a in circle:
            bifurcation_value(point, a)
    assert str(info.value) == str(at_point.value)
    assert bm._inner_iters == point._inner_iters > 0
    assert scalar == []


def test_an_overflowing_trial_point_is_rejected_without_a_warning():
    # with exp(x) at |alpha| = 20 the search meets trial points where G1 g
    # overflows: such a residual is infinite, like one outside g's domain,
    # and no RuntimeWarning (an error in this suite) escapes; every point
    # stalls or runs out of steps, the stack with its first point's error
    p, bm = _bm(*_rotation_row(5), "exp(x)-1+0.1*cos(2*pi*t/5)")
    phi = 2.0 * np.pi * np.arange(16) / 16
    circle = 20.0 * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    messages = []
    for a in circle:
        with pytest.raises(ConvergenceError) as at_point:
            bifurcation_value(BifurcationMap(p, bm.ld), a)
        messages.append(str(at_point.value))
    with pytest.raises(ConvergenceError) as info:
        bifurcation_value(bm, circle)
    assert str(info.value) == messages[0]


def test_the_winding_sweep_is_chunked_to_the_memory_of_one_point():
    # at N = 257 one Jacobian is a whole chunk, so the 16 points of the
    # first sweep round are solved one at a time and hold about the memory
    # of a single point (all 16 Jacobians at once would be 8.4 MB)
    p, bm = _bm(*_rotation_row(257), "tanh(x)+0.1*cos(2*pi*t/257)")
    bm.aux_operator, bm.g_bound  # built once per map, outside the measurement
    phi = 2.0 * np.pi * np.arange(16) / 16
    circle = 5.0 * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    tracemalloc.start()
    try:
        bifurcation_value(bm, circle[3])
        _, one = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        bifurcation_value(bm, circle)
        _, sweep = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sweep <= 1.25 * one


@pytest.mark.parametrize("b,c,N,g", [
    (-1.5, 0.5, 13, "atan(x)+0.12*cos(2*pi*t/13+4.1)"),
    (-2.0 * math.cos(2.0 * math.pi / 5), 1.0, 5, "x/(1+abs(x))+0.17*cos(2*pi*t/5+0.8)"),
], ids=["dim1", "dim2"])
def test_solve_with_the_bound_forcing_matches_the_whole_tree(b, c, N, g, monkeypatch):
    # evaluating g's forcing once per solve changes no bit of the report
    p = make_problem(b, c, N, g)
    bound = solve(p).as_dict()
    monkeypatch.setattr(BifurcationMap, "g_bound", property(lambda bm: bm.problem.g))
    assert solve(p).as_dict() == bound


def test_g_values_on_the_bound_tree_name_the_failing_t():
    p, bm = _bm(-3, 2, 5, "ln(t)+x")
    with pytest.raises(expr.DomainError, match=r"ln of a non-positive value \(at t=0, x="):
        apply_F(p, np.ones((5, 2)))
    x0, w1 = bm.kernel_lift([0.5])[:, 0], np.zeros(5)
    assert _residual(bm, x0[None], w1[None])[4]
    assert re.search(r"ln of a non-positive value \(at t=0, x=", str(_row_error(bm, x0, w1)))


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
    # counts that do not depend on the machine: bisection took 41
    # evaluations of the bifurcation function on each of these rows and
    # Brent's method up to 12; the bordered Newton takes a few steps and
    # leaves Brent's method unused
    for N in Ns:
        for shape in ("tanh(x)", "atan(x)", "x/(1+abs(x))"):
            rep = solve(make_problem(b, c, N, f"{shape}+0.15*cos(2*pi*t/{N}+1.0)"))
            assert rep.oracle_verified
            assert 1 <= rep.iterations["newton"] <= 6
            assert rep.iterations["bisection"] == 0


@pytest.mark.parametrize("how", ["fails", "leaves-the-bracket"])
def test_solve_1d_falls_back_to_brent(how, monkeypatch):
    # when the bordered Newton does not converge, or converges outside
    # [-r, r], Brent's method on the bracket finds the root it would have
    p = make_problem(-1.5, 0.5, 13, "atan(x)+0.12*cos(2*pi*t/13+4.1)")
    r = 10.0
    newton = solve(p, r=r)
    bordered = reduction._bordered_newton

    def failing(bm, alpha0):
        y, alpha, steps, _ = bordered(bm, alpha0)
        if how == "fails":
            return y, alpha, steps, False
        return y, alpha + 2.0 * r, steps, True

    monkeypatch.setattr(reduction, "_bordered_newton", failing)
    rep = solve(p, r=r)
    assert rep.oracle_verified
    assert rep.residual_sup <= 1e-9
    assert abs(rep.alpha[0] - newton.alpha[0]) <= 1e-12 * r
    assert rep.iterations["bisection"] > 0
    assert rep.iterations["newton"] == newton.iterations["newton"]
    assert rep.iterations["inner_fixed_point"] > newton.iterations["inner_fixed_point"]


def test_solve_1d_bracket_end_outside_the_domain_is_a_solver_error():
    # the kernel lift at -r = -10 leaves ln(x+5)'s domain: a SolverError
    # naming r and the failing t and x, not a bare DomainError
    p = make_problem(-3, 2, 9, "ln(x+5)+0.1*cos(2*pi*t/9)")
    with pytest.raises(SolverError) as info:
        solve(p)
    message = str(info.value)
    assert re.search(r"r = 10\b.*ln of a non-positive value \(at t=\d+, x=-10\.0\)", message)
    assert "np.float64" not in message
    assert info.value.diagnostics == {"r": 10.0}


def test_a_located_domain_error_prints_a_plain_float():
    p = make_problem(-3, 2, 3, "ln(x+5)")
    with pytest.raises(expr.DomainError) as info:
        apply_F(p, np.full((3, 2), -10.0))
    assert str(info.value) == "ln of a non-positive value (at t=0, x=-10.0)"


@pytest.mark.parametrize("error", [ConvergenceError, expr.DomainError])
def test_nontrivial_scan_skips_a_bracket_whose_refinement_fails(monkeypatch, error):
    # the solve has found its root when the scan for nontrivial roots
    # starts; an auxiliary solve that fails inside a bracket's refinement
    # drops that bracket instead of the whole solve
    p = make_problem(-3, 2, 3, "1.5*sin(x)")
    grid = np.linspace(-10.0, 10.0, 33)
    scanning, failed = [], []
    real_forcing_free, real_aux = reduction._forcing_free, reduction._aux_fixed_points

    def forcing_free(problem):
        scanning.append(True)
        return real_forcing_free(problem)

    def aux(bm, x0):
        # the scan's grid is one stack; every other solve while scanning
        # belongs to a bracket's refinement
        on_grid = bm.kernel_lift(grid[:, None])[:, :, 0]
        if scanning and not all((on_grid == row).all(axis=1).any() for row in x0):
            failed.append(len(x0))
            raise error("refinement failed")
        return real_aux(bm, x0)

    monkeypatch.setattr(reduction, "_forcing_free", forcing_free)
    monkeypatch.setattr(reduction, "_aux_fixed_points", aux)
    rep = solve(p)
    assert rep.regime == 1
    assert rep.oracle_verified
    assert rep.nontrivial_root_found is False
    assert failed  # some bracket's refinement did fail


def test_winding_synthetic_maps():
    # the map takes the (k, 2) stack of a round's circle points
    assert winding_of_map(lambda a: a, 3.0) == 1
    assert winding_of_map(lambda a: np.tile([1.0, 0.5], (len(a), 1)), 3.0) == 0
    assert winding_of_map(lambda a: np.stack([a[:, 0] ** 2 - a[:, 1] ** 2, 2 * a[:, 0] * a[:, 1]],
                                             axis=1), 2.0) == 2
    with pytest.raises(BoundaryZeroError):
        winding_of_map(np.zeros_like, 1.0)
    with pytest.raises(ValueError):
        winding_of_map(lambda a: a, -1.0)
    with pytest.raises(ValueError, match="shape"):
        winding_of_map(lambda a: a[0], 1.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0])
def test_winding_refuses_a_radius_that_is_not_finite_and_positive(radius):
    calls = []
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        winding_of_map(lambda a: calls.append(a) or a, radius)
    assert not calls


@pytest.mark.parametrize("scale", [1e300, 1e-300, 2.0 ** -1074])
def test_winding_of_large_and_tiny_finite_values(scale):
    # the image points are scaled by a power of two before cross and dot
    # products are formed, which would overflow (inf - inf) or underflow here
    assert winding_of_map(lambda a: scale * a, 1.0) == 1
    assert winding_of_map(lambda a: np.stack([a[:, 0], -a[:, 1]], axis=1) * scale, 1.0) == -1


def test_a_solve_whose_map_reaches_1e300_finds_its_winding():
    # the bifurcation map is about 1e300 on the default circle; the sweep
    # settles at 16 points
    p = make_problem(*_rotation_row(5), "1e300*tanh(x)+0.1*cos(2*pi*t/5)")
    rep = solve(p)
    assert rep.oracle_verified and rep.winding == 1
    assert rep.iterations["winding_samples"] == 16


def test_a_default_radius_that_overflows_is_a_solver_error():
    # K_est = 1e308 times norm_upper (about 3) overflows the double range
    p = make_problem(*_rotation_row(5), "1e308*tanh(x)+0.1*cos(2*pi*t/5)")
    with pytest.raises(SolverError, match=r"^the default radius .* overflows the double range; "
                                          r"pass a finite radius$") as info:
        solve(p)
    d = info.value.diagnostics
    assert (d["zhat_est"], d["K_est"]) == (0.25, 1e308) and 2.9 < d["norm_upper"] < 3.0


def test_winding_evaluates_each_point_once():
    # z -> z^5 settles at 32 points; the sweeps of 8 and 16 points are the
    # even points of the next one, so the map sees 32 points, not 56, in
    # one call per round
    points, rounds = [], []

    def z5(a):
        rounds.append(len(a))
        points.extend(map(tuple, a))
        z = (a[:, 0] + 1j * a[:, 1]) ** 5
        return np.stack([z.real, z.imag], axis=1)

    assert winding_of_map(z5, 1.0) == 5
    assert len(points) == len(set(points)) == 32
    assert rounds == [8, 8, 16]


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


def test_solve_2d_default_radius_outside_the_domain_is_a_solver_error():
    # the default radius samples g on [-100, 100], where ln(x+5) is undefined
    p = make_problem(*_rotation_row(9), "ln(x+5)+0.1*cos(2*pi*t/9)")
    with pytest.raises(SolverError, match=r"samples g on \[-100, 100\] at every t: "
                                          r"ln of a non-positive value \(at t=0, x=") as info:
        solve(p)
    assert info.value.diagnostics == {"radius": 0.0}


def test_a_winding_sweep_outside_the_domain_leaves_the_seeds_to_solve():
    # circle points at radius 30 leave ln(x+20)'s domain: no winding, but a
    # seed near the origin still finds the root
    p = make_problem(*_rotation_row(9), "atan(x)+0.1*cos(2*pi*t/9)+0.001*ln(x+20)")
    rep = solve(p, radius=30.0)
    assert rep.winding is None and rep.degree_evidence is False
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


def test_reports_are_plain_json_data(dim0_problem, dim1_problem, dim2_problem):
    # as_dict() holds plain Python data, no NumPy scalars, in every regime
    # and for every checker
    for rep, regime in ((solve(dim0_problem), 0), (solve(dim1_problem), 1),
                        (solve(dim2_problem, radius=50.0), 2)):
        assert json.loads(json.dumps(rep.as_dict()))["regime"] == regime
    for check in (check_thm1(make_problem(0, 2, 3, "tanh(x)"), r=10.0, zhat=1.0),
                  check_thm2(dim2_problem, zhat=1.0),
                  check_corollary(make_problem(1.2, 1, 3, "tanh(x)"), R=1.0)):
        assert json.loads(json.dumps(check.as_dict()))["theorem"] == check.theorem
    assert type(check_thm1(dim0_problem, r=10.0, zhat=1.0).metadata["dim"]) is int


def _old_seed_order(radius, grid):
    # the seeds as a list sorted by a Python key: the order the solver keeps
    axis = np.linspace(-radius, radius, grid) if grid > 1 else np.array([0.0])
    seeds = [np.array([a0, a1]) for a0 in axis for a1 in axis
             if math.hypot(a0, a1) <= radius * (1.0 + 1e-12)]
    seeds.sort(key=lambda a: (float(np.hypot(a[0], a[1])), float(a[0]), float(a[1])))
    return [a.tolist() for a in seeds]


def test_dim2_seeds_are_tried_in_order_of_distance_then_coordinates(monkeypatch):
    # no seed converges, so every seed is tried; grid 11 at radius 5 puts
    # (3, 4) and its mirror images exactly on the circle
    tried = []

    def no_root(bm, alpha0):
        tried.append(np.asarray(alpha0).tolist())
        return np.zeros(bm.problem.N), np.asarray(alpha0), 0, False

    monkeypatch.setattr(reduction, "_bordered_newton", no_root)
    p = make_problem(*_rotation_row(5), "tanh(x)+0.1*cos(2*pi*t/5)")
    assert [3.0, 4.0] in _old_seed_order(5.0, 11)
    for radius in (5.0, 1.0, 2.5, math.pi, 0.3):
        for grid in range(1, 13):
            tried.clear()
            with pytest.raises(SolverError, match="no root of the bifurcation map"):
                solve(p, radius=radius, grid=grid)
            assert tried == _old_seed_order(radius, grid), (radius, grid)


@pytest.mark.parametrize("g", ["tanh(x)+0.1*cos(2*pi*t/5)", "atan(x)"],
                         ids=["forced", "forcing-free"])
def test_a_dim2_solve_asks_the_oracle_once_per_converged_seed(g, monkeypatch):
    # the seed loop judges each converged root by the oracle's residual, and
    # the accepted root's residual goes to the report without a second call;
    # without forcing the loop goes on looking for a nontrivial root
    converged, calls = [], []
    bordered, residual = reduction._bordered_newton, oracle.residual

    def counting_newton(bm, alpha0):
        out = bordered(bm, alpha0)
        converged.append(out[3])
        return out

    def counting_residual(problem, y):
        calls.append(y)
        return residual(problem, y)

    monkeypatch.setattr(reduction, "_bordered_newton", counting_newton)
    monkeypatch.setattr(oracle, "residual", counting_residual)
    p = make_problem(*_rotation_row(5), g)
    rep = solve(p, radius=5.0, grid=5)
    assert rep.oracle_verified
    assert len(calls) == sum(converged) >= 1
    assert rep.residual_sup == float(np.max(np.abs(residual(p, rep.y))))
    if g == "atan(x)":
        assert len(converged) > 1


def test_the_reduced_equations_check_names_a_domain_error_as_apply_F_does():
    # the check evaluates the map's bound g; outside g's domain it raises
    # the located error of the raw g
    p, bm = _bm(-3, 2, 5, "ln(x+5)+0.1*cos(2*pi*t/5)")
    x = np.zeros((5, 2))
    x[3, 0] = -7.0
    with pytest.raises(expr.DomainError) as via_apply:
        apply_F(p, x)
    with pytest.raises(expr.DomainError) as via_check:
        reduction._check_reduced_equations(bm, x, 1e-9)
    assert str(via_check.value) == str(via_apply.value)
    assert str(via_apply.value) == "ln of a non-positive value (at t=3, x=-7.0)"


def _unchunked_bounds(problem):
    # the default-radius estimates from one (N, 401) sample of g
    xs = np.linspace(-100.0, 100.0, 401)
    vals = expr.evaluate(problem.g, np.arange(problem.N)[:, None], xs)
    for cand in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        mask = np.abs(xs) >= cand
        if np.all(xs[None, mask] * vals[:, mask] > 0.0):
            return cand, float(np.max(np.abs(vals)))
    return 1.0, float(np.max(np.abs(vals)))


@pytest.mark.parametrize("g", ["tanh(x)+0.1*cos(2*pi*t/9)", "atan(x)+3*cos(2*pi*t/9+0.4)",
                               "tanh(x-3)", "0.5", "x/(1+abs(x))+0.9*sin(t)",
                               "tanh(x)*(1+0.5*cos(2*pi*t/9))"])
@pytest.mark.parametrize("entries", [1, 2 * 401, 4 * 401 + 7, 1 << 16])
def test_default_radius_estimates_do_not_depend_on_the_chunk(g, entries, monkeypatch):
    p = make_problem(*_rotation_row(9), g)
    monkeypatch.setattr(expr, "_CHUNK_ENTRIES", entries)
    assert reduction._estimate_bounds(p, 0.0) == _unchunked_bounds(p)


def _check_outcome(run):
    try:
        return repr(run().as_dict())
    except Exception as e:  # the error text is part of the outcome
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("g", ["tanh(x*cos(2*pi*t/9))", "x*sin(t)-atan(x)", "ln(x+200-30*t)",
                               "atan(x)*(1+0*cos(t))", "8e307*tanh(x)*(1+cos(t))"])
def test_check_outcomes_do_not_depend_on_the_chunk(g, monkeypatch):
    # a g that is not h(x) +- p(t) is sampled at every t, in chunks of about
    # _CHUNK_ENTRIES samples; the reports and error texts do not depend on it
    dim0, rot = make_problem(0, 2, 9, g), make_problem(*_rotation_row(9), g)
    runs = [lambda: check_thm1(dim0, r=10.0, zhat=1.0), lambda: check_thm2(rot, zhat=1.0),
            lambda: check_corollary(rot, R=1.0)]
    outcomes = []
    for entries in (1, 2 * 401, 1 << 16):
        monkeypatch.setattr(expr, "_CHUNK_ENTRIES", entries)
        outcomes.append([_check_outcome(run) for run in runs])
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("entries", [1, 3 * 401, 1 << 16])
def test_default_radius_estimates_name_the_same_domain_error_in_chunks(entries, monkeypatch):
    # ln(x + 200 - 30 t) first leaves its domain at t = 4, in a later chunk
    p = make_problem(*_rotation_row(9), "ln(x+200-30*t)")
    monkeypatch.setattr(expr, "_CHUNK_ENTRIES", entries)
    with pytest.raises(SolverError) as info:
        reduction._estimate_bounds(p, 0.0)
    assert str(info.value) == ("the default radius samples g on [-100, 100] at every t: "
                               "ln of a non-positive value (at t=4, x=-100.0)")


def test_default_radius_estimates_memory_does_not_grow_with_the_period():
    # one (N, 401) sample would be 52 MB at N = 16384; the chunks hold about
    # _CHUNK_ENTRIES samples each
    p = make_problem(0, 2, 16384, "tanh(x)+0.1*cos(2*pi*t/16384)")
    tracemalloc.start()
    try:
        zhat, K = reduction._estimate_bounds(p, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (zhat, K) == (0.25, pytest.approx(1.1, abs=1e-3))
    assert peak < 8 * 8 * linear._CHUNK_ENTRIES
