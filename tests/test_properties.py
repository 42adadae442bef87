"""Property sweep over the solve engine: every outcome is a verified
solution or a typed failure, and it is the same on a second run.

The draws cover the places where the linear part degenerates: points within
1e-6 of the resonance 1 + b + c = 0, the double root (-2, 1), rotation
kernels, and the real pair (0, -1) at even N; the forcings include the
domain-limited terms (x+a)^0.5 and ln. Cases that fail the property today
are listed in FRONTIER and kept as strict expected failures; a case leaves
the list only when it is fixed. A second sweep checks the implicit-function
derivative of the bifurcation map against a central difference on the
resonant draws. A third checks that the solver agrees with the
two-dimensional existence theorem: where ``check_thm2`` passes every
condition, a solution exists, so ``solve`` must verify one; its draws are
rotation rows up to N = 299 with the benchmark's forcings.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from perdiff import (
    BifurcationMap,
    ConvergenceError,
    DomainError,
    SolverError,
    bifurcation_jacobian,
    bifurcation_value,
    build_linear_data,
    check_thm2,
    solve,
)

from conftest import make_problem

FORCINGS = [
    "tanh(x)+{A}*cos(2*pi*t/{N})",
    "atan(x)+{A}*sin(2*pi*t/{N})",
    "3*(x+0.5)^0.5-{A}",
    "4*ln(x+1)+{A}",
]

# (b, c, N, g) on which the property fails today
FRONTIER = []
# (b, c, N, g, alpha) on which the Jacobian property fails today. At the
# double root with 4*ln(x+1)+A the auxiliary Newton from w = 0 lands on the
# branch w1 = +0.17 at alpha = 0 and on w1 = -0.15 just below it, so the map
# jumps at 0 and the central difference straddles the jump (an unseeded
# probe of 1500 draws found 21 such cases, all of this kind)
JACOBIAN_FRONTIER = [(-2.0, 1.0, 5, "4*ln(x+1)+0.05", (0.0, 0.05))]

# (b, c, N, g) where check_thm2 passes every condition but solve does not
# return a verified report today
AGREEMENT_FRONTIER = []

KINDS = ("generic", "near-resonance", "double-root", "rotation", "real-pair")


@st.composite
def coefficients(draw, kinds=KINDS):
    """(b, c, N) with N <= 40, biased towards degenerate linear parts."""
    kind = draw(st.sampled_from(kinds))
    N = draw(st.integers(2, 40))
    if kind == "generic":
        b = draw(st.floats(-3.0, 3.0))
        c = draw(st.floats(-3.0, 3.0).filter(lambda v: abs(v) >= 0.1))
    elif kind == "near-resonance":
        b = draw(st.floats(-3.0, 3.0).filter(lambda v: abs(v + 1.0) >= 0.1))
        c = -1.0 - b + draw(st.floats(-1e-6, 1e-6))
    elif kind == "double-root":
        b, c = -2.0, 1.0
    elif kind == "rotation":
        N = max(N, 3)
        k = draw(st.integers(1, (N - 1) // 2))
        b, c = -2.0 * math.cos(2.0 * math.pi * k / N), 1.0
    else:
        b, c, N = 0.0, -1.0, 2 * (N // 2)
    return b, c, N


def _outcome(b, c, N, g):
    # a verified report as its dict, or the failure's class and message
    try:
        rep = solve(make_problem(b, c, N, g))
    except (SolverError, DomainError) as e:
        return type(e).__name__, str(e)
    assert rep.oracle_verified
    assert rep.residual_sup <= 1e-9
    return "ok", repr(rep.as_dict())


def _check(b, c, N, g):
    assert _outcome(b, c, N, g) == _outcome(b, c, N, g)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(coefficients(), st.sampled_from(FORCINGS), st.floats(0.05, 0.3))
def test_solve_is_verified_or_a_typed_failure(bcn, forcing, A):
    b, c, N = bcn
    g = forcing.format(A=repr(A), N=N)
    assume((b, c, N, g) not in FRONTIER)
    _check(b, c, N, g)


def _jacobian_error(b, c, N, g, alpha):
    # largest entry of bifurcation_jacobian minus a central difference of
    # bifurcation_value, relative to the largest entry (at least 1); None
    # where an auxiliary solve does not converge
    p = make_problem(b, c, N, g)
    bm = BifurcationMap(p, build_linear_data(p))
    alpha = np.asarray(alpha[:bm.dim], dtype=float)
    try:
        J = bifurcation_jacobian(bm, alpha)
        expected = np.empty_like(J)
        for j in range(bm.dim):
            e = np.zeros(bm.dim)
            e[j] = 1e-6 * (1.0 + abs(alpha[j]))
            expected[:, j] = (bifurcation_value(bm, alpha + e)
                              - bifurcation_value(bm, alpha - e)) / (2.0 * e[j])
    except (ConvergenceError, DomainError):
        return None
    return float(np.max(np.abs(J - expected))) / max(1.0, float(np.max(np.abs(J))))


def _check_jacobian(b, c, N, g, alpha):
    err = _jacobian_error(b, c, N, g, alpha)
    assert err is None or err <= 1e-6


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(coefficients(kinds=("near-resonance", "double-root", "rotation", "real-pair")),
       st.sampled_from(FORCINGS), st.floats(0.05, 0.3),
       st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
def test_bifurcation_jacobian_matches_central_difference(bcn, forcing, A, alpha):
    b, c, N = bcn
    assume(build_linear_data(make_problem(b, c, N, "0")).resonance.dim > 0)
    g = forcing.format(A=repr(A), N=N)
    assume((b, c, N, g, alpha) not in JACOBIAN_FRONTIER)
    _check_jacobian(b, c, N, g, alpha)


def _check_agreement(b, c, N, g):
    # Theorem 2's hypotheses hold, so a solution exists and solve must find it
    p = make_problem(b, c, N, g)
    if check_thm2(p, zhat=1.0).overall:
        rep = solve(p)
        assert rep.oracle_verified
        assert rep.residual_sup <= 1e-9


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 149), st.sampled_from(["tanh(x)", "atan(x)", "x/(1+abs(x))"]),
       st.floats(0.05, 0.2), st.floats(0.0, 2.0 * math.pi))
def test_a_passing_theorem_2_gets_a_verified_solve(m, shape, A, phi):
    # rotation rows with k = 1 at odd N (check_thm2 needs an odd period),
    # forced as in the benchmark: s(x) + A*cos(2*pi*t/N + phi)
    N = 2 * m + 1
    b, c = -2.0 * math.cos(2.0 * math.pi / N), 1.0
    g = f"{shape}+{A!r}*cos(2*pi*t/{N}+{phi!r})"
    assume((b, c, N, g) not in AGREEMENT_FRONTIER)
    _check_agreement(b, c, N, g)


@pytest.mark.parametrize("check,case", [
    pytest.param(check, case, marks=pytest.mark.xfail(strict=True))
    for check, cases in ((_check, FRONTIER), (_check_jacobian, JACOBIAN_FRONTIER),
                         (_check_agreement, AGREEMENT_FRONTIER))
    for case in cases])
def test_frontier_case_still_fails(check, case):
    check(*case)
