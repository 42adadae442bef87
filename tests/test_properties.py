"""Property sweep over the solve engine: every outcome is a verified
solution or a typed failure, and it is the same on a second run.

The draws cover the places where the linear part degenerates: points within
1e-6 of the resonance 1 + b + c = 0, the double root (-2, 1), rotation
kernels, and the real pair (0, -1) at even N; the forcings include the
domain-limited terms (x+a)^0.5 and ln. Cases that fail the property today
are listed in FRONTIER and kept as strict expected failures; a case leaves
the list only when it is fixed.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from perdiff import DomainError, SolverError, solve

from conftest import make_problem

FORCINGS = [
    "tanh(x)+{A}*cos(2*pi*t/{N})",
    "atan(x)+{A}*sin(2*pi*t/{N})",
    "3*(x+0.5)^0.5-{A}",
    "4*ln(x+1)+{A}",
]

# (b, c, N, g) on which the property fails today
FRONTIER = []


@st.composite
def coefficients(draw):
    """(b, c, N) with N <= 40, biased towards degenerate linear parts."""
    kind = draw(st.sampled_from(["generic", "near-resonance", "double-root",
                                 "rotation", "real-pair"]))
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


@pytest.mark.parametrize("b,c,N,g", [pytest.param(*case, marks=pytest.mark.xfail(strict=True))
                                     for case in FRONTIER])
def test_frontier_case_still_fails(b, c, N, g):
    _check(b, c, N, g)
