import math
import warnings
from fractions import Fraction

import pytest

from perdiff import check_corollary, check_thm1, check_thm2, classify, membership_U
from perdiff.hypotheses import RATIONAL_ANGLE_TOL

from conftest import CANONICAL_G, make_problem


# -- membership in the resonant-angle set ------------------------------------


@pytest.mark.parametrize("b,expected", [
    (1.0, (True, (1, 3))),
    (0.0, (True, (1, 4))),
    (-1.0, (True, (1, 6))),
])
def test_membership_known_angles(b, expected):
    assert membership_U(b) == expected


def test_membership_irrational_angle():
    in_u, witness = membership_U(1.2, max_denominator=10**6)
    assert not in_u and witness is None


def test_membership_cross_checked_against_fraction():
    # independent route: best rational approximation via Fraction
    for b in (1.0, 0.0, -1.0, 1.2, 0.7, -2 * math.cos(2 * math.pi / 7)):
        x = math.acos(-b / 2.0) / (2.0 * math.pi)
        frac = Fraction(x).limit_denominator(10**6)
        close = abs(x - float(frac)) <= RATIONAL_ANGLE_TOL
        expected = close and 0 <= 2 * frac.numerator < frac.denominator
        got, witness = membership_U(b)
        assert got == expected
        if got:
            assert witness == (frac.numerator, frac.denominator)


def test_membership_rejects_out_of_range():
    with pytest.raises(ValueError):
        membership_U(2.0)
    with pytest.raises(ValueError):
        membership_U(-2.5)
    with pytest.raises(ValueError):
        membership_U(1.0, max_denominator=1)


# -- bounded-window theorem ----------------------------------------------------


def test_thm1_canonical_dim1():
    p = make_problem(-3, 2, 3, "tanh(x)")
    rep = check_thm1(p, r=10.0, zhat=1.0)
    assert rep.overall
    delta = rep.condition("C1").quantities["delta"]
    assert delta == pytest.approx(1.05, abs=0.01)  # 1.05 * sup |tanh|
    upper = rep.condition("C3").quantities["norm_upper"]
    assert rep.condition("C3").passed == (1.0 + upper * delta < 10.0)
    assert rep.condition("C4").passed  # one-dimensional case is exempt


def test_thm1_c3_fails_for_cubic_with_large_zhat():
    p = make_problem(-3, 2, 3, "x^3")
    rep = check_thm1(p, r=1.0, zhat=5.0)
    assert not rep.condition("C3").passed
    assert not rep.overall


def test_thm1_c2_fails_without_sign_condition():
    p = make_problem(-3, 2, 3, "0-tanh(x)")
    rep = check_thm1(p, r=10.0, zhat=1.0)
    assert not rep.condition("C2").passed


def test_thm1_c4_fails_exactly_in_the_rotation_case():
    # C4 reads the classification, so next to the rotation case it follows
    # the symbol cutoff: 1e-10 off it is still dim 2, 3.3e-9 off it is not
    rows = [
        (1, 1, 3, False), (1, 1.5, 3, True), (2.5, 1, 3, True),
        (-2 * math.cos(2 * math.pi / 243) + 1e-10, 1, 243, False),
        (-2 * math.cos(2 * math.pi / 81) + 1e-10, 1, 81, False),
        (-2 * math.cos(2 * math.pi / 3) + 3.3e-9, 1, 3, True),
    ]
    for b, c, N, passed in rows:
        p = make_problem(b, c, N, "tanh(x)")
        rc = classify(p)
        c4 = check_thm1(p, r=10.0, zhat=1.0).condition("C4")
        assert c4.passed == (rc.dim < 2) == passed, (b, c, N)
        assert c4.quantities == {"dim": rc.dim, "theta": rc.theta, "r_int": rc.r_int}
        assert type(c4.passed) is bool and type(c4.quantities["dim"]) is int


def test_thm1_growth_window_family():
    # |g| <= M1 |x|^s + M2 with small M1, M2 passes at r = 2 * zhat
    p = make_problem(-3, 2, 3, "0.001*x^3")
    rep = check_thm1(p, r=2.0, zhat=1.0)
    assert rep.overall
    delta = rep.condition("C1").quantities["delta"]
    assert delta == pytest.approx(1.05 * 0.001 * 4.0**3, rel=1e-12)


@pytest.mark.parametrize("b, c, N", [(0.5, -3, 81), (0.5, -3, 243), (0, 2, 243)])
def test_thm1_at_large_period_off_the_unit_circle(b, c, N):
    # multipliers 1.5 and -2, or of modulus sqrt(2): |mu|^N is huge, but the
    # kernel stays trivial and the attained lower bound stays below the
    # sound upper bound
    p = make_problem(b, c, N, f"tanh(x)+0.1*cos(2*pi*t/{N})")
    rep = check_thm1(p, r=10.0, zhat=1.0)
    assert rep.metadata["dim"] == 0
    q = rep.condition("C3").quantities
    assert 0.0 < q["norm_lower"] <= q["norm_upper"]


def test_thm1_requires_odd_period():
    with pytest.raises(ValueError):
        check_thm1(make_problem(0, 2, 4, "tanh(x)"), r=10.0, zhat=1.0)


def test_thm1_detects_nonperiodic_forcing():
    p = make_problem(0, 2, 3, "tanh(x)+0.1*cos(t)")  # period 2*pi, not 3
    rep = check_thm1(p, r=10.0, zhat=1.0)
    assert not rep.condition("C1").passed


# -- corollary -------------------------------------------------------------------


def test_corollary_logfade_passes_growth_condition():
    p = make_problem(1.2, 1, 3, "logfade(x)")
    rep = check_corollary(p, R=5.0)
    c1 = rep.condition("C1*")
    assert c1.passed
    ratios = c1.quantities["ratios"]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.1
    assert rep.condition("C3*").passed  # b=1.2 is not a resonant angle


def test_corollary_linear_growth_fails():
    p = make_problem(1.2, 1, 3, "x")
    rep = check_corollary(p, R=1.0)
    c1 = rep.condition("C1*")
    assert not c1.passed
    assert c1.quantities["ratios"][0] == pytest.approx(1.0)


def test_corollary_c3_star_routes():
    # c != 1 passes regardless of b
    rep = check_corollary(make_problem(1.0, 2.0, 3, "tanh(x)"), R=1.0)
    assert rep.condition("C3*").passed
    # c = 1 with a resonant angle fails
    rep = check_corollary(make_problem(1.0, 1.0, 3, "tanh(x)"), R=1.0)
    assert not rep.condition("C3*").passed
    # |b| >= 2 lies outside the angle set
    rep = check_corollary(make_problem(2.5, 1.0, 3, "tanh(x)"), R=1.0)
    assert rep.condition("C3*").passed


@pytest.mark.parametrize("grid", [1, 0])
def test_checks_reject_a_grid_below_two(grid):
    # one sample cannot show a sign condition or a supremum
    with pytest.raises(ValueError, match="grid"):
        check_thm1(make_problem(-3, 2, 3, "tanh(x)"), r=10.0, zhat=1.0, grid=grid)
    with pytest.raises(ValueError, match="grid"):
        check_corollary(make_problem(-3, 2, 3, "tanh(x)"), R=1.0, grid=grid)
    with pytest.raises(ValueError, match="grid"):
        check_thm2(make_problem(1, 1, 3, "tanh(x)"), zhat=1.0, grid=grid)


_CHECK_CALLS = {
    "thm1 r": lambda v: check_thm1(make_problem(-3, 2, 3, "tanh(x)"), r=v, zhat=1.0),
    "thm1 zhat": lambda v: check_thm1(make_problem(-3, 2, 3, "tanh(x)"), r=10.0, zhat=v),
    "thm2 zhat": lambda v: check_thm2(make_problem(1, 1, 3, "tanh(x)"), zhat=v),
    "thm2 xmax": lambda v: check_thm2(make_problem(1, 1, 3, "tanh(x)"), zhat=1.0, xmax=v),
    "cor R": lambda v: check_corollary(make_problem(1.2, 1, 3, "tanh(x)"), R=v),
    "cor r_schedule": lambda v: check_corollary(make_problem(1.2, 1, 3, "tanh(x)"), R=1.0,
                                                r_schedule=[10.0, v, 1000.0]),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arg", sorted(_CHECK_CALLS))
def test_checks_reject_a_non_finite_argument(arg, value):
    # nan passes a "<= 0" guard; it must be refused before g is sampled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            _CHECK_CALLS[arg](value)


def test_corollary_rejects_time_dependent_g():
    with pytest.raises(ValueError):
        check_corollary(make_problem(0, 2, 3, CANONICAL_G), R=1.0)


# -- two-dimensional resonance theorem --------------------------------------------


def test_thm2_canonical():
    p = make_problem(1, 1, 3, CANONICAL_G)
    rep = check_thm2(p, zhat=1.0)
    assert rep.overall
    K = rep.condition("C1").quantities["K"]
    J = rep.condition("C2").quantities["J"]
    assert K == pytest.approx(1.05 * 1.1, abs=0.01)
    assert J == pytest.approx(0.95 * (math.tanh(1.0) - 0.1), abs=1e-3)
    q3 = rep.condition("C3").quantities
    assert q3["gcd"] == 1 and q3["N_over_gcd"] == 3.0
    assert q3["required"] == 3.0  # max(3, K/J + 1) with K/J + 1 < 3


def test_thm2_prime_period_bounded_limits():
    # bounded g with limits +-K and J close to K: the gcd bound collapses to 3
    p = make_problem(1, 1, 3, "tanh(x)")
    rep = check_thm2(p, zhat=2.0)
    assert rep.overall
    q3 = rep.condition("C3").quantities
    assert q3["required"] == 3.0


def test_thm2_fails_for_tiny_zhat():
    # zhat = 0.01 drags the sampled infimum J negative
    p = make_problem(1, 1, 3, CANONICAL_G)
    rep = check_thm2(p, zhat=0.01)
    assert not rep.condition("C2").passed
    assert not rep.condition("C3").passed
    assert not rep.overall


def test_thm2_requires_dim2_and_odd_period():
    with pytest.raises(ValueError):
        check_thm2(make_problem(0, 2, 3, "tanh(x)"), zhat=1.0)
    with pytest.raises(ValueError):
        check_thm2(make_problem(0, 1, 4, "tanh(x)"), zhat=1.0)  # dim 2 but even N


# -- report mechanics ---------------------------------------------------------------


def test_reports_are_reproducible():
    p = make_problem(-3, 2, 3, "tanh(x)")
    a = check_thm1(p, r=10.0, zhat=1.0)
    b = check_thm1(p, r=10.0, zhat=1.0)
    assert a.as_dict() == b.as_dict()


def test_overall_is_conjunction():
    p = make_problem(-3, 2, 3, "x^3")
    rep = check_thm1(p, r=1.0, zhat=5.0)
    assert rep.overall == all(c.passed for c in rep.conditions)


def test_conservatism_pushes_toward_fail():
    # inflating delta can only hurt C3; deflating J can only hurt C2/C3
    p = make_problem(-3, 2, 3, "tanh(x)")
    rep = check_thm1(p, r=10.0, zhat=1.0)
    delta = rep.condition("C1").quantities["delta"]
    assert delta >= 1.0  # true sup is < 1
    p2 = make_problem(1, 1, 3, CANONICAL_G)
    rep2 = check_thm2(p2, zhat=1.0)
    assert rep2.condition("C2").quantities["J"] <= math.tanh(1.0) - 0.1
