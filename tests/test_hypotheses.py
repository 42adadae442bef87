import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from perdiff import (check_corollary, check_thm1, check_thm2, classify, expr, hypotheses,
                     membership_U)
from perdiff.hypotheses import RATIONAL_ANGLE_TOL, NotApplicableError, _resonant_angles

from conftest import CANONICAL_G, exact_membership, make_problem


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


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_membership_refuses_a_non_finite_b(b):
    with pytest.raises(ValueError, match="b in \\(-2, 2\\)"):
        membership_U(b)


@pytest.mark.parametrize("max_denominator", [2.5, 1, 0, -3, math.nan, math.inf, 2**53])
def test_membership_refuses_a_max_denominator_out_of_range(max_denominator):
    with pytest.raises(ValueError, match="max_denominator must be an integer"):
        membership_U(1.2, max_denominator=max_denominator)


def test_membership_takes_an_integral_float_max_denominator():
    b = -2.0 * math.cos(2.0 * math.pi / 7.0)
    assert membership_U(b, max_denominator=7.0) == (True, (1, 7))
    assert membership_U(b, max_denominator=7) == (True, (1, 7))
    assert membership_U(b, max_denominator=6.0) == (False, None)


def _resonant_b():
    # -2cos(2*pi*k/j) for every angle of U with j <= 1000, each double once
    bs = {-2.0 * math.cos(2.0 * math.pi * k / j)
          for j in range(1, 1001) for k in range((j + 1) // 2)}
    return sorted(b for b in bs if abs(b) < 2.0)


_ULP_BELOW_2 = math.nextafter(2.0, 0.0)
_COLUMNS = {
    "uniform": lambda: np.random.default_rng(20).uniform(-2.0, 2.0, 20_000).tolist(),
    "resonant": _resonant_b,
    "edges": lambda: [_ULP_BELOW_2, -_ULP_BELOW_2, -0.0, 0.0],
    # a partial quotient far beyond the cap: 1/3 and 1/4 missed by about 1e-11
    "past the cap": lambda: [1.0 + 1e-10, 1.0 - 1e-10, 1e-10, -1e-10],
}


@pytest.mark.parametrize("max_denominator", [10**6, 10])
@pytest.mark.parametrize("column", sorted(_COLUMNS))
def test_membership_column_matches_exact_convergents(column, max_denominator):
    bs = _COLUMNS[column]()
    if column == "resonant" and max_denominator != 10**6:
        bs = bs[::50]
    in_u, p, q = _resonant_angles(np.array(bs), max_denominator)
    got = [(True, (pp, qq)) if hit else (False, None)
           for hit, pp, qq in zip(in_u.tolist(), p.tolist(), q.tolist())]
    want = [exact_membership(b, max_denominator) for b in bs]
    assert got == want
    if column == "resonant" and max_denominator == 10**6:
        assert all(in_u)
    # the one-row case is the same pass
    for b, expected in list(zip(bs, want))[::max(1, len(bs) // 200)]:
        assert membership_U(b, max_denominator) == expected


def test_membership_column_memory_does_not_grow_with_the_column():
    # every term of a row is kept while its recurrence runs, so rows go
    # through _ROWS_PER_PASS at a time: 50k rows at up to 65 terms would
    # otherwise hold more than 100 MB
    b = np.random.default_rng(21).uniform(-2.0, 2.0, 50_000)
    tracemalloc.start()
    try:
        in_u, p, q = _resonant_angles(b, 2**53 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert in_u.shape == p.shape == q.shape == b.shape
    assert peak < 16 * 2**20


def test_membership_column_never_warns():
    # rows that end early run on through 1/0 and inf - inf, unread
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        in_u, p, q = _resonant_angles(np.array([0.0, 1.0, 1.2, 1.0 + 1e-10, -_ULP_BELOW_2]), 10**6)
    assert in_u.tolist() == [True, True, False, False, False]
    assert (p.tolist(), q.tolist()) == ([1, 1, 0, 0, 0], [4, 3, 0, 0, 0])


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


_ROTATION_5 = (-2.0 * math.cos(2.0 * math.pi / 5), 1, 5)
# each call's argument is finite and positive, but a range it samples spans
# more than the double range: np.linspace would sample inf and nan there
_OVERFLOWING_CALLS = {
    "thm1 r": ("r", lambda: check_thm1(make_problem(0, 2, 3, "tanh(x)"), r=1e308, zhat=1.0)),
    "thm2 zhat": ("zhat", lambda: check_thm2(make_problem(*_ROTATION_5, "tanh(x)"), zhat=1e308)),
    "thm2 xmax": ("xmax", lambda: check_thm2(make_problem(*_ROTATION_5, "tanh(x)"), zhat=1.0,
                                             xmax=1e308)),
    "cor R": ("R", lambda: check_corollary(make_problem(-1.2, 1, 5, "tanh(x)"), R=1e308)),
    "cor r_schedule": ("r_schedule", lambda: check_corollary(
        make_problem(-1.2, 1, 5, "tanh(x)"), R=1.0, r_schedule=[10.0, 1e308])),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING_CALLS))
def test_checks_reject_an_argument_whose_sampled_range_overflows(case):
    name, call = _OVERFLOWING_CALLS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call()
    assert type(err.value) is ValueError
    assert str(err.value).startswith(f"{name} is too large: its sampled range")


def test_checks_sample_a_range_just_inside_the_double_range():
    # 4r, 4R and 2 * xmax stay finite here, so each check samples and reports
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [check_thm1(make_problem(0, 2, 3, "tanh(x)"), r=4e307, zhat=1.0),
                   check_thm2(make_problem(*_ROTATION_5, "tanh(x)"), zhat=8e305),
                   check_corollary(make_problem(-1.2, 1, 5, "tanh(x)"), R=4e307,
                                   r_schedule=[10.0, 4e307])]
    assert [rep.condition(c).passed for rep, c in zip(reports, ["C2", "C2", "C2*"])] == [True] * 3


@pytest.mark.parametrize("g, periodic", [("1.7e308*tanh(x)*cos(t)", False),
                                         ("1.7e308*tanh(x)*cos(2*pi*t/3)", True)])
def test_the_periodicity_test_of_a_g_near_the_double_range(g, periodic):
    # g at t and at t + N may differ by more than the double range: the
    # difference is inf, and no warning escapes
    report = check_thm1(make_problem(0, 2, 3, g), r=10.0, zhat=1.0)
    assert report.condition("C1").quantities["g_periodic_in_t"] is periodic


def test_split_gives_the_blocks_of_np_split():
    values = np.arange(24.0).reshape(2, 12)
    for grids in ([np.zeros(5), np.zeros(0), np.zeros(7)], [np.zeros(0), np.zeros(12)],
                  [np.zeros(12), np.zeros(0)], [np.zeros(3)] * 4):
        for v in (values, values[0]):
            got = hypotheses._split(v, grids)
            want = np.split(v, np.cumsum([len(x) for x in grids[:-1]]), axis=-1)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.strides == b.strides
                assert np.shares_memory(a, v) or a.size == 0
                assert np.array_equal(a, b)


@pytest.mark.parametrize("grid", [2, 3, 201])
def test_corollary_windows_are_each_radius_own_linspace(grid, monkeypatch):
    # the windows come from one np.linspace over the schedule; each must be
    # bitwise the radius's own grid, from 1e-300 to 1e300
    schedule = [float(r) for r in np.logspace(-300, 300, 25)] + [0.3, 7.77e12]
    seen = []
    sample = hypotheses._sample_t_free
    monkeypatch.setattr(hypotheses, "_sample_t_free",
                        lambda p, windows, grids: seen.append(windows) or sample(p, windows, grids))
    check_corollary(make_problem(-1.2, 1, 5, "tanh(x)"), R=1.0, r_schedule=schedule, grid=grid)
    (windows,) = seen
    assert len(windows) == len(schedule)
    for window, r in zip(windows, schedule):
        assert np.array_equal(window.view(np.int64),
                              np.linspace(-2.0 * r, 2.0 * r, grid).view(np.int64))


def test_corollary_rejects_time_dependent_g():
    with pytest.raises(ValueError):
        check_corollary(make_problem(0, 2, 3, CANONICAL_G), R=1.0)


_CHECKS = {
    "thm1": lambda g: check_thm1(make_problem(0, 2, 3, g), r=20.0, zhat=1.0),
    "thm2": lambda g: check_thm2(make_problem(1, 1, 3, g), zhat=1.0),
    "cor": lambda g: check_corollary(make_problem(1.2, 1, 3, g), R=1.0),
}


@pytest.mark.parametrize("theorem", sorted(_CHECKS))
def test_a_checker_raises_the_error_of_the_probe_before_the_grids(theorem):
    # ln(x+30) leaves its domain on the wide x windows, 1/x at the probe
    # point x = 0, which is sampled first; one evaluation over both would
    # name ln, the node it walks first
    g = "ln(x+30)+1/x"
    with pytest.raises(expr.DomainError, match="ln of a non-positive value"):
        expr.evaluate(expr.parse(g), 0, np.array([0.0, -40.0]))
    with pytest.raises(expr.DomainError) as err:
        _CHECKS[theorem](g)
    assert type(err.value) is expr.DomainError and str(err.value) == "division by zero"


@pytest.mark.parametrize("check, g", [
    # 1/(x-40) fails on the grid x in (1, 40], ln(x+30) on its mirror
    # [-40, -1): evaluated one grid at a time they gave "division by zero"
    (lambda g: check_thm1(make_problem(0, 2, 3, g), r=10.0, zhat=1.0), "ln(x+30)+1/(x-40)"),
    # on the probe, 1/(t-5) fails at t = 5 and ln(30-t*x) only at t + N:
    # evaluated one period at a time they gave "division by zero"
    (lambda g: check_thm1(make_problem(0, 2, 9, g), r=10.0, zhat=1.0),
     "tanh(x)+0*ln(30-t*x)+1/(t-5)"),
    (lambda g: check_thm2(make_problem(-2.0 * math.cos(2.0 * math.pi / 9), 1, 9, g), zhat=1.0),
     "tanh(x)+0*ln(30-t*x)+1/(t-5)"),
], ids=["thm1-grids", "thm1-probe", "thm2-probe"])
def test_a_checker_raises_the_error_of_each_joined_evaluation(check, g):
    # the grids are evaluated together, as is the probe over both periods:
    # the error is that of the node that evaluation walks first
    with pytest.raises(expr.DomainError) as err:
        check(g)
    assert type(err.value) is expr.DomainError and str(err.value) == "ln of a non-positive value"


def test_a_corollary_time_dependence_is_found_before_a_domain_error():
    # g depends on t and leaves its domain on the growth windows: the
    # independence check comes first
    with pytest.raises(ValueError, match="independent of t"):
        _CHECKS["cor"]("ln(x+30)+t")


@pytest.mark.parametrize("check", [
    lambda: check_corollary(make_problem(1.2, 1, 3, CANONICAL_G), R=1.0),
    lambda: check_thm2(make_problem(0, 2, 3, CANONICAL_G), zhat=1.0),
    lambda: check_thm2(make_problem(0, 1, 4, "tanh(x)"), zhat=1.0),
    lambda: check_thm1(make_problem(0, 2, 4, "tanh(x)"), r=10.0, zhat=1.0),
], ids=["cor-t-dependent", "thm2-dim0", "thm2-even-N", "thm1-even-N"])
def test_a_theorem_that_does_not_apply_raises_not_applicable(check):
    # a ValueError subclass: callers that catch ValueError see no change
    with pytest.raises(NotApplicableError) as info:
        check()
    assert isinstance(info.value, ValueError)


def test_the_corollary_ignores_g_where_it_does_not_sample():
    # 0*ln(30 - t*x) is 0 wherever the corollary samples, but leaves its
    # domain at t = N = 3 for x >= 10, a row only its probe (|x| <= 3.2)
    # covers: the report is that of tanh(x)
    assert (_CHECKS["cor"]("tanh(x)+0*ln(30-t*x)").as_dict()
            == _CHECKS["cor"]("tanh(x)").as_dict())


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


def test_thm2_refuses_an_xmax_below_zhat():
    # g(t, x) = -x past |x| = 3, so C2 fails there; an xmax below zhat would
    # sample C2 only on [xmax, zhat], where it holds
    p = make_problem(*_ROTATION_5, "x*sign(3-abs(x))")
    assert not check_thm2(p, zhat=2.0).condition("C2").passed
    with pytest.raises(ValueError, match=r"^xmax must be at least zhat"):
        check_thm2(p, zhat=2.0, xmax=1.0)
    assert check_thm2(p, zhat=2.0, xmax=2.0).condition("C2").passed  # samples x = zhat only


def test_thm2_requires_dim2_and_odd_period():
    with pytest.raises(ValueError):
        check_thm2(make_problem(0, 2, 3, "tanh(x)"), zhat=1.0)
    with pytest.raises(ValueError):
        check_thm2(make_problem(0, 1, 4, "tanh(x)"), zhat=1.0)  # dim 2 but even N


@pytest.mark.parametrize("theorem", ["thm1", "thm2", "cor"])
def test_a_check_at_every_t_holds_no_sample_of_the_whole_period(theorem):
    # a g that is not h(x) +- p(t) is sampled at every t; one (N, ~610)
    # sample at N = 16385 would be 80 MB, and its temporaries more. Only the
    # probe's 7 columns are kept at every t
    N = 16385
    g = f"tanh(x*cos(2*pi*t/{N}))"
    rotation = (-2.0 * math.cos(2.0 * math.pi / N), 1.0, N)
    run = {"thm1": lambda: check_thm1(make_problem(0, 2, N, g), r=10.0, zhat=1.0),
           "thm2": lambda: check_thm2(make_problem(*rotation, g), zhat=1.0),
           "cor": lambda: check_corollary(make_problem(*rotation, g), R=1.0)}[theorem]
    tracemalloc.start()
    try:
        try:
            overall = run().overall
        except NotApplicableError:  # the corollary, once g is seen to read t
            overall = None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert overall is {"thm1": False, "thm2": False, "cor": None}[theorem]
    assert peak < 16 * 8 * expr._CHUNK_ENTRIES


def test_a_check_that_leaves_the_domain_holds_no_sample_of_the_whole_period(cold_linear_data):
    # g leaves its domain on the x grids at t near N/2, in a later chunk of
    # the every-t envelope: no grid is evaluated over the whole period first
    N = 16385
    p = make_problem(-2.0 * math.cos(2.0 * math.pi / N), 1.0, N, f"ln(x*cos(2*pi*t/{N})+99)")
    tracemalloc.start()
    try:
        with pytest.raises(expr.DomainError, match="ln of a non-positive value"):
            check_thm2(p, zhat=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * expr._CHUNK_ENTRIES


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
