"""Machine checks of the existence-theorem hypotheses.

Three checkers mirror the three existence results for the periodic
problem: the bounded-window theorem for kernel dimension < 2
(``check_thm1``), its corollary for time-independent nonlinearities and
all odd periods (``check_corollary``), and the two-dimensional resonance
theorem (``check_thm2``). Each produces a CheckReport listing every
condition with the computed quantities.

Suprema and infima of g are sampled on grids, never proven: sampled
verdicts are flagged as such in the report, and the 5% inflation of
suprema / deflation of infima only ever pushes a verdict toward "fail",
so a reported pass under-claims relative to the true bounds. Reports are
pure functions of their inputs, with no random sampling, hence bit-for-bit
reproducible. Each checker samples g in one fixed order: a small probe of
x values over t, for the periodicity (or t-independence) test, then the
corollary's growth windows at t = 0, then the x grids joined together. If
g leaves its domain, the error is that of the first of these to fail.

The hypotheses quantify over every t, and each reads g over the period
only through its least and greatest value at each x: a sup of |g|, an inf
of g, the sign of x*g. So the grids are sampled by ``expr.envelope``, which
keeps those two rows. For the forced form g = h(x) +- p(t) they are g at
the two t where p is least and greatest, for a g that reads no t one row;
any other g is evaluated at every t a chunk at a time. Every value read is
bitwise one of the full evaluation, and memory does not grow with N beyond
the probe's few values per t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expr
from .linear import Problem, _check_allocatable, build_linear_data, norm_bound_mp_iq

INFLATE = 1.05
DEFLATE = 0.95
RATIO_THRESHOLD = 0.1      # empirical cutoff for the sampled growth ratio
DEFAULT_MAX_DENOMINATOR = 10**6

# Tolerance for "arccos(-b/2)/(2*pi) equals the rational k/j". Convergents of
# irrational angles get as close as ~1/j^2, which reaches 1e-12 within the
# default denominator cap, so the test must sit at machine-equality scale to
# avoid declaring near-rational irrationals resonant.
RATIONAL_ANGLE_TOL = 64.0 * 2.220446049250313e-16


class NotApplicableError(ValueError):
    """The theorem does not apply to the problem: an even period for thm1 and
    thm2, a kernel that is not two-dimensional for thm2, a g that depends on t
    for the corollary."""


@dataclass(frozen=True)
class Condition:
    id: str
    passed: bool
    sampled: bool
    quantities: dict
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CheckReport:
    theorem: str
    conditions: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, cond_id: str) -> Condition:
        for c in self.conditions:
            if c.id == cond_id:
                return c
        raise KeyError(cond_id)

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "overall": self.overall,
            "conditions": [c.as_dict() for c in self.conditions],
            "metadata": self.metadata,
        }


# -- shared sampling helpers -----------------------------------------------


def _positive(v: float) -> bool:
    # nan fails every comparison, so "v <= 0" would let it through
    return math.isfinite(v) and v > 0


def _check_args(grid: int, N: int | None = None, **positive) -> int:
    # the checkers' argument rules: each value finite and positive, grid an
    # integer >= 2 that an array can hold (given back as an int), N odd
    for name, value in positive.items():
        if not _positive(value):
            raise ValueError(f"{name} must be finite and positive")
    if not (float(grid).is_integer() and grid >= 2):
        raise ValueError("grid must be an integer >= 2")
    _check_allocatable("grid", int(grid), 8 * int(grid))
    if N is not None and N % 2 == 0:
        raise NotApplicableError("this check requires an odd period N")
    return int(grid)


def _check_spans(*spans) -> None:
    # each (name, start, stop) is a range a checker samples; np.linspace forms
    # stop - start, and where that overflows it samples inf and nan, so the
    # argument name leads the error and the CLI reports it as --name
    for name, start, stop in spans:
        if not math.isfinite(stop - start):
            raise ValueError(f"{name} is too large: its sampled range [{start:g}, {stop:g}] "
                             "overflows the double range")


def _split(values: np.ndarray, grids: list) -> list:
    # the columns of values, one view per grid: np.split's blocks, sliced directly
    bounds = [0, *itertools.accumulate(len(x) for x in grids[:-1]), None]
    return [values[..., start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


# x values at which g is compared across t, and the relative tolerance of
# that comparison
_PROBE = np.array([-2.7, -1.3, -0.4, 0.0, 0.6, 1.9, 3.2])
_PROBE_TOL = 1e-12


@np.errstate(over="ignore")  # a difference that overflows is inf
def _sample_period(problem: Problem, grids: list):
    """Whether g is N-periodic in t at the probe x values, from one
    evaluation of g over the probe at t = 0..2N-1, then on each x grid g's
    least and greatest value over one period t = 0..N-1, from one
    ``expr.envelope`` of the grids joined. The probe is evaluated first, so
    its DomainError comes before any grid's."""
    g, N = problem.g, problem.N
    probe = expr.evaluate(g, np.arange(2 * N)[:, None], _PROBE)
    periodic = np.all(np.max(np.abs(probe[:N] - probe[N:]), axis=1)
                      <= _PROBE_TOL * (1.0 + np.max(np.abs(probe[:N]), axis=1)))
    bounds = expr.envelope(g, np.arange(N)[:, None], np.concatenate(grids))
    return bool(periodic), _split(bounds, grids)


@np.errstate(over="ignore")  # a difference that overflows is inf
def _sample_t_free(problem: Problem, windows: np.ndarray, grids: list):
    """g at t = 0 on the block of windows, one window a row, and on each
    grid g's least and greatest value over one period t = 0..N-1 (one row
    for a g that reads no t), once g is seen independent of t at the probe
    x values (NotApplicableError if not). g is evaluated in this order: the
    probe at t = 0..N (then the independence check), the windows at t = 0,
    one ``expr.envelope`` of the grids joined. So a DomainError comes from
    the first of these to fail, and a g that depends on t is found before
    any window is sampled.
    """
    g, N = problem.g, problem.N
    probe = expr.evaluate(g, np.arange(N + 1)[:, None], _PROBE)
    # g at t = 1..N against g at t = 0
    if not np.all(np.max(np.abs(probe[1:] - probe[0]), axis=1)
                  <= _PROBE_TOL * (1.0 + np.max(np.abs(probe[0])))):
        raise NotApplicableError("the corollary requires g independent of t")
    on_windows = expr.evaluate(g, 0, windows)
    bounds = expr.envelope(g, np.arange(N)[:, None], np.concatenate(grids))
    return on_windows, _split(bounds, grids)


@np.errstate(over="ignore")
def _sign_condition(xs: np.ndarray, g_pos: np.ndarray, g_neg: np.ndarray) -> tuple[bool, float]:
    """Is x*g(t,x) > 0 at x = xs and x = -xs (g sampled there)? Also the smallest product.

    The products are finite or +-inf, never nan, so all are positive iff the
    smallest is."""
    worst = min(float(np.min(xs * g_pos)), float(np.min(-xs * g_neg)))
    return worst > 0.0, worst


# -- theorem for kernel dimension < 2 ----------------------------------------


def check_thm1(problem: Problem, r: float, zhat: float, grid: int = 201) -> CheckReport:
    """Bounded-window existence hypotheses for kernel dimension 0 or 1.

    C1: |g| <= delta on [-2r, 2r] for all t (delta sampled, inflated 5%,
        plus the required N-periodicity of g in t);
    C2: x*g(t,x) > 0 sampled on zhat < |x| <= 4r;
    C3: zhat + ||M_p(I-Q)|| * delta < r with the sound norm upper bound
        (the lower bound, realised by an explicit unit input, is reported alongside);
    C4: the kernel is at most one-dimensional, as ``build_linear_data``
        classifies it (at odd N the only two-dimensional kernel is the
        rotation one: c = 1, |b| < 2 and N*arccos(-b/2) a multiple of 2*pi).
    """
    grid = _check_args(grid, problem.N, r=r, zhat=zhat)
    _check_spans(("r", -2.0 * r, 2.0 * r))  # then [zhat, 4r] spans less
    ld = build_linear_data(problem)

    xs = np.linspace(zhat, 4.0 * r, grid)[1:]  # strictly beyond zhat
    periodic_ok, (window, g_pos, g_neg) = _sample_period(
        problem, [np.linspace(-2.0 * r, 2.0 * r, grid), xs, -xs])
    delta = INFLATE * float(np.max(np.abs(window)))
    c1 = Condition(
        "C1", periodic_ok, True,
        {"delta": delta, "window": 2.0 * r, "g_periodic_in_t": periodic_ok},
        "delta sampled on a grid, inflated 5%; sampled, not proven",
    )

    sign_ok, worst = _sign_condition(xs, g_pos, g_neg)
    c2 = Condition(
        "C2", sign_ok, True,
        {"zhat": zhat, "range_hi": 4.0 * r, "min_x_times_g": worst},
        "sampled, not proven",
    )

    lower, upper = norm_bound_mp_iq(ld)
    lhs = zhat + upper * delta
    c3 = Condition(
        "C3", bool(lhs < r), False,
        {"norm_upper": upper, "norm_lower": lower, "lhs": lhs, "r": r},
        "uses the sound operator-norm upper bound",
    )

    rc = ld.resonance
    c4 = Condition("C4", bool(rc.dim < 2), False,
                   {"dim": int(rc.dim), "theta": rc.theta, "r_int": rc.r_int})

    return CheckReport(
        "thm1", (c1, c2, c3, c4),
        {"r": r, "zhat": zhat, "grid": grid, "dim": rc.dim},
    )


# -- resonance set membership ------------------------------------------------

# a continued fraction stops at a remainder this small, or after this many terms
_FRACTION_FLOOR = 1e-18
_MAX_TERMS = 64
# convergents are carried as doubles, exact while their denominators are below 2**53
_MAX_DENOMINATOR_LIMIT = 2**53 - 1
# b values per recurrence, whose every term is kept while it runs
_ROWS_PER_PASS = 1024


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _resonant_angles(theta: np.ndarray, max_denominator: int):
    """(in_u, p, q) for each angle theta = arccos(-b/2) of a column with
    |b| < 2, as ``math.acos`` gives it: is theta/(2*pi) within
    RATIONAL_ANGLE_TOL of a continued-fraction convergent p/q with
    q <= max_denominator and 0 <= 2p < q? p and q are the first such
    convergent's, 0 where there is none.

    One recurrence runs for _ROWS_PER_PASS rows at a time, up to _MAX_TERMS
    terms; a row's scan ends at its first hit, at its first convergent past
    max_denominator, or after a remainder at most _FRACTION_FLOOR. Terms a
    row computes after that (possibly 1/0 and inf - inf) are never read.
    """
    if theta.size > _ROWS_PER_PASS:
        parts = [_resonant_angles(theta[s:s + _ROWS_PER_PASS], max_denominator)
                 for s in range(0, theta.size, _ROWS_PER_PASS)]
        return tuple(np.concatenate(column) for column in zip(*parts))
    x = theta / (2.0 * math.pi)
    whole = np.floor(x)
    frac = x - whole
    one, zero = np.ones_like(x), np.zeros_like(x)
    pq, pq_prev = np.array([whole, one]), np.array([one, zero])  # rows p, q
    terms, fracs = [pq], [frac]
    while (len(terms) <= _MAX_TERMS
           and ((pq[1] <= max_denominator) & (frac > _FRACTION_FLOOR)).any()):
        y = 1.0 / frac
        whole = np.floor(y)
        frac = y - whole
        pq, pq_prev = whole * pq + pq_prev, pq
        terms.append(pq)
        fracs.append(frac)
    terms = np.array(terms)
    p, q = terms[:, 0], terms[:, 1]  # (terms, rows) each
    within = q <= max_denominator
    hit = within & (np.abs(x - p / q) <= RATIONAL_ANGLE_TOL) & (0 <= 2 * p) & (2 * p < q)
    end = hit | ~within | ~(np.array(fracs) > _FRACTION_FLOOR)
    first = np.argmax(end, axis=0), np.arange(x.size)
    in_u = hit[first]
    p, q = (np.where(in_u, v[first], 0).astype(np.int64) for v in (p, q))
    return in_u, p, q


def membership_U(b: float, max_denominator: int = DEFAULT_MAX_DENOMINATOR):
    """Is arccos(-b/2) of the form 2*pi*k/j with 0 <= 2k < j?

    Scans continued-fraction convergents of arccos(-b/2)/(2*pi) up to the
    given denominator; a convergent at machine-equality distance
    (RATIONAL_ANGLE_TOL) is taken as a rational hit. Returns
    (in_U, witness) where witness is the (k, j) pair or None. Only defined
    for finite b with |b| < 2 and an integer max_denominator in
    [2, 2**53). This is the one-row case of the array pass that gives
    ``perdiff scan`` its whole in_U column at once.
    """
    if not (2 <= max_denominator <= _MAX_DENOMINATOR_LIMIT
            and float(max_denominator).is_integer()):
        raise ValueError("max_denominator must be an integer in [2, 2**53)")
    if not abs(b) < 2.0:  # nan fails every comparison
        raise ValueError("membership is defined for b in (-2, 2) only")
    # math.acos: np.arccos may differ from it in the last bit
    in_u, p, q = _resonant_angles(np.array([math.acos(-float(b) / 2.0)]), int(max_denominator))
    return (True, (int(p[0]), int(q[0]))) if in_u[0] else (False, None)


# -- corollary: time-independent nonlinearities -------------------------------


def check_corollary(problem: Problem, R: float, r_schedule=None,
                    grid: int = 201) -> CheckReport:
    """Hypotheses guaranteeing solutions for every odd period N > 1.

    C1*: the sampled growth ratio sup_{|x|<=2r} |h| / (2r) decreases
         strictly along r_schedule and ends below 0.1 (empirical stand-in
         for the vanishing-limit condition);
    C2*: x*h(x) > 0 sampled beyond |x| = R;
    C3*: b outside the resonant angle set U, or c != 1.

    Requires g to be independent of t (checked; NotApplicableError otherwise).
    """
    grid = _check_args(grid, R=R)
    if r_schedule is None:
        r_schedule = [10.0**k for k in range(1, 7)]
    r_schedule = [float(r) for r in r_schedule]
    if not r_schedule or not all(map(_positive, r_schedule)):
        raise ValueError("r_schedule entries must be finite and positive")
    range_hi = max(4.0 * R, R + 10.0)
    _check_spans(("R", R, range_hi), *(("r_schedule", -2.0 * r, 2.0 * r) for r in r_schedule))
    xs = np.linspace(R, range_hi, grid)[1:]  # strictly beyond R
    # one window per radius, each row bitwise the radius's own np.linspace
    # (unless some step 4r / (grid - 1) underflows to 0: numpy then forms
    # every row by its subnormal branch, a radius below about 1e-322 at grid 201)
    rs = np.array(r_schedule)
    windows, (g_pos, g_neg) = _sample_t_free(
        problem, np.linspace(-2.0 * rs, 2.0 * rs, grid, axis=-1), [xs, -xs])
    ratios = (np.abs(windows).max(axis=1) / (2.0 * rs)).tolist()
    decreasing = all(ratios[k + 1] < ratios[k] for k in range(len(ratios) - 1))
    c1 = Condition(
        "C1*", decreasing and ratios[-1] < RATIO_THRESHOLD, True,
        {"r_schedule": r_schedule, "ratios": ratios,
         "threshold": RATIO_THRESHOLD},
        "asymptotic condition sampled along a finite schedule",
    )

    sign_ok, worst = _sign_condition(xs, g_pos, g_neg)
    c2 = Condition(
        "C2*", sign_ok, True,
        {"R": R, "range_hi": range_hi, "min_x_times_h": worst},
        "sampled, not proven",
    )

    if abs(problem.c - 1.0) > 1e-12:
        c3 = Condition("C3*", True, False,
                       {"c": problem.c, "in_U": None, "witness": None},
                       "c != 1")
    elif abs(problem.b) >= 2.0:
        c3 = Condition("C3*", True, False,
                       {"c": problem.c, "in_U": False, "witness": None},
                       "|b| >= 2 lies outside U")
    else:
        in_u, witness = membership_U(problem.b)
        c3 = Condition(
            "C3*", not in_u, False,
            {"c": problem.c, "in_U": in_u,
             "witness": None if witness is None else list(witness)},
            f"resonant angles scanned up to denominator {DEFAULT_MAX_DENOMINATOR}",
        )

    return CheckReport("corollary", (c1, c2, c3),
                       {"R": R, "r_schedule": r_schedule, "grid": grid})


# -- theorem for the two-dimensional kernel -----------------------------------


def check_thm2(problem: Problem, zhat: float, grid: int = 201) -> CheckReport:
    """Hypotheses of the two-dimensional resonance theorem.

    C1: g N-periodic in t and bounded (K sampled on a wide grid, +5%);
    C2: g(t, x) >= J > 0 and g(t, -x) <= -J for sampled x >= zhat (J is the
        sampled infimum, deflated 5%);
    C3: the rotation count r of the kernel satisfies
        N / gcd(r, N) >= max(3, K/J + 1).

    K and J are sampled on [-xmax, xmax] and [zhat, xmax], with xmax =
    max(100, 100 * zhat).
    """
    grid = _check_args(grid, problem.N, zhat=zhat)
    xmax = max(100.0, 100.0 * zhat)
    _check_spans(("zhat", -xmax, xmax))
    ld = build_linear_data(problem)
    if ld.resonance.dim != 2:
        raise NotApplicableError("kernel dimension is not 2; this theorem does not apply")

    xs_pos = np.linspace(zhat, xmax, grid)
    periodic_ok, (window, g_pos, g_neg) = _sample_period(
        problem, [np.linspace(-xmax, xmax, grid), xs_pos, -xs_pos])
    K = INFLATE * float(np.max(np.abs(window)))
    c1 = Condition(
        "C1", periodic_ok, True,
        {"K": K, "xmax": xmax, "g_periodic_in_t": periodic_ok},
        "K sampled on a grid, inflated 5%; sampled, not proven",
    )

    J_raw = float(min(np.min(g_pos), np.min(-g_neg)))
    J = DEFLATE * J_raw if J_raw > 0 else J_raw / DEFLATE
    c2 = Condition(
        "C2", bool(J > 0.0), True,
        {"J": J, "zhat": zhat},
        "J is the sampled infimum, deflated 5%",
    )

    r_int = ld.resonance.r_int
    if r_int is None or J <= 0.0:
        c3 = Condition("C3", False, False,
                       {"r_int": r_int, "gcd": None, "N_over_gcd": None,
                        "required": None})
    else:
        d = math.gcd(r_int, problem.N)
        n_over = problem.N / d
        required = max(3.0, K / J + 1.0)
        c3 = Condition(
            "C3", bool(n_over >= required), False,
            {"r_int": r_int, "gcd": d, "N_over_gcd": n_over,
             "required": required, "K_over_J": K / J},
        )

    return CheckReport(
        "thm2", (c1, c2, c3),
        {"zhat": zhat, "grid": grid, "xmax": xmax,
         "theta": ld.resonance.theta, "r_int": r_int},
    )
