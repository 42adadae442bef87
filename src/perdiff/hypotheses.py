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
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr
from .linear import Problem, build_linear_data, norm_bound_mp_iq

INFLATE = 1.05
DEFLATE = 0.95
RATIO_THRESHOLD = 0.1      # empirical cutoff for the sampled growth ratio
DEFAULT_MAX_DENOMINATOR = 10**6

# Tolerance for "arccos(-b/2)/(2*pi) equals the rational k/j". Convergents of
# irrational angles get as close as ~1/j^2, which reaches 1e-12 within the
# default denominator cap, so the test must sit at machine-equality scale to
# avoid declaring near-rational irrationals resonant.
RATIONAL_ANGLE_TOL = 64.0 * 2.220446049250313e-16


@dataclass(frozen=True)
class Condition:
    id: str
    passed: bool
    sampled: bool
    quantities: dict
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "passed": self.passed,
            "sampled": self.sampled,
            "quantities": self.quantities,
            "note": self.note,
        }


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


def _g_on_grid(problem: Problem, xs: np.ndarray) -> np.ndarray:
    """g sampled at every t in one period over the x grid; shape (N, len(xs))."""
    return expr.evaluate(problem.g, np.arange(problem.N)[:, None], xs)


_PROBE = np.array([-2.7, -1.3, -0.4, 0.0, 0.6, 1.9, 3.2])


def _t_periodic(problem: Problem, tol: float = 1e-12) -> bool:
    ts = np.arange(problem.N)[:, None]
    a = expr.evaluate(problem.g, ts, _PROBE)
    b = expr.evaluate(problem.g, ts + problem.N, _PROBE)
    return bool(np.all(np.max(np.abs(a - b), axis=1)
                       <= tol * (1.0 + np.max(np.abs(a), axis=1))))


def _t_independent(problem: Problem, tol: float = 1e-12) -> bool:
    base = expr.evaluate(problem.g, 0, _PROBE)
    vals = expr.evaluate(problem.g, np.arange(1, problem.N + 1)[:, None], _PROBE)
    return bool(np.all(np.max(np.abs(vals - base), axis=1)
                       <= tol * (1.0 + np.max(np.abs(base)))))


def _sign_condition(problem: Problem, lo: float, hi: float, grid: int) -> tuple[bool, float]:
    """Is x*g(t,x) > 0 on sampled lo < |x| <= hi? Also the smallest product."""
    xs = np.linspace(lo, hi, grid)[1:]  # strictly beyond lo
    worst = math.inf
    ok = True
    for sgn in (1.0, -1.0):
        vals = _g_on_grid(problem, sgn * xs)
        prods = (sgn * xs)[None, :] * vals
        worst = min(worst, float(np.min(prods)))
        ok = ok and bool(np.all(prods > 0.0))
    return ok, worst


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
    if problem.N % 2 == 0 or problem.N <= 1:
        raise ValueError("this check requires an odd period N > 1")
    if not (_positive(r) and _positive(zhat)):
        raise ValueError("r and zhat must be finite and positive")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    ld = build_linear_data(problem)

    periodic_ok = _t_periodic(problem)
    xs = np.linspace(-2.0 * r, 2.0 * r, grid)
    delta = INFLATE * float(np.max(np.abs(_g_on_grid(problem, xs))))
    c1 = Condition(
        "C1", periodic_ok, True,
        {"delta": delta, "window": 2.0 * r, "g_periodic_in_t": periodic_ok},
        "delta sampled on a grid, inflated 5%; sampled, not proven",
    )

    sign_ok, worst = _sign_condition(problem, zhat, 4.0 * r, grid)
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


def _convergents(x: float, max_terms: int = 64):
    """Continued-fraction convergents (p, q) of x, in order."""
    h_prev, k_prev = 1, 0
    h, k = int(math.floor(x)), 1
    yield h, k
    frac = x - math.floor(x)
    for _ in range(max_terms):
        if frac <= 1e-18:
            return
        x = 1.0 / frac
        a = int(math.floor(x))
        frac = x - a
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        yield h, k


def membership_U(b: float, max_denominator: int = DEFAULT_MAX_DENOMINATOR):
    """Is arccos(-b/2) of the form 2*pi*k/j with 0 <= 2k < j?

    Scans continued-fraction convergents of arccos(-b/2)/(2*pi) up to the
    given denominator; a convergent at machine-equality distance
    (RATIONAL_ANGLE_TOL) is taken as a rational hit. Returns
    (in_U, witness) where witness is the (k, j) pair or None. Only defined
    for |b| < 2.
    """
    if max_denominator < 2:
        raise ValueError("max_denominator must be >= 2")
    if abs(b) >= 2.0:
        raise ValueError("membership is defined for b in (-2, 2) only")
    x = math.acos(-b / 2.0) / (2.0 * math.pi)
    for p, q in _convergents(x):
        if q > max_denominator:
            break
        if q >= 1 and abs(x - p / q) <= RATIONAL_ANGLE_TOL and 0 <= 2 * p < q:
            return True, (p, q)
    return False, None


# -- corollary: time-independent nonlinearities -------------------------------


def check_corollary(problem: Problem, R: float, r_schedule=None,
                    grid: int = 201) -> CheckReport:
    """Hypotheses guaranteeing solutions for every odd period N > 1.

    C1*: the sampled growth ratio sup_{|x|<=2r} |h| / (2r) decreases
         strictly along r_schedule and ends below 0.1 (empirical stand-in
         for the vanishing-limit condition);
    C2*: x*h(x) > 0 sampled beyond |x| = R;
    C3*: b outside the resonant angle set U, or c != 1.

    Requires g to be independent of t (checked; ValueError otherwise).
    """
    if not _positive(R):
        raise ValueError("R must be finite and positive")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if r_schedule is None:
        r_schedule = [10.0**k for k in range(1, 7)]
    r_schedule = [float(r) for r in r_schedule]
    if not r_schedule or not all(map(_positive, r_schedule)):
        raise ValueError("r_schedule entries must be finite and positive")
    if not _t_independent(problem):
        raise ValueError("the corollary requires g independent of t")

    ratios = []
    for r in r_schedule:
        xs = np.linspace(-2.0 * r, 2.0 * r, grid)
        sup = float(np.max(np.abs(np.asarray(expr.evaluate(problem.g, 0, xs)))))
        ratios.append(sup / (2.0 * r))
    decreasing = all(ratios[k + 1] < ratios[k] for k in range(len(ratios) - 1))
    c1 = Condition(
        "C1*", decreasing and ratios[-1] < RATIO_THRESHOLD, True,
        {"r_schedule": r_schedule, "ratios": ratios,
         "threshold": RATIO_THRESHOLD},
        "asymptotic condition sampled along a finite schedule",
    )

    sign_ok, worst = _sign_condition(problem, R, max(4.0 * R, R + 10.0), grid)
    c2 = Condition(
        "C2*", sign_ok, True,
        {"R": R, "range_hi": max(4.0 * R, R + 10.0), "min_x_times_h": worst},
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


def check_thm2(problem: Problem, zhat: float, grid: int = 201,
               xmax: float | None = None) -> CheckReport:
    """Hypotheses of the two-dimensional resonance theorem.

    C1: g N-periodic in t and bounded (K sampled on a wide grid, +5%);
    C2: g(t, x) >= J > 0 and g(t, -x) <= -J for sampled x >= zhat (J is the
        sampled infimum, deflated 5%);
    C3: the rotation count r of the kernel satisfies
        N / gcd(r, N) >= max(3, K/J + 1).
    """
    if problem.N % 2 == 0 or problem.N <= 1:
        raise ValueError("this check requires an odd period N > 1")
    if not _positive(zhat):
        raise ValueError("zhat must be finite and positive")
    if xmax is not None and not _positive(xmax):
        raise ValueError("xmax must be finite and positive")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    ld = build_linear_data(problem)
    if ld.resonance.dim != 2:
        raise ValueError("kernel dimension is not 2; this theorem does not apply")
    if xmax is None:
        xmax = max(100.0, 100.0 * zhat)

    periodic_ok = _t_periodic(problem)
    xs = np.linspace(-xmax, xmax, grid)
    K = INFLATE * float(np.max(np.abs(_g_on_grid(problem, xs))))
    c1 = Condition(
        "C1", periodic_ok, True,
        {"K": K, "xmax": xmax, "g_periodic_in_t": periodic_ok},
        "K sampled on a grid, inflated 5%; sampled, not proven",
    )

    xs_pos = np.linspace(zhat, xmax, grid)
    g_pos = _g_on_grid(problem, xs_pos)
    g_neg = _g_on_grid(problem, -xs_pos)
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
