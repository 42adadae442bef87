"""Nonlinear machinery: reduction of the periodic problem to kernel coordinates.

Solving L x = F(x) splits into the auxiliary equation
x = P x + M_p (I - Q) F(x), solved by damped Newton (Armijo line search,
with the Picard step as the second search direction) for each choice of
kernel coordinates, and a finite-dimensional bifurcation equation: the
pairing of F against the periodic adjoint solutions must vanish. A sequence
solves the original problem exactly when both hold.

As F(x) = (0, g(t, x1)) and the solvers read only x1 = y, the auxiliary
equation is solved for w1 alone: only the (N, N) first-component block of
M_p (I - Q) on the g component is gathered, once per bifurcation map, so
each residual is one matrix-vector product, and the Newton Jacobian is
built from pointwise differences of g. The bifurcation value reuses the
g-values of the converged residual, and the same Jacobian gives its
derivative by the implicit-function theorem, so the planar Newton step
needs no further auxiliary solve.

``solve`` is the one entry point. It checks its arguments, builds the
linear data once and runs the regime solver of the kernel dimension (0, 1
or 2), as its docstring describes. One damped Newton loop and one
bracketing root finder serve all three. Every solution is re-validated: the
two reduced equations hold, and the recurrence residual, computed by the
independent oracle module, is within tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr, oracle
from .linear import (
    LinearData,
    NotInImageError,
    Problem,
    build_linear_data,
    mp_solve,
    norm_bound_mp_iq,
    proj_P,
    proj_Q,
    sup_norm,
    _mpiq_g1,
)

# tolerance and Newton step budget of one auxiliary solve
_AUX_TOL = 1e-12
_AUX_NEWTON_STEPS = 40
# initial sample count and cap of the winding sweep of the planar solver
_WINDING_SAMPLES = 16
_WINDING_MAX_SAMPLES = 1 << 14


class SolverError(RuntimeError):
    """A solver could not produce an acceptable solution."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConvergenceError(SolverError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class NoSignChangeError(SolverError):
    """Scalar bifurcation function has equal signs at both interval ends."""


class BoundaryZeroError(RuntimeError):
    """The swept map vanishes on the circle; the degree is undefined there."""


# -- substitution operator ------------------------------------------------


def _g_values(problem: Problem, x1: np.ndarray) -> np.ndarray:
    """g(t, x1(t)) for t = 0..N-1; a DomainError names the first failing t."""
    try:
        return expr.evaluate(problem.g, np.arange(problem.N), x1)
    except expr.DomainError:
        for t in range(problem.N):
            try:
                expr.evaluate(problem.g, t, x1[t])
            except expr.DomainError as e:
                raise expr.DomainError(f"{e} (at t={t}, x={x1[t]!r})") from None
        raise


def apply_F(problem: Problem, x: np.ndarray) -> np.ndarray:
    """(F x)(t) = (0, g(t, x1(t))); the nonlinearity lifted to sequences."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[:, 1] = _g_values(problem, x[:, 0])
    return out


# -- bifurcation map -------------------------------------------------------


@dataclass
class BifurcationMap:
    """Reduced problem in kernel coordinates.

    ``aux_operator`` (G1) and ``norm_upper`` are read from the column of
    M_p (I - Q) that ``linear`` keeps, each on first use. ``_inner_iters``
    counts the auxiliary Newton steps taken on this map. The last auxiliary
    solution and its g-values are kept, keyed by the kernel lift, so a
    value, a Jacobian or a solution read at the point of the last one costs
    no second solve and no g evaluation.

    A trivial kernel (dim 0) is the degenerate case P = Q = 0: the kernel
    lift is zero and M_p (I - Q) is L^{-1}.
    """

    problem: Problem
    ld: LinearData
    _inner_iters: int = field(default=0, init=False, repr=False)
    _last_aux: tuple | None = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.ld.resonance.dim

    def _mpiq(self, reader):
        try:
            return reader(self.ld)
        except NotInImageError as e:
            # the projected unit inputs failed the image test: the linear
            # data is too inaccurate to build M_p (I - Q)
            raise SolverError(f"cannot assemble M_p(I-Q): {e}",
                              diagnostics={"defect": e.defect, "N": self.problem.N}) from None

    @cached_property
    def norm_upper(self) -> float:
        """Cached sound upper bound for the norm of M_p (I - Q)."""
        return self._mpiq(norm_bound_mp_iq)[1]

    @cached_property
    def aux_operator(self) -> np.ndarray:
        """Cached (N, N) matrix G1: the first component of M_p (I - Q) on g.

        (M_p (I - Q) F(x))[:, 0] = G1 @ g(t, x1(t)).
        """
        return self._mpiq(_mpiq_g1)

    def kernel_lift(self, alpha) -> np.ndarray:
        """Kernel element with coordinates alpha in the classified basis."""
        a = np.atleast_1d(np.asarray(alpha, dtype=float))
        if a.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} kernel coordinate(s)")
        lift = np.zeros((self.problem.N, 2))
        for aj, zj in zip(a, self.ld.resonance.kernel_basis):
            lift += aj * zj
        return lift


def _damped_newton(resid, jac, x: np.ndarray, norm, tol: float, max_steps: int,
                   picard: bool = False):
    """Damped Newton on resid(x) = 0 with an Armijo backtracking line search.

    A trial point that leaves g's domain counts as an infinite residual.
    With picard set, resid is a fixed-point residual x - T(x), and a step
    whose Newton search finds no decrease, or whose jac(x) is singular,
    searches along -resid(x) instead: the damped Picard step.

    Returns (x, norm(resid(x)), steps, stop), where stop says why it ended:
    "converged" (norm <= tol), "stalled" (no step length down to 1e-12
    along any direction decreased |resid|^2, or jac(x) was singular and
    picard unset) or "budget" (max_steps steps taken). On "converged" the
    last resid call was at the returned x.
    """
    r = resid(x)
    for it in range(max_steps + 1):
        rn = norm(r)
        if rn <= tol:
            return x, rn, it, "converged"
        if it == max_steps:
            return x, rn, it, "budget"
        try:
            directions = [np.linalg.solve(jac(x), -r)]
        except np.linalg.LinAlgError:
            directions = []
        if picard:
            directions.append(-r)
        step = _armijo(resid, x, r, directions)
        if step is None:
            return x, rn, it, "stalled"
        x, r = step


def _armijo(resid, x: np.ndarray, r: np.ndarray, directions):
    # first (x + s d, resid(x + s d)) with sufficient decrease of |resid|^2,
    # halving s from 1 down to 1e-12 along each direction in turn
    f0 = float(r @ r)
    for d in directions:
        s = 1.0
        while s >= 1e-12:
            try:
                r_new = resid(x + s * d)
            except expr.DomainError:
                r_new = np.full_like(r, np.inf)
            if float(r_new @ r_new) <= (1.0 - 1e-4 * s) * f0:
                return x + s * d, r_new
            s *= 0.5
    return None


def _g_slopes(problem: Problem, lift: np.ndarray, w1: np.ndarray) -> np.ndarray:
    # central difference quotients of g at x1 = lift1 + w1, step
    # h = 1e-6 * (1 + |w1|): the ones a column-by-column difference of the
    # whole auxiliary residual takes, without the rounding noise of the operator
    h = 1e-6 * (1.0 + np.abs(w1))
    x1 = lift[:, 0] + w1
    return (_g_values(problem, x1 + h) - _g_values(problem, x1 - h)) / (2.0 * h)


def _aux_jacobian(bm: BifurcationMap, lift: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of w1 -> w1 - G1 g(lift1 + w1).

    g acts pointwise, so it is I - G1 diag(dg), dg from ``_g_slopes``.
    """
    return np.eye(bm.problem.N) - bm.aux_operator * _g_slopes(bm.problem, lift, w1)


_AUX_FAILURE = {
    "stalled": "auxiliary equation stalled (residual {:.3e})",
    "budget": "auxiliary equation did not converge (residual {:.3e})",
}


def _aux_fixed_point(bm: BifurcationMap, lift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the first component of w = M_p (I - Q) F(lift + w) to _AUX_TOL.

    Damped Newton runs on w1 - G1 g(lift1 + w1) from w1 = 0 and raises
    ConvergenceError when it stalls or spends its step budget. Returns
    (w1, g(lift1 + w1)); the g-values are those of the last residual call,
    which on convergence was at the returned w1. A repeat of the map's last
    lift returns copies of them without solving again.
    """
    key = lift.tobytes()
    if bm._last_aux is None or bm._last_aux[0] != key:
        G1 = bm.aux_operator
        gv = None

        def resid(w1):
            nonlocal gv
            gv = _g_values(bm.problem, lift[:, 0] + w1)
            return w1 - G1 @ gv

        w1, rn, steps, stop = _damped_newton(
            resid, lambda v: _aux_jacobian(bm, lift, v), np.zeros(bm.problem.N),
            lambda r: float(np.max(np.abs(r))), _AUX_TOL, _AUX_NEWTON_STEPS, picard=True)
        bm._inner_iters += steps
        if stop != "converged":
            raise ConvergenceError(_AUX_FAILURE[stop].format(rn))
        bm._last_aux = (key, w1, gv)
    return bm._last_aux[1].copy(), bm._last_aux[2].copy()


def bifurcation_value(bm: BifurcationMap, alpha) -> np.ndarray:
    """Reduced equation values at alpha (one entry per kernel dimension).

    Pairs F(kernel_lift(alpha) + w(alpha)) = (0, g) against the shifted
    adjoint basis, with the g-values of the auxiliary solve. With the
    classified bases this is the plain sum of g-values in the
    one-dimensional constant-kernel case and the cos/sin-weighted sums in
    the two-dimensional rotation case.
    """
    _, gv = _aux_fixed_point(bm, bm.kernel_lift(alpha))
    return bm.ld.adj_shift[:, :, 1] @ gv


def bifurcation_jacobian(bm: BifurcationMap, alpha) -> np.ndarray:
    """(dim, dim) derivative of ``bifurcation_value`` at alpha.

    By the implicit-function theorem: with x1 = lift1 + w1 the converged
    auxiliary solution, D = diag(dg) the slopes of g at x1 and z1 the first
    components of the kernel basis, x1 = z1 alpha + G1 g(x1) gives
    (I - G1 D) dx1/dalpha = z1, whose matrix is the auxiliary Newton
    matrix at the solution, and dbeta/dalpha = adj_shift[:, :, 1] D
    dx1/dalpha. Costs one auxiliary solve, or none right after a value at
    the same alpha.
    """
    lift = bm.kernel_lift(alpha)
    w1, _ = _aux_fixed_point(bm, lift)
    dg = _g_slopes(bm.problem, lift, w1)
    dx1 = np.linalg.solve(np.eye(bm.problem.N) - bm.aux_operator * dg,
                          bm.ld.resonance.kernel_basis[:, :, 0].T)
    return bm.ld.adj_shift[:, :, 1] @ (dg[:, None] * dx1)


# -- winding numbers -------------------------------------------------------


def winding_of_map(fn, radius: float, samples: int = 8) -> int:
    """Winding number of t -> fn(radius * e^{it}) around the origin.

    Doubles the sample count, up to 2^14, until consecutive image points
    subtend less than pi/2 each, then rounds the accumulated angle to an
    integer; fn is called once per point. Raises BoundaryZeroError if an
    image point (relative to the largest) is numerically zero, and
    ConvergenceError if refinement never settles.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    m = max(8, int(samples))
    vals = np.empty((0, 2))
    while m <= _WINDING_MAX_SAMPLES:
        # the last sweep's points are the even ones of this one, as
        # 2 pi (2k) / (2m) rounds exactly like 2 pi k / m: only odd k are new
        ks = np.arange(1, m, 2) if len(vals) else np.arange(m)
        new = np.array([fn(radius * np.array([math.cos(p), math.sin(p)]))
                        for p in 2.0 * math.pi * ks / m], dtype=float)
        vals = np.stack([vals, new], axis=1).reshape(m, 2) if len(vals) else new
        mags = np.linalg.norm(vals, axis=1)
        scale = float(np.max(mags))
        if scale == 0.0 or np.any(mags < 1e-8 * scale):
            raise BoundaryZeroError(
                f"map vanishes on the circle of radius {radius}; degree undefined"
            )
        nxt = np.roll(vals, -1, axis=0)
        cross = vals[:, 0] * nxt[:, 1] - vals[:, 1] * nxt[:, 0]
        dot = np.sum(vals * nxt, axis=1)
        dang = np.arctan2(cross, dot)
        if float(np.max(np.abs(dang))) < 0.5 * math.pi:
            turns = float(np.sum(dang)) / (2.0 * math.pi)
            if abs(turns - round(turns)) < 0.25:
                return int(round(turns))
        m *= 2
    raise ConvergenceError("winding sweep did not stabilize")


# -- solve reports ---------------------------------------------------------


@dataclass
class SolveReport:
    """Outcome of one solve: solution, recomputed residual, evidence."""

    y: np.ndarray                    # scalar N-periodic solution
    solution: np.ndarray             # system sequence (y(t), y(t+1))
    residual_sup: float              # sup-norm recurrence residual, recomputed
    regime: int                      # kernel dimension used (0, 1 or 2)
    alpha: np.ndarray | None         # kernel coordinates (regimes 1 and 2)
    winding: int | None              # degree evidence (regime 2)
    degree_evidence: bool | None     # winding computed and nonzero
    oracle_verified: bool            # independent residual check at 1e-9
    iterations: dict
    nontrivial_root_found: bool | None = None  # only when g(t, 0) = 0 for all t

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "y": [float(v) for v in self.y],
            "residual_sup": self.residual_sup,
            "alpha": None if self.alpha is None else [float(a) for a in self.alpha],
            "winding": self.winding,
            "degree_evidence": self.degree_evidence,
            "oracle_verified": self.oracle_verified,
            "iterations": self.iterations,
            "nontrivial_root_found": self.nontrivial_root_found,
        }


def _check_reduced_equations(problem: Problem, ld: LinearData, x: np.ndarray,
                             tol: float) -> None:
    # both halves of the reduction must hold on any accepted solution
    Fx = apply_F(problem, x)
    QFx = proj_Q(ld, Fx)
    aux = sup_norm(x - proj_P(ld, x) - mp_solve(ld, Fx - QFx))
    if aux > 10.0 * tol:
        raise SolverError(f"auxiliary equation violated ({aux:.3e})")
    bif = sup_norm(QFx)
    if bif > 10.0 * tol:
        raise SolverError(f"bifurcation equation violated ({bif:.3e})")


_REGIME_NAMES = {0: "nonresonant", 1: "resonant 1d", 2: "resonant 2d"}


def _finalize(bm: BifurcationMap, y: np.ndarray, alpha, tol: float, iterations: dict,
              winding=None, degree_evidence=None, nontrivial=None) -> SolveReport:
    """Judge the reduction's y, unchanged, by the oracle's residual; the
    report, or a ConvergenceError carrying it when that residual is above tol."""
    problem = bm.problem
    x = np.stack([y, np.roll(y, -1)], axis=1)
    residual_sup = float(np.max(np.abs(oracle.residual(problem, y))))
    _check_reduced_equations(problem, bm.ld, x, tol)
    report = SolveReport(
        y=y,
        solution=x,
        residual_sup=residual_sup,
        regime=bm.dim,
        alpha=None if alpha is None else np.atleast_1d(np.asarray(alpha, dtype=float)),
        winding=winding,
        degree_evidence=degree_evidence,
        oracle_verified=residual_sup <= 1e-9,
        iterations=iterations,
        nontrivial_root_found=nontrivial,
    )
    if residual_sup > tol:
        raise ConvergenceError(
            f"{_REGIME_NAMES[bm.dim]} solve stalled at residual {residual_sup:.3e}",
            diagnostics=report.as_dict(),
        )
    return report


def _forcing_free(problem: Problem) -> bool:
    # does the zero sequence solve the problem (g(t, 0) = 0 for every t)?
    vals = expr.evaluate(problem.g, np.arange(problem.N), np.zeros(problem.N))
    return float(np.max(np.abs(np.asarray(vals)))) <= 1e-13


def _brent(f, lo: float, hi: float, f_lo: float, f_hi: float,
           width: float) -> tuple[float, int]:
    """Brent's method on [lo, hi], where f changes sign (f_lo = f(lo), f_hi = f(hi)).

    Keeps a bracket [b, c] on which f changes sign, with |f(b)| <= |f(c)|,
    and steps from b by inverse quadratic interpolation through the last
    three points or the secant through the last two; when that step leaves
    the bracket's near three quarters, or is not half the step before last,
    it bisects instead (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4). Steps are at least width / 2.

    Returns b once |c - b| <= width (plus the rounding of b), or an exact
    zero of f met on the way, and the number of f evaluations.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc = a, fa
    d = e = b - a
    evaluations = 0
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * width
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, evaluations
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, t = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - t) - (b - a) * (t - 1.0))
                q = (q - 1.0) * (t - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        evaluations += 1


# -- regime 0: invertible linear part ---------------------------------------


def _solve_dim0(bm: BifurcationMap, tol: float) -> SolveReport:
    y, _ = _aux_fixed_point(bm, bm.kernel_lift([]))
    return _finalize(bm, y, None, tol, {"inner_fixed_point": bm._inner_iters})


# -- regime 1: one-dimensional kernel ---------------------------------------


def _solve_dim1(bm: BifurcationMap, r: float, tol: float) -> SolveReport:
    problem = bm.problem

    def beta(a: float) -> float:
        return float(bifurcation_value(bm, [a])[0])

    b_hi = beta(r)
    b_lo = beta(-r)
    bisection = 0
    if max(abs(b_hi), abs(b_lo)) <= 1e-14:
        alpha_star = 0.0
    elif np.sign(b_hi) * np.sign(b_lo) > 0:
        raise NoSignChangeError(
            f"bifurcation function has the same sign at -r and +r "
            f"({b_lo:.3e}, {b_hi:.3e}); existence hypotheses likely violated",
            diagnostics={"beta_minus": b_lo, "beta_plus": b_hi, "r": r},
        )
    else:
        # Brent returns an end where beta is exactly zero without evaluating
        alpha_star, bisection = _brent(beta, -r, r, b_lo, b_hi, 1e-12 * r)

    lift = bm.kernel_lift([alpha_star])
    y = lift[:, 0] + _aux_fixed_point(bm, lift)[0]

    nontrivial = None
    if _forcing_free(problem):
        nontrivial = _scan_1d_nontrivial(bm, beta, r)

    iterations = {"bisection": bisection, "inner_fixed_point": bm._inner_iters}
    return _finalize(bm, y, [alpha_star], tol, iterations, nontrivial=nontrivial)


def _scan_1d_nontrivial(bm: BifurcationMap, beta, r: float) -> bool:
    # with g(t,0)=0 the zero solution exists; look for sign-change brackets
    # away from 0 and check whether any yields a visibly nonzero solution
    grid = np.linspace(-r, r, 33)
    try:
        vals = [beta(a) for a in grid]
    except (ConvergenceError, expr.DomainError):
        return False
    for k in range(len(grid) - 1):
        if vals[k] == 0.0 or (vals[k] > 0) == (vals[k + 1] > 0):
            continue
        try:
            alpha, _ = _brent(beta, grid[k], grid[k + 1], vals[k], vals[k + 1], 1e-12 * r)
            lift = bm.kernel_lift([alpha])
            y = lift[:, 0] + _aux_fixed_point(bm, lift)[0]
        except (ConvergenceError, expr.DomainError):
            continue
        if sup_norm(y) > 1e-6:
            return True
    return False


# -- regime 2: two-dimensional kernel ----------------------------------------


def _estimate_bounds(problem: Problem) -> tuple[float, float]:
    """Sampled (zhat_est, K_est) on [-100, 100]: sign-condition onset and sup of |g|."""
    xs = np.linspace(-100.0, 100.0, 401)
    vals = expr.evaluate(problem.g, np.arange(problem.N)[:, None], xs)
    K_est = float(np.max(np.abs(vals)))
    zhat_est = 1.0
    for cand in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        mask = np.abs(xs) >= cand
        if np.all((xs[None, mask] * vals[:, mask]) > 0.0):
            zhat_est = cand
            break
    return zhat_est, K_est


def _solve_dim2(bm: BifurcationMap, radius: float, grid: int, tol: float) -> SolveReport:
    problem = bm.problem

    if radius <= 0.0:
        zhat_est, K_est = _estimate_bounds(problem)
        radius = 10.0 * (zhat_est + bm.norm_upper * K_est)

    sweep = 0  # bifurcation-map evaluations of the winding sweep

    def swept_value(a):
        nonlocal sweep
        sweep += 1
        return bifurcation_value(bm, a)

    try:
        winding = winding_of_map(swept_value, radius, _WINDING_SAMPLES)
    except (BoundaryZeroError, ConvergenceError):
        winding = None
    degree_evidence = winding is not None and winding != 0

    axis = np.linspace(-radius, radius, grid) if grid > 1 else np.array([0.0])
    seeds = [np.array([a0, a1]) for a0 in axis for a1 in axis
             if math.hypot(a0, a1) <= radius * (1.0 + 1e-12)]
    seeds.sort(key=lambda a: (float(np.hypot(a[0], a[1])), float(a[0]), float(a[1])))

    forcing_free = _forcing_free(problem)
    accepted = None
    newton_iters = 0
    nontrivial = False
    for seed in seeds:
        try:
            # |beta| <= tol suffices: the residual is the Q-part, ~|beta|/N, plus the aux error
            root, _, iters, stop = _damped_newton(
                lambda a: bifurcation_value(bm, a), lambda a: bifurcation_jacobian(bm, a),
                seed, lambda v: float(np.linalg.norm(v)), tol, 40)
        except (ConvergenceError, expr.DomainError):
            continue
        newton_iters += iters
        if stop != "converged":
            continue
        lift = bm.kernel_lift(root)
        # the last value was at root, so this reads the map's kept solution
        y = lift[:, 0] + _aux_fixed_point(bm, lift)[0]
        if float(np.max(np.abs(oracle.residual(problem, y)))) > tol:
            continue
        if accepted is None:
            accepted = (root, y)
            if not forcing_free:
                break
        if forcing_free and sup_norm(y) > 1e-6:
            nontrivial = True
            break

    if accepted is None:
        raise SolverError(
            "no root of the bifurcation map found from any seed",
            diagnostics={"radius": radius, "grid": grid, "winding": winding},
        )
    root, y = accepted
    iterations = {"newton": newton_iters, "inner_fixed_point": bm._inner_iters,
                  "winding_samples": sweep}
    return _finalize(bm, y, root, tol, iterations, winding=winding,
                     degree_evidence=degree_evidence,
                     nontrivial=nontrivial if forcing_free else None)


def solve(problem: Problem, tol: float = 1e-9, r: float = 10.0,
          radius: float = 0.0, grid: int = 9) -> SolveReport:
    """Solve the problem by the regime solver matching its kernel dimension.

    * dim 0: the fixed point of L^{-1} F, the auxiliary equation with
      P = Q = 0; there is no bifurcation equation.
    * dim 1: Brent's method on the scalar bifurcation function over
      [-r, r]. It needs opposite signs at the two ends (what the existence
      argument guarantees under its hypotheses) and raises
      NoSignChangeError otherwise; keeping the bracket mirrors the sign
      argument that proves existence. The sign-change bracket is kept down to
      width 1e-12 * r; ``iterations["bisection"]`` counts the evaluations
      of the bifurcation function inside it.
    * dim 2: winding-number evidence plus Newton on the planar bifurcation
      map. With radius <= 0 a heuristic default 10 * (zhat_est +
      ||M_p(I-Q)|| * K_est) is used, both estimates sampled from g. Seeds
      are the grid x grid points of the square inscribed in the search
      disk, tried closest to the origin first; the first root that
      reproduces the recurrence to tol wins. The Newton Jacobian is
      ``bifurcation_jacobian``, which reuses the auxiliary solution of the
      value at the same point.

    Every argument is checked, whatever the regime, before the linear data
    is built: tol and r finite and positive, radius finite, grid >= 1. The
    reduction alone produces y, and the oracle's residual judges it against
    tol, reachable down to a few 1e-12. A problem with more than two
    resonant modes raises ModeLimitError.
    """
    for name, value in (("tol", tol), ("r", r)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive")
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    bm = BifurcationMap(problem, build_linear_data(problem))
    if bm.dim == 0:
        return _solve_dim0(bm, tol)
    if bm.dim == 1:
        return _solve_dim1(bm, r, tol)
    return _solve_dim2(bm, radius, grid, tol)
