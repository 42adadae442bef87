"""Brute-force periodic boundary-value solver, used as ground truth.

Treats the N scalar values (y(0), ..., y(N-1)) as one unknown vector and
attacks the cyclic system

    y(t+2) + b*y(t+1) + c*y(t) - g(t, y(t)) = 0   (indices mod N)

directly with damped Newton and random multistart. Nothing here touches
the reduction machinery, so agreement between the two paths is a real
cross-check and every reduction solution is re-validated against the
residual computed in this module.
"""

from __future__ import annotations

import numpy as np

from . import expr
from .linear import Problem

# starts further apart than this sup-distance count as distinct solutions
DEDUPE_TOL = 1e-6
# the largest box whose width 2 * box is a float
_HALF_MAX = np.finfo(float).max / 2


@np.errstate(over="ignore", invalid="ignore")
def residual(problem: Problem, y: np.ndarray) -> np.ndarray:
    """Cyclic recurrence residual, one entry per t. An entry that overflows is
    +-inf (nan where two overflows cancel), and fails every tolerance."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.N,):
        raise ValueError(f"expected {problem.N} values, got shape {y.shape}")
    ts = np.arange(problem.N)
    g_vals = np.asarray(expr.evaluate(problem.g, ts, y), dtype=float)
    return (np.concatenate([y[2:], y[:2]]) + problem.b * np.concatenate([y[1:], y[:1]])
            + problem.c * y - g_vals)


def _jacobian(problem: Problem, y: np.ndarray) -> np.ndarray:
    # honest full central-difference Jacobian; keeps the oracle independent
    # of any structural knowledge about the residual
    n = len(y)
    J = np.empty((n, n))
    for j in range(n):
        step = 1e-7 * (1.0 + abs(y[j]))
        yp = y.copy()
        yp[j] += step
        ym = y.copy()
        ym[j] -= step
        J[:, j] = (residual(problem, yp) - residual(problem, ym)) / (2.0 * step)
    return J


def newton_solve(problem: Problem, y0: np.ndarray, tol: float = 1e-11,
                 max_iter: int = 60) -> np.ndarray | None:
    """Damped Newton from y0; returns the solution or None on failure.

    Success means sup-norm residual <= tol. The damping is Armijo
    backtracking on the squared residual norm. A residual that overflows
    fails: no Newton step is taken from it.
    """
    # near the double range the norms, differences and steps overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.array(y0, dtype=float)
        for _ in range(max_iter):
            try:
                r = residual(problem, y)
            except expr.DomainError:
                return None
            rn = float(np.max(np.abs(r)))
            if rn <= tol:
                return y
            if not np.isfinite(rn):
                return None
            f0 = float(r @ r)
            try:
                d = np.linalg.solve(_jacobian(problem, y), -r)
            except (np.linalg.LinAlgError, expr.DomainError):
                return None
            s = 1.0
            while True:
                try:
                    r_new = residual(problem, y + s * d)
                    f_new = float(r_new @ r_new)
                except expr.DomainError:
                    f_new = np.inf
                if f_new <= (1.0 - 1e-4 * s) * f0:
                    break
                s *= 0.5
                if s < 1e-12:
                    return None
            y = y + s * d
        try:
            r = residual(problem, y)
        except expr.DomainError:
            return None
        return y if float(np.max(np.abs(r))) <= tol else None


def multistart_search(problem: Problem, n_starts: int, box: float,
                      seed: int = 0, tol: float = 1e-11) -> list[np.ndarray]:
    """Newton from n_starts uniform random starts in [-box, box]^N, box at
    most half the largest float.

    Solutions closer than DEDUPE_TOL in sup-norm are merged. Starts are
    drawn one at a time from a seeded generator, so growing n_starts with
    the same seed only ever adds solutions. The result is sorted by
    coordinates for a canonical order.
    """
    if not (float(n_starts).is_integer() and n_starts >= 1):
        raise ValueError("n_starts must be an integer >= 1")
    if not (np.isfinite(box) and box > 0):
        raise ValueError("box must be finite and positive")
    if box > _HALF_MAX:  # the width 2 * box of [-box, box] overflows
        raise ValueError("box must be at most half the largest float (2 * box overflows)")
    rng = np.random.default_rng(seed)
    found: list[np.ndarray] = []
    for _ in range(int(n_starts)):
        y0 = rng.uniform(-box, box, size=problem.N)
        y = newton_solve(problem, y0, tol=tol)
        if y is None:
            continue
        if all(np.max(np.abs(y - z)) > DEDUPE_TOL for z in found):
            found.append(y)
    found.sort(key=lambda z: tuple(z))
    return found


def check_solution(problem: Problem, y: np.ndarray, tol: float = 1e-9) -> bool:
    """Arbiter check: does y satisfy the recurrence to the given sup tolerance?"""
    return float(np.max(np.abs(residual(problem, y)))) <= tol
