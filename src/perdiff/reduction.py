"""Nonlinear machinery: reduction of the periodic problem to kernel coordinates.

Solving L x = F(x) splits into the auxiliary equation
x = P x + M_p (I - Q) F(x) and a finite-dimensional bifurcation equation:
the pairing of F against the periodic adjoint solutions must vanish. A
sequence solves the original problem exactly when both hold. As
F(x) = (0, g(t, x1)) and the solvers read only x1 = y, the auxiliary
equation is solved for w1 alone: only the (N, N) first-component block G1
of M_p (I - Q) on the g component is gathered, and g's x-free part (its
forcing) evaluated, once per bifurcation map.

One damped Newton, ``_newton``, solves both equations. Its unknowns are
u = (w1, alpha), with a border of m = dim kernel coordinates alpha, and
each row has a role. A root row's residual is [w1 - G1 g(x1); A g(x1)]:
the auxiliary residual bordered by the bifurcation value, with alpha free
(Keller 1977; Govaerts 2000); it solves for a reduced root, from the
secant point of the dim-1 bracket or from a dim-2 seed. A value row solves
the auxiliary equation at given kernel coordinates (the winding sweep, the
ends of the dim-1 bracket, Brent's points): its border is trivial (border
residual 0, border rows [0 | I], coupling columns 0), so its alpha step is
exactly 0. At dim 0 the border is empty (m = 0). Every row of a call at
dim >= 1 carries the border, so a value's bits do not depend on whether a
root row shares its stack, and a solve puts its first values and its first
root search in one call. Each row keeps its own iteration, Armijo search
(with the Picard step as the second direction for a value row) and
failure, while every step is one residual (g evaluated once for the whole
stack, with its slopes), one Jacobian write and one batched solve. A
call's workspace, its Jacobians and the points where g is read, is written
in place at each step and cut to the rows still iterating when rows end;
the stop test, the Armijo test and the writes of the rows that end are a
few array operations for the whole stack. A bifurcation value reuses the
g-values of the converged residual, and its derivative is a Schur
complement of a root row's Jacobian.

Where g is undefined (ln, / and ^ are in its grammar), a trial point
counts as an infinite residual. A row fails with a DomainError only when it
stands outside g's domain or must step where its slopes are undefined; only
then is g scanned one (t, x) at a time to name the failing t and x.

``solve`` is the one entry point. It checks its arguments, builds the
linear data once and runs the regime solver of the kernel dimension (0, 1
or 2), as its docstring describes. Every solution is re-validated: the
two reduced equations hold (read with the map's bound g), and the
recurrence residual, computed once by the independent oracle module, is
within tol.
"""

from __future__ import annotations

import contextlib
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
    _check_allocatable,
    _mpiq_g1,
    _read_only,
)

# tolerance and Newton step budget of one auxiliary solve; a root row takes
# the same for its w1 part and its steps
_AUX_TOL = 1e-12
_AUX_NEWTON_STEPS = 40
# initial sample count and cap of the winding sweep of the dim-2 solver
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


def _located(problem: Problem, x1: np.ndarray, e: expr.DomainError) -> expr.DomainError:
    # the DomainError of g at the first member of x1 (..., N) where g fails,
    # naming its first failing t and x, found one (t, x) at a time; else e
    for row in np.reshape(x1, (-1, problem.N)):
        for t in range(problem.N):
            try:
                expr.evaluate(problem.g, t, row[t])
            except expr.DomainError as err:
                return expr.DomainError(f"{err} (at t={t}, x={float(row[t])!r})")
    return e


def apply_F(problem: Problem, x: np.ndarray, g: expr.Node | None = None) -> np.ndarray:
    """(F x)(t) = (0, g(t, x1(t))), the nonlinearity on sequences; a DomainError names t and x.
    g is problem.g or, with the same bits, a ``bind_t`` of it at t = 0..N-1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    try:
        out[:, 1] = expr.evaluate(problem.g if g is None else g, np.arange(problem.N), x[:, 0])
    except expr.DomainError as e:
        raise _located(problem, x[:, 0], e) from None
    return out


# -- bifurcation map -------------------------------------------------------


@dataclass
class BifurcationMap:
    """Reduced problem in kernel coordinates.

    ``aux_operator`` (G1) and ``norm_upper`` are read from the column of
    M_p (I - Q) and the norm bracket that ``ld`` keeps for its operator,
    each on first use; G1 is gathered for this map alone. ``_inner_iters``
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

    @cached_property
    def border(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (Z, A): the kernel basis's first components (N, dim) and the
        shifted adjoint basis's second components (dim, N)."""
        return self.ld.resonance.kernel_basis[:, :, 0].T, self.ld.adj_shift[:, :, 1]

    @cached_property
    def ts(self) -> np.ndarray:
        """Cached read-only float grid t = 0..N-1."""
        return _read_only(np.arange(self.problem.N, dtype=float))[0]

    @cached_property
    def g_bound(self) -> expr.Node:
        """Cached ``expr.bind_t(problem.g, t)`` at t = 0..N-1: the forcing, once."""
        return expr.bind_t(self.problem.g, self.ts)

    def kernel_lift(self, alpha) -> np.ndarray:
        """Kernel element with coordinates alpha (dim,) in the classified basis,
        or the stack (k, N, 2) of them for a stack alpha (k, dim)."""
        a = np.atleast_1d(np.asarray(alpha, dtype=float))
        if a.ndim > 2 or a.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} kernel coordinate(s)")
        lift = np.zeros(a.shape[:-1] + (self.problem.N, 2))
        for j, zj in enumerate(self.ld.resonance.kernel_basis):
            lift += a[..., j, None, None] * zj
        return lift


def _points(bm: BifurcationMap, x0: np.ndarray, u: np.ndarray, out: np.ndarray,
            fixed: int = 0) -> np.ndarray:
    # write the (k, 3, N) points [x1, x1 + h, x1 - h], x1 = x0 + w1 + Z alpha for
    # u = (w1, alpha), into out; return h. Z alpha is formed row by row, and
    # only for the root rows, the rows from fixed on (as in ``_residual``)
    N = x0.shape[-1]
    w1 = u[..., :N]
    h = np.abs(w1)
    h += 1.0
    h *= 1e-6
    x1 = np.add(x0, w1, out=out[:, 0])
    if u.shape[1] > N and fixed < len(u):
        x1[fixed:] += np.matmul(bm.border[0], u[fixed:, N:, None])[..., 0]
    np.add(x1, h, out=out[:, 1])
    np.subtract(x1, h, out=out[:, 2])
    return h


def _residual(bm: BifurcationMap, x0: np.ndarray, u: np.ndarray, pts: np.ndarray,
              fixed: int = 0):
    """(g, R, dg, |R|^2, fell) for each row of the stacks x0 (k, N) (lift first
    components) and u = (w1, alpha) (k, N + m): g = g(x1) at the points of
    ``_points``, written into the buffer pts (k, 3, N), and R = [w1 - G1 g;
    0] for the first fixed rows, the value rows, and R = [w1 - G1 g; A g],
    (Z, A) = ``bm.border``, for the root rows after them.

    g is evaluated once, on the whole stack; dg are the central difference
    quotients at step h, those of a column-by-column difference of the
    residual without the operator's rounding noise. Where that leaves g's
    domain (fell), g is evaluated row by row: a row whose x1 +- h leave it
    gets NaN slopes, and one whose x1 does NaN g and R and an infinite
    |R|^2. ``_row_error`` names such a row's failure.
    """
    N = x0.shape[1]
    h = _points(bm, x0, u, pts, fixed)
    try:
        values, fell = expr.evaluate(bm.g_bound, bm.ts, pts), False
    except expr.DomainError:
        values, fell = np.full(pts.shape, np.nan), True
        for i, row in enumerate(pts):
            with contextlib.suppress(expr.DomainError):
                values[i, 0] = expr.evaluate(bm.g_bound, bm.ts, row[0])
                values[i, 1:] = expr.evaluate(bm.g_bound, bm.ts, row[1:])
    gv, dg = values[:, 0], np.subtract(values[:, 1], values[:, 2])
    h += h  # 2 h
    dg /= h
    if not gv.flags.writeable:  # a read-only view of the points: the search writes rows into it
        gv = gv.copy()
    # matrix-vector and dot products row by row, the arithmetic of one row alone
    g = gv[..., None]
    G1g = np.matmul(bm.aux_operator, g)[..., 0]
    if u.shape[1] == N:
        R = u - G1g
    else:  # bordered: both parts written into one array, with no concatenation
        R = np.empty(u.shape)
        np.subtract(u[..., :N], G1g, out=R[..., :N])
        R[:fixed, N:] = 0.0
        R[fixed:, N:] = np.matmul(bm.border[1], g[fixed:])[..., 0]
    f = np.matmul(R[:, None], R[..., None])[:, 0, 0]
    if fell:
        f[np.isnan(gv[:, 0])] = np.inf
    return gv, R, dg, f, fell


@np.errstate(over="ignore", invalid="ignore")
def _row_error(bm: BifurcationMap, x0: np.ndarray, u: np.ndarray) -> expr.DomainError:
    # the DomainError of a row (N,) found outside g's domain, naming t and x: x1, x1 + h, x1 - h
    points = np.empty((1, 3, len(x0)))
    _points(bm, x0[None], u[None], points)
    return _located(bm.problem, points[0], None)


def _jacobian(bm: BifurcationMap, dg: np.ndarray, J: np.ndarray, fixed: int = 0) -> np.ndarray:
    """Write the Jacobians of ``_residual`` at the slopes dg (k, N) into the
    contiguous J (k, N + m, N + m): with D = diag(dg), [[I - G1 D, 0], [0, I]]
    for the first fixed rows, the value rows, and [[I - G1 D, -G1 D Z],
    [A D, A D Z]] for the root rows after them (Keller 1977; Govaerts 2000),
    as g acts pointwise."""
    k, N, n = len(J), dg.shape[1], J.shape[1]
    D = dg[:, None, :]
    top = np.multiply(bm.aux_operator, -D, out=J[:, :N, :N])  # -G1 D
    if n > N:
        Z, A = bm.border
        J[:fixed, :, N:] = np.eye(n, n - N, -N)  # a value row's columns [0; I]
        J[:fixed, N:, :N] = 0.0
        if fixed < k:
            np.matmul(top[fixed:], Z, out=J[fixed:, :N, N:])
            np.matmul(np.multiply(A, D[fixed:], out=J[fixed:, N:, :N]), Z, out=J[fixed:, N:, N:])
    J.reshape(k, n * n)[:, :N * (n + 1):n + 1] += 1.0  # the diagonal of top: I - G1 D
    return J


_STALLED = "auxiliary equation stalled (residual {:.3e})"
_BUDGET = "auxiliary equation did not converge (residual {:.3e})"


@np.errstate(over="ignore", invalid="ignore")
def _newton(bm: BifurcationMap, x0: np.ndarray, u: np.ndarray, gv: np.ndarray, fixed: int):
    """Damped Newton on ``_residual`` = 0 from u, for each row of x0 (k, N) and u (k, N + m).

    The first fixed rows are value rows, which hold their alpha (with
    m > 0, u's alpha part of such a row is 0: its kernel part is in x0),
    and the rows after them root rows, whose alpha is free (with m = 0
    every row is a value row). Each row takes its own Armijo search on
    |R|^2 along the Newton direction, and a value row along -R (Picard)
    when that finds no decrease down to step 1e-12 or its Jacobian is
    singular; a trial point outside g's domain, or whose residual
    overflows, is rejected. A row converges when its w1 part is
    <= _AUX_TOL and its border |A g| at its rounding floor, 1e-13 N (1 +
    max|g|); its last point goes to u and its g-values to gv. Returns
    (steps, fails): each row's Newton steps, and a dict from a failed row to
    what ended it: None outside g's domain or before a step without slopes
    (``_row_error`` names it), else a ConvergenceError. Rows after the first
    failing one stop where they are.
    """
    k, N = x0.shape
    m = u.shape[1] - N
    steps = np.zeros(k, dtype=int)  # a row's steps: it when it ends, less one if it stalled
    stalled = []  # the rows whose search stalled since the rows last ended
    # the workspace, written in place each step: the Jacobians and the points
    J, pts = np.empty((k, N + m, N + m)), np.empty((k, 3, N))
    g, R, dg, f, fell = _residual(bm, x0, u, pts, fixed)
    # the rows still iterating: their indices, x0, u (at first u itself, as
    # each row's point ends in u), g-values, residuals, |R|^2 and slopes, the
    # first fixed of them value rows; the rows that have not failed took it steps
    ids, x, v = np.arange(k), x0, u
    fails = {}
    it = 0
    while True:
        rn = np.maximum.reduce(np.abs(R[..., :N]), axis=1)
        done = rn <= _AUX_TOL  # a NaN residual has not converged
        if fails or it == _AUX_NEWTON_STEPS or np.count_nonzero(done):
            if m:
                floor = 1e-13 * N * (1.0 + np.maximum.reduce(np.abs(g), axis=1))
                done &= np.maximum.reduce(np.abs(R[..., N:]), axis=1) <= floor
            keep = ~done
            if fails:
                keep &= ids < min(fails)
            if it == _AUX_NEWTON_STEPS:
                for j in np.flatnonzero(keep):
                    fails[ids[j]] = ConvergenceError(_BUDGET.format(rn[j]))
                keep[:] = False
            kept = np.count_nonzero(keep)
            if kept < len(ids):  # the other rows end: their last point, g-values and steps
                if kept:
                    end = (~keep).nonzero()[0]
                    out = ids[end]
                    u[out], gv[out], steps[out] = v.take(end, 0), g.take(end, 0), it
                else:
                    u[ids], gv[ids], steps[ids] = v, g, it
                for i in stalled:  # a stalled row ends at once
                    steps[i] -= 1
                stalled.clear()
                if not kept:
                    return steps, fails
                sel = keep.nonzero()[0]
                ids, f, rn, fixed = ids[sel], f[sel], rn[sel], np.count_nonzero(keep[:fixed])
                x, v, g, R, dg = (a.take(sel, 0) for a in (x, v, g, R, dg))
                J, pts = J[:kept], pts[:kept]
        if fell:  # an evaluation left g's domain: the first row with NaN slopes fails
            fell = False
            bad = np.flatnonzero(np.isnan(dg).any(axis=1))
            if bad.size:
                fails[ids[bad[0]]] = None
                continue
        Jk = _jacobian(bm, dg, J, fixed)
        picard = set()  # rows searching along -R
        try:  # d is minus the search direction: R itself is the right-hand side
            d = np.linalg.solve(Jk, R[..., None])[..., 0]
        except np.linalg.LinAlgError:  # a singular row searches along -R only
            d = R.copy()
            for j in range(len(ids)):
                try:
                    d[j] = np.linalg.solve(Jk[j], R[j])
                except np.linalg.LinAlgError:
                    picard.add(j)
        rooted = [j for j in picard if j >= fixed]
        if rooted:  # but a root row has no Picard direction
            j = min(rooted)
            fails[ids[j]] = ConvergenceError(_STALLED.format(rn[j]))
            continue
        it += 1
        trial = v - d
        g_t, R_t, dg_t, f_t, fell = _residual(bm, x, trial, pts, fixed)
        ok = f_t <= (1.0 - 1e-4) * f
        if np.count_nonzero(ok) == len(ok):  # every row takes the full step
            v, g, R, f, dg = trial, g_t, R_t, f_t, dg_t
            continue
        s, todo = np.ones(len(ids)), np.arange(len(ids))
        while True:
            hit = ok.nonzero()[0]
            took = todo[hit]
            v[took], g[took], R[took], dg[took] = (a.take(hit, 0) for a in (trial, g_t, R_t, dg_t))
            f[took] = f_t[hit]
            todo = todo[~ok]
            s[todo] *= 0.5
            for j in todo[s[todo] < 1e-12]:
                if j < fixed and j not in picard:  # no Newton decrease: the damped Picard step
                    picard.add(j)
                    s[j], d[j] = 1.0, R[j]
                else:
                    fails[ids[j]] = ConvergenceError(_STALLED.format(rn[j]))
                    stalled.append(ids[j])
            todo = todo[s[todo] >= 1e-12]
            if not todo.size:
                break
            trial = v[todo] - s[todo, None] * d[todo]
            g_t, R_t, dg_t, f_t, fell_t = _residual(bm, x[todo], trial, pts[:len(todo)],
                                                    int(np.searchsorted(todo, fixed)))
            fell |= fell_t
            ok = f_t <= (1.0 - 1e-4 * s[todo]) * f[todo]


def _stack_solve(bm: BifurcationMap, x0: np.ndarray, seed=None):
    """One ``_newton`` on value rows, which solve the first component of
    w = M_p (I - Q) F(lift + w) to _AUX_TOL at the lifts whose first
    components are x0 (k, N), and, with a seed (dim,), a root row after
    them, from (w1, alpha) = (0, seed); in chunks of at most
    expr._CHUNK_ENTRIES Jacobian entries, the root row in the last.

    Returns (w1, g(x0 + w1), root): the value rows' solutions, both (k, N),
    and the root row's (y = x1, alpha, steps, converged) at its last point,
    any failure of its own reported as not converged (None without a seed).
    When a value row fails, its error is raised once the rows before it are
    solved; the map counts their steps, and the failing row's own when it
    stalled or ran out of steps, and keeps the last solved value row: what
    solving the value rows one at a time, in order, would leave. A single
    value row at the map's last lift, with no seed, returns copies of the
    kept solution without solving again. A root row is nondegenerate
    exactly when its root is for Newton on the map (``bifurcation_jacobian``).
    """
    k, N = x0.shape
    last = bm._last_aux
    if seed is None and k == 1 and last is not None and last[0] == x0.tobytes():
        return last[1][None].copy(), last[2][None].copy(), None
    n = N + bm.dim
    u, gv = np.zeros((k + (seed is not None), n)), np.empty((k + (seed is not None), N))
    if seed is not None:
        x0 = np.concatenate([x0, np.zeros((1, N))])
        u[k, N:] = seed
    root = None
    rows = max(1, expr._CHUNK_ENTRIES // n**2)
    for lo in range(0, len(x0), rows):
        hi = lo + rows
        values = min(hi, k) - lo  # the chunk's value rows: the root row, if here, is next
        steps, fails = _newton(bm, x0[lo:hi], u[lo:hi], gv[lo:hi], values)
        failed = min(fails, default=values)
        counted = failed + (failed < values and isinstance(fails[failed], ConvergenceError))
        bm._inner_iters += int(steps[:counted].sum())
        solved = lo + failed
        if solved:
            bm._last_aux = (x0[solved - 1].tobytes(), u[solved - 1, :N].copy(),
                            gv[solved - 1].copy())
        if failed < values:
            raise fails[failed] or _row_error(bm, x0[solved], u[solved])
        if seed is not None and hi > k:  # y = Z alpha + w1, Z alpha as in ``_points``
            root = (np.matmul(bm.border[0], u[k, N:, None])[:, 0] + u[k, :N], u[k, N:],
                    int(steps[values]), values not in fails)
    return u[:k, :N], gv[:k], root


def _aux_y(bm: BifurcationMap, alpha) -> np.ndarray:
    """y = x1 = lift1 + w1 of the auxiliary solution at the kernel coordinates alpha (dim,)."""
    x0 = bm.kernel_lift(alpha)[None, :, 0]
    return x0[0] + _stack_solve(bm, x0)[0][0]


def bifurcation_value(bm: BifurcationMap, alpha) -> np.ndarray:
    """Reduced equation values at alpha (dim,), or at each row of a stack alpha
    (k, dim) as a (k, dim) stack: F(kernel_lift(alpha) + w(alpha)) = (0, g)
    paired against the shifted adjoint basis, with the g-values of the
    auxiliary solve (one stacked Newton for a stack). With the classified
    bases, the plain sum of g-values in the one-dimensional constant-kernel
    case and the cos/sin-weighted sums in the two-dimensional rotation case.
    """
    lifts = bm.kernel_lift(alpha)
    gv = _stack_solve(bm, lifts.reshape(-1, bm.problem.N, 2)[:, :, 0])[1]
    return _paired(bm, gv).reshape(lifts.shape[:-2] + (bm.dim,))


def _paired(bm: BifurcationMap, gv: np.ndarray) -> np.ndarray:
    # the g-values gv (k, N) paired with the shifted adjoint basis, row by row: (k, dim)
    return np.matmul(bm.border[1], gv[:, :, None])[:, :, 0]


def bifurcation_jacobian(bm: BifurcationMap, alpha) -> np.ndarray:
    """(dim, dim) derivative of ``bifurcation_value`` at alpha.

    By the implicit-function theorem: with x1 = Z alpha + w1 the converged
    auxiliary solution and D the slopes of g there, x1 = Z alpha + G1 g(x1)
    gives (I - G1 D) dx1/dalpha = Z and dbeta/dalpha = A D dx1/dalpha: the
    Schur complement of the top-left block of the bordered Jacobian
    (``_jacobian``) at the solution. Costs one auxiliary solve, or none
    right after a value at the same alpha.
    """
    x0 = bm.kernel_lift(alpha)[None, :, 0]
    w1 = _stack_solve(bm, x0)[0]
    N = bm.problem.N
    _, _, dg, _, fell = _residual(bm, x0, w1, np.empty((1, 3, N)))
    if fell:
        raise _row_error(bm, x0[0], w1[0])
    J = _jacobian(bm, dg, np.empty((1, N + bm.dim, N + bm.dim)))[0]
    return J[N:, N:] - J[N:, :N] @ np.linalg.solve(J[:N, :N], J[:N, N:])


# -- winding numbers -------------------------------------------------------


def winding_of_map(fn, radius: float, samples: int = 8) -> int:
    """Winding number of t -> fn(radius * e^{it}) around the origin.

    Doubles the sample count, up to 2^14, until consecutive image points
    subtend less than pi/2 each, then rounds the accumulated angle to an
    integer. fn is called once per round, on the (k, 2) stack of the
    round's new circle points, and returns their (k, 2) images. Raises
    BoundaryZeroError if an image point (relative to the largest) is
    numerically zero, and ConvergenceError if refinement never settles.
    The image points are scaled by one power of two, which is exact, so
    their cross and dot products neither overflow nor underflow.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and positive")
    m = max(8, int(samples))
    vals = np.empty((0, 2))
    while m <= _WINDING_MAX_SAMPLES:
        # the last sweep's points are the even ones of this one, as
        # 2 pi (2k) / (2m) rounds exactly like 2 pi k / m: only odd k are new
        ks = np.arange(1, m, 2) if len(vals) else np.arange(m)
        angles = (2.0 * math.pi * ks / m).tolist()
        points = radius * np.array([[math.cos(p), math.sin(p)] for p in angles])
        new = np.asarray(fn(points), dtype=float)
        if new.shape != points.shape:
            raise ValueError(f"fn returned shape {new.shape} for {points.shape} points")
        vals = np.stack([vals, new], axis=1).reshape(m, 2) if len(vals) else new
        unit = np.ldexp(vals, -math.frexp(float(np.abs(vals).max()))[1])  # entries below 1
        mags = np.hypot(unit[:, 0], unit[:, 1])
        scale = float(mags.max())
        if scale == 0.0 or (mags < 1e-8 * scale).any():
            raise BoundaryZeroError(
                f"map vanishes on the circle of radius {radius}; degree undefined"
            )
        nxt = np.concatenate([unit[1:], unit[:1]])
        cross = unit[:, 0] * nxt[:, 1] - unit[:, 1] * nxt[:, 0]
        dot = (unit * nxt).sum(axis=1)
        dang = np.arctan2(cross, dot)
        if float(np.abs(dang).max()) < 0.5 * math.pi:
            turns = float(dang.sum()) / (2.0 * math.pi)
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


def _check_reduced_equations(bm: BifurcationMap, x: np.ndarray, tol: float) -> None:
    # both halves of the reduction must hold on any accepted solution, F from the bound g
    ld, Fx = bm.ld, apply_F(bm.problem, x, bm.g_bound)
    QFx = proj_Q(ld, Fx)
    aux = sup_norm(x - proj_P(ld, x) - mp_solve(ld, Fx - QFx))
    if aux > 10.0 * tol:
        raise SolverError(f"auxiliary equation violated ({aux:.3e})")
    bif = sup_norm(QFx)
    if bif > 10.0 * tol:
        raise SolverError(f"bifurcation equation violated ({bif:.3e})")


_REGIME_NAMES = {0: "nonresonant", 1: "resonant 1d", 2: "resonant 2d"}


def _oracle_sup(problem: Problem, y: np.ndarray) -> float:
    # the sup of the oracle's recurrence residual at y
    return float(np.abs(oracle.residual(problem, y)).max())


def _finalize(bm: BifurcationMap, y: np.ndarray, residual_sup: float, alpha, tol: float,
              iterations: dict, winding=None, degree_evidence=None,
              nontrivial=None) -> SolveReport:
    """Judge the reduction's y, unchanged, by residual_sup (``_oracle_sup`` at
    y); the report, or a ConvergenceError carrying it when that is above tol."""
    x = np.empty((bm.problem.N, 2))
    x[:, 0], x[:-1, 1], x[-1, 1] = y, y[1:], y[0]
    _check_reduced_equations(bm, x, tol)
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


def _forcing_free(bm: BifurcationMap) -> bool:
    # does the zero sequence solve the problem (g(t, 0) = 0 for every t)? Not where g is undefined
    with contextlib.suppress(expr.DomainError):
        vals = expr.evaluate(bm.g_bound, bm.ts, np.zeros(bm.problem.N))
        return float(np.abs(vals).max()) <= 1e-13
    return False


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
    y = _aux_y(bm, [])
    return _finalize(bm, y, _oracle_sup(bm.problem, y), None, tol,
                     {"inner_fixed_point": bm._inner_iters})


# -- regime 1: one-dimensional kernel ---------------------------------------


def _solve_dim1(bm: BifurcationMap, r: float, tol: float) -> SolveReport:
    def beta(a: float) -> float:
        return float(bifurcation_value(bm, [a])[0])

    # the bracket ends +r and -r as value rows and the root search in one
    # stack, the root search from the secant point of the bracket's values at
    # w1 = 0 (from 0 where that point leaves [-r, r] or g is undefined there)
    lifts = bm.kernel_lift([[r], [-r]])[:, :, 0]
    start = 0.0
    with contextlib.suppress(expr.DomainError):
        hi0, lo0 = _paired(bm, expr.evaluate(bm.g_bound, bm.ts, lifts))[:, 0].tolist()
        if lo0 != hi0 and -r <= (secant := -r + 2.0 * r * lo0 / (lo0 - hi0)) <= r:
            start = secant
    try:
        _, gv, root = _stack_solve(bm, lifts, [start])
    except expr.DomainError as e:
        raise SolverError(f"bifurcation function undefined at the bracket ends -r, +r "
                          f"(r = {r:g}): {e}", diagnostics={"r": r}) from None
    b_hi, b_lo = _paired(bm, gv)[:, 0].tolist()
    newton = bisection = 0
    if max(abs(b_hi), abs(b_lo)) <= 1e-14:
        alpha_star, y = 0.0, None
    elif np.sign(b_hi) * np.sign(b_lo) > 0:
        raise NoSignChangeError(
            f"bifurcation function has the same sign at -r and +r "
            f"({b_lo:.3e}, {b_hi:.3e}); existence hypotheses likely violated",
            diagnostics={"beta_minus": b_lo, "beta_plus": b_hi, "r": r},
        )
    else:
        # the root search's root; Brent's method on the bracket when it
        # fails or converges outside it
        y, alpha, newton, converged = root
        alpha_star = float(alpha[0])
        if not (converged and -r <= alpha_star <= r):
            # Brent returns an end where beta is exactly zero without evaluating
            alpha_star, bisection = _brent(beta, -r, r, b_lo, b_hi, 1e-12 * r)
            y = None

    if y is None:
        y = _aux_y(bm, [alpha_star])

    nontrivial = None
    if _forcing_free(bm):
        nontrivial = _scan_1d_nontrivial(bm, beta, r)

    iterations = {"newton": newton, "bisection": bisection, "inner_fixed_point": bm._inner_iters}
    return _finalize(bm, y, _oracle_sup(bm.problem, y), [alpha_star], tol, iterations,
                     nontrivial=nontrivial)


def _scan_1d_nontrivial(bm: BifurcationMap, beta, r: float) -> bool:
    # with g(t,0)=0 the zero solution exists; look for sign-change brackets
    # away from 0 and check whether any yields a visibly nonzero solution
    grid = np.linspace(-r, r, 33)
    try:
        vals = bifurcation_value(bm, grid[:, None])[:, 0].tolist()
    except (ConvergenceError, expr.DomainError):
        return False
    for k in range(len(grid) - 1):
        if vals[k] == 0.0 or (vals[k] > 0) == (vals[k + 1] > 0):
            continue
        try:
            alpha, _ = _brent(beta, grid[k], grid[k + 1], vals[k], vals[k + 1], 1e-12 * r)
            y = _aux_y(bm, [alpha])
        except (ConvergenceError, expr.DomainError):
            continue
        if sup_norm(y) > 1e-6:
            return True
    return False


# -- regime 2: two-dimensional kernel ----------------------------------------


@np.errstate(over="ignore")  # a product that overflows is +-inf, signed alike
def _estimate_bounds(problem: Problem, radius: float) -> tuple[float, float]:
    """Sampled (zhat_est, K_est) on [-100, 100]: sign-condition onset and sup
    of |g| over every t, from g's least and greatest value over the period
    at each x (``expr.envelope``). x g(t, x) is monotone in g at each x, so
    its sign over every t is that of both rows."""
    xs = np.linspace(-100.0, 100.0, 401)
    try:
        bounds = expr.envelope(problem.g, np.arange(problem.N)[:, None], xs)
    except expr.DomainError as e:
        e = _located(problem, np.broadcast_to(xs[:, None], (xs.size, problem.N)), e)
        raise SolverError(f"the default radius samples g on [-100, 100] at every t: {e}",
                          diagnostics={"radius": radius}) from None
    signed = (xs * bounds > 0.0).all(axis=0)
    # an onset holds when every sampled |x| at or past it is signed: when it
    # lies past the largest unsigned |x|
    unsigned = np.abs(xs[~signed]).max(initial=-1.0)
    zhat_est = next((cand for cand in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
                     if cand > unsigned), 1.0)
    return zhat_est, float(np.abs(bounds).max())


def _solve_dim2(bm: BifurcationMap, radius: float, grid: int, tol: float) -> SolveReport:
    problem = bm.problem

    if radius <= 0.0:
        zhat_est, K_est = _estimate_bounds(problem, radius)
        radius = 10.0 * (zhat_est + bm.norm_upper * K_est)
        if not math.isfinite(radius):
            raise SolverError(
                "the default radius 10 * (zhat_est + norm_upper * K_est) overflows "
                "the double range; pass a finite radius",
                diagnostics={"zhat_est": zhat_est, "K_est": K_est,
                             "norm_upper": bm.norm_upper})

    # the seeds: the grid points in the disk, by distance, then coordinates
    axis = np.linspace(-radius, radius, grid) if grid > 1 else np.zeros(1)
    seeds = np.stack([np.repeat(axis, axis.size), np.tile(axis, axis.size)], axis=1)
    dist = np.hypot(seeds[:, 0], seeds[:, 1])
    inside = dist <= radius * (1.0 + 1e-12)
    seeds, dist = seeds[inside], dist[inside]
    seeds = seeds[np.lexsort((seeds[:, 1], seeds[:, 0], dist))]

    sweep = 0  # circle points the winding sweep evaluated the map at
    first = None  # the first seed's root search, run with the sweep's first points

    def swept_value(a):
        nonlocal sweep, first
        sweep += len(a)
        if sweep > len(a) or not len(seeds):  # a later round, or no seed to run
            return bifurcation_value(bm, a)
        _, gv, first = _stack_solve(bm, bm.kernel_lift(a)[:, :, 0], seeds[0])
        return _paired(bm, gv)

    try:
        winding = winding_of_map(swept_value, radius, _WINDING_SAMPLES)
    except (BoundaryZeroError, ConvergenceError, expr.DomainError):
        winding = None
    degree_evidence = winding is not None and winding != 0

    forcing_free = _forcing_free(bm)
    accepted = None
    newton_iters = 0
    nontrivial = False
    for i, seed in enumerate(seeds):
        # a seed runs on its own unless the sweep's first call ran it
        y, root, iters, converged = (first if i == 0 and first is not None else
                                     _stack_solve(bm, np.empty((0, problem.N)), seed)[2])
        newton_iters += iters
        if not converged:
            continue
        residual_sup = _oracle_sup(problem, y)
        if residual_sup > tol:
            continue
        if accepted is None:
            accepted = (root, y, residual_sup)
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
    root, y, residual_sup = accepted
    iterations = {"newton": newton_iters, "inner_fixed_point": bm._inner_iters,
                  "winding_samples": sweep}
    return _finalize(bm, y, residual_sup, root, tol, iterations, winding=winding,
                     degree_evidence=degree_evidence,
                     nontrivial=nontrivial if forcing_free else None)


def solve(problem: Problem, tol: float = 1e-9, r: float = 10.0,
          radius: float = 0.0, grid: int = 9) -> SolveReport:
    """Solve the problem by the regime solver matching its kernel dimension.

    * dim 0: the fixed point of L^{-1} F, the auxiliary equation with
      P = Q = 0; there is no bifurcation equation.
    * dim 1: the scalar bifurcation function must have opposite signs at
      -r and +r (what the existence argument guarantees under its
      hypotheses); otherwise NoSignChangeError, and a SolverError naming r
      when g is undefined there. The bordered Newton on the auxiliary and
      bifurcation equations together runs in the same Newton stack as the
      two bracket ends. It starts at the secant point of the bracket's
      values at w1 = 0, A g(+-r Z) (at 0 when that point leaves [-r, r] or
      g is undefined there), and its root is accepted inside [-r, r].
      Otherwise Brent's method keeps the sign-change bracket down to width
      1e-12 * r.
    * dim 2: winding-number evidence plus the bordered Newton from seeds.
      With radius <= 0 a heuristic default 10 * (zhat_est + ||M_p(I-Q)|| *
      K_est) is used, both estimates sampled from g (SolverError where it
      overflows the double range). Seeds are the grid x grid points of
      the square inscribed in the search disk, tried closest to the origin
      first; the first root that reproduces the recurrence to tol wins.
      The first seed runs in the same Newton stack as the winding sweep's
      first 16 points, and again on its own if one of them fails.

    A dim-1 solve that needs no Brent fallback, and a dim-2 solve whose
    sweep settles at 16 points and whose first seed converges, make one
    Newton call.
    ``iterations`` counts the work: ``newton`` the bordered Newton steps
    (dims 1 and 2, every seed's), ``bisection`` the bifurcation function
    evaluations of Brent's method (dim 1; 0 unless the fallback ran),
    ``inner_fixed_point`` the steps of the stacked auxiliary Newton and
    ``winding_samples`` the circle points of the winding sweep (dim 2).

    Every argument is checked, whatever the regime, before the linear data
    is built: tol and r finite and positive, radius finite, grid an integer
    >= 1 whose grid**2 seeds fit in an address space (else MemoryError).
    The reduction alone produces y, and the oracle's residual judges it
    against tol, reachable down to a few 1e-12. A problem with more than
    two resonant modes raises ModeLimitError.
    """
    for name, value in (("tol", tol), ("r", r)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive")
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")
    if not (float(grid).is_integer() and grid >= 1):
        raise ValueError("grid must be an integer >= 1")
    _check_allocatable("grid", grid, 16 * int(grid) ** 2)  # the seeds, (grid**2, 2) floats
    bm = BifurcationMap(problem, build_linear_data(problem))
    if bm.dim == 0:
        return _solve_dim0(bm, tol)
    if bm.dim == 1:
        return _solve_dim1(bm, r, tol)
    return _solve_dim2(bm, radius, int(grid), tol)
