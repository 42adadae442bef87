"""Linear structure of the periodic problem.

The scalar recurrence y(t+2) + b*y(t+1) + c*y(t) = g(t, y(t)) with period N
becomes a first-order system x(t+1) = A x(t) + (0, g(t, x1(t))) for the
companion matrix A = [[0, 1], [-c, -b]], posed on the space of N-periodic
R^2-valued sequences (stored as arrays of shape (N, 2), sup-of-Euclidean
norm). This module builds everything the reduction needs from the linear
part L x = x(.+1) - A x(.):

* the monodromy A^N and the resonance classification
  dim Ker(L) = 2 - rank(I - A^N) in {0, 1, 2};
* bases for Ker(L) (forward orbits of fixed vectors of A^N, read off the
  table of powers A^t) and for the periodic solutions of the adjoint
  recurrence x(t+1) = A^{-T} x(t) (read off the adjoint table), whose
  shifted pairing annihilates exactly Im(L);
* the projection P onto Ker(L), the orthogonal projection Q onto the
  complement of Im(L), and the partial inverse M_p (the inverse of L
  restricted to Ker(P)), via one monodromy solve plus forward rolling;
* a sound upper bound and a Monte Carlo lower bound for the operator norm
  of M_p(I - Q) in the sup-of-Euclidean norm, which the existence-theorem
  checkers consume.

The operators apply_L, image_test, proj_P, proj_Q and mp_solve take one
sequence (N, 2) or a stack (..., N, 2) of them and act on each member;
``mp_solve`` holds the only forward rolls, so every application of M_p,
including the operator-norm blocks and the Monte Carlo samples, runs
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr
from .mat2 import RANK_RTOL, pinv2, svals2

# |N*theta/(2*pi) - round(...)| must be below this for the rotation count
# of a two-dimensional kernel to be accepted as an integer.
_ROT_INT_TOL = 1e-6


class NotInImageError(ValueError):
    """Right-hand side is not in the image of the linear operator."""

    def __init__(self, defect: float):
        super().__init__(f"right-hand side not in image (defect {defect:.3e})")
        self.defect = defect


# -- problem data types --------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """One instance of the periodic problem: coefficients, period, forcing."""

    b: float
    c: float
    N: int
    g: expr.Node
    g_text: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.b) and math.isfinite(self.c)):
            raise ValueError("coefficients must be finite")
        if self.c == 0.0:
            raise ValueError("c must be nonzero")
        if int(self.N) != self.N or self.N < 2:
            raise ValueError("N must be an integer >= 2")

    @classmethod
    def from_text(cls, b: float, c: float, N: int, g_text: str) -> "Problem":
        return cls(float(b), float(c), int(N), expr.parse(g_text), g_text)


@dataclass(frozen=True)
class ResonanceClass:
    """Kernel dimension of the periodic linear problem plus bases.

    kernel_basis / adjoint_basis hold dim-many (N, 2) sequences. In the
    one-dimensional constant-kernel case (1 + b + c = 0) the bases are
    normalized to the constant sequences (1, 1) and (-c, 1); in the
    two-dimensional case they are the trigonometric columns
    (cos(theta*t), cos(theta*(t+1))) / (sin ...) and their adjoint
    counterparts, with theta = arccos(-b/2) and N*theta = 2*pi*r_int.
    """

    dim: int
    kernel_basis: tuple
    adjoint_basis: tuple
    theta: float | None = None
    r_int: int | None = None


@dataclass(frozen=True)
class LinearData:
    """Everything derived from (b, c, N): powers, monodromy, projections."""

    problem: Problem
    A: np.ndarray           # companion matrix
    A_pows: np.ndarray      # (N+1, 2, 2), A_pows[t] = A^t
    monodromy: np.ndarray   # A^N
    V: np.ndarray           # orthogonal projector onto Ker(I - A^N)
    W_table: np.ndarray     # (N, 2, 2); column j is the j-th periodic adjoint
                            # solution advanced one step, zero-padded past dim
    gram_inv: np.ndarray    # pseudo-inverse of sum_t W(t)^T W(t)
    resonance: ResonanceClass
    IA_pinv: np.ndarray = field(repr=False, default=None)  # pinv of I - A^N


def sup_norm(x: np.ndarray) -> float:
    """Sup over t of the Euclidean norm of x(t); the norm on sequence space."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return float(np.max(np.abs(x))) if x.size else 0.0
    return float(np.max(np.linalg.norm(x, axis=1))) if x.size else 0.0


def companion_matrix(b: float, c: float) -> np.ndarray:
    """The first-order companion matrix [[0, 1], [-c, -b]]."""
    if c == 0.0:
        raise ValueError("c must be nonzero")
    return np.array([[0.0, 1.0], [-float(c), -float(b)]])


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    # fix the sign ambiguity of SVD vectors: largest-magnitude entry positive
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def build_linear_data(problem: Problem) -> LinearData:
    b, c, N = problem.b, problem.c, problem.N
    A = companion_matrix(b, c)
    pows = np.empty((N + 1, 2, 2))
    pows[0] = np.eye(2)
    for t in range(N):
        pows[t + 1] = A @ pows[t]
    monodromy = pows[N]
    M = np.eye(2) - monodromy

    U, s, Vt = np.linalg.svd(M)
    cut = RANK_RTOL * max(1.0, s[0])
    rank = int(np.sum(s > cut))
    dim = 2 - rank
    ker_vecs = [_canonical_sign(Vt[j]) for j in range(rank, 2)]
    adj_vecs = [_canonical_sign(U[:, j]) for j in range(rank, 2)]

    V = np.zeros((2, 2))
    for v in ker_vecs:
        V += np.outer(v, v)

    theta = None
    if abs(b) < 2.0 and abs(c - 1.0) <= 1e-12:
        theta = math.acos(-b / 2.0)
    r_int = None

    A_inv_T = np.array([[-b / c, 1.0], [-1.0 / c, 0.0]])  # (A^{-1})^T, exact

    # W_table[t] = Gamma(t+1) restricted to the periodic adjoint directions,
    # zero-padded to 2x2 so the Gram pseudo-inverse handles every dim.
    W0 = np.zeros((2, 2))
    for j, w in enumerate(adj_vecs):
        W0[:, j] = w
    W_table = np.empty((N, 2, 2))
    cur = A_inv_T @ W0
    for t in range(N):
        W_table[t] = cur
        cur = A_inv_T @ cur
    gram = np.einsum("tij,tik->jk", W_table, W_table)
    gram_inv = pinv2(gram)

    constant_kernel = dim >= 1 and abs(1.0 + b + c) <= 1e-9 * (1.0 + abs(b) + abs(c))
    if dim == 2:
        if abs(b) >= 2.0:
            # A^N = I needs a complex-conjugate eigenvalue pair, i.e. |b| < 2
            raise RuntimeError("two-dimensional kernel outside the rotation case")
        theta = math.acos(-b / 2.0)
        rot = N * theta / (2.0 * math.pi)
        r_int = int(round(rot))
        if abs(rot - r_int) > _ROT_INT_TOL:
            raise RuntimeError("two-dimensional kernel without integer rotation count")
        ts = np.arange(N)
        kernel_basis = (
            np.stack([np.cos(theta * ts), np.cos(theta * (ts + 1))], axis=1),
            np.stack([np.sin(theta * ts), np.sin(theta * (ts + 1))], axis=1),
        )
        adjoint_basis = (
            np.stack([-np.cos(theta * ts), np.cos(theta * (ts - 1))], axis=1),
            np.stack([-np.sin(theta * ts), np.sin(theta * (ts - 1))], axis=1),
        )
    elif dim == 1 and constant_kernel:
        # A fixes (1,1) and A^{-T} fixes (-c,1) exactly when 1 + b + c = 0
        kernel_basis = (np.tile([1.0, 1.0], (N, 1)),)
        adjoint_basis = (np.tile([-c, 1.0], (N, 1)),)
    else:
        # orbits t -> A^t v and t -> A^{-T t} w; W_table holds the adjoint
        # orbit one step ahead, so its first value is w itself
        kernel_basis = tuple(pows[:N] @ v for v in ker_vecs)
        adjoint_basis = tuple(np.concatenate([W0[None, :, j], W_table[:-1, :, j]])
                              for j in range(dim))

    resonance = ResonanceClass(dim, kernel_basis, adjoint_basis, theta, r_int)

    return LinearData(problem, A, pows, monodromy, V, W_table, gram_inv,
                      resonance, pinv2(M))


def classify(problem: Problem) -> ResonanceClass:
    """Resonance classification of a problem (kernel dimension and bases)."""
    return build_linear_data(problem).resonance


# -- operators on sequences ---------------------------------------------


def apply_L(ld: LinearData, x: np.ndarray) -> np.ndarray:
    """(Lx)(t) = x(t+1) - A x(t) with periodic wraparound."""
    x = np.asarray(x, dtype=float)
    return np.roll(x, -1, axis=-2) - x @ ld.A.T


def image_test(ld: LinearData, h: np.ndarray) -> np.ndarray:
    """Pairings of h against the shifted periodic adjoint solutions.

    Returns one value per kernel dimension, shape (..., dim); h lies in
    Im(L) iff all of them vanish (|value| <= 1e-9 * (1 + sup_norm(h)) in
    practice). The empty last axis in the nonresonant case means "always
    in the image".
    """
    h = np.asarray(h, dtype=float)
    z = np.reshape(ld.resonance.adjoint_basis, (-1, ld.problem.N, 2))
    return np.sum(np.roll(z, -1, axis=1) * h[..., None, :, :], axis=(-2, -1))


def proj_P(ld: LinearData, x: np.ndarray) -> np.ndarray:
    """Projection onto Ker(L): (Px)(t) = A^t V x(0)."""
    x = np.asarray(x, dtype=float)
    N = ld.problem.N
    return np.einsum("tij,...j->...ti", ld.A_pows[:N], x[..., 0, :] @ ld.V.T)


def proj_Q(ld: LinearData, h: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of the shifted adjoint solutions.

    Its kernel is exactly Im(L), which is the property the reduction needs:
    Q h = 0 iff image_test(ld, h) vanishes.
    """
    h = np.asarray(h, dtype=float)
    coef = np.einsum("tij,...ti->...j", ld.W_table, h) @ ld.gram_inv.T
    return np.einsum("tij,...j->...ti", ld.W_table, coef)


def mp_solve(ld: LinearData, h: np.ndarray) -> np.ndarray:
    """The unique x with L x = h and P x = 0, for h in Im(L).

    Forward-rolls x(t+1) = A x(t) + h(t) from zero to obtain the monodromy
    right-hand side, picks the minimum-norm initial vector solving
    (I - A^N) x(0) = A^N sum_i A^{-(i+1)} h(i) (which is automatically
    orthogonal to Ker(I - A^N), hence P x = 0), then rolls forward again.
    A stack of right-hand sides is rolled together.

    Raises NotInImageError, with the largest defect, when the pairing test
    says some member of h is not in Im(L).
    """
    h = np.asarray(h, dtype=float)
    defect = np.max(np.abs(image_test(ld, h)), axis=-1, initial=0.0)
    scale = 1.0 + np.max(np.hypot(h[..., 0], h[..., 1]), axis=-1)
    if np.any(defect > 1e-9 * scale):
        raise NotInImageError(float(np.max(defect)))
    N = ld.problem.N
    A_T = ld.A.T
    s = np.zeros(h.shape[:-2] + (2,))
    for t in range(N):
        s = s @ A_T + h[..., t, :]
    cur = s @ ld.IA_pinv.T
    out = np.empty_like(h)
    for t in range(N):
        out[..., t, :] = cur
        cur = cur @ A_T + h[..., t, :]
    return out


# -- operator norm of M_p (I - Q) ----------------------------------------


def _mpiq_blocks(ld: LinearData) -> np.ndarray:
    """(N, 2, N, 2) block representation of h -> M_p (I - Q) h.

    Entry [t, :, i, k] is the value at t of M_p (I - Q) applied to the unit
    sequence at (i, k); the 2N unit sequences are solved as one stack.
    """
    N = ld.problem.N
    E = np.eye(2 * N).reshape(2 * N, N, 2)
    E -= proj_Q(ld, E)
    return mp_solve(ld, E).reshape(N, 2, N, 2).transpose(2, 3, 0, 1)


def _upper_from_blocks(B: np.ndarray) -> float:
    # per output index t, the sum over i of the largest singular values of
    # the 2x2 blocks B[t, :, i, :]
    smax, _ = svals2(B.transpose(0, 2, 1, 3))
    return float(np.max(np.sum(smax, axis=1), initial=0.0))


def norm_bound_mp_iq(ld: LinearData, mc_samples: int, seed: int = 0) -> tuple[float, float]:
    """(lower, upper) bracketing the operator norm of M_p (I - Q).

    The upper bound sums, per output index, the largest singular values of
    the 2x2 blocks of the operator; it dominates the norm induced by the
    sup-of-Euclidean sequence norm, so hypothesis checks built on it are
    conservative. The lower bound maximizes over mc_samples random inputs
    of unit sup-norm (deterministic for a fixed seed).
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    upper = _upper_from_blocks(_mpiq_blocks(ld))
    rng = np.random.default_rng(seed)
    lower = 0.0
    remaining = int(mc_samples)
    while remaining > 0:
        batch = min(remaining, 4096)
        H = rng.standard_normal((batch, ld.problem.N, 2))
        scale = np.max(np.linalg.norm(H, axis=2), axis=1)
        H /= scale[:, None, None]
        out = mp_solve(ld, H - proj_Q(ld, H))
        lower = max(lower, float(np.max(np.linalg.norm(out, axis=2))))
        remaining -= batch
    return lower, upper
