"""Linear structure of the periodic problem.

The scalar recurrence y(t+2) + b*y(t+1) + c*y(t) = g(t, y(t)) with period N
becomes a first-order system x(t+1) = A x(t) + (0, g(t, x1(t))) for the
companion matrix A = [[0, 1], [-c, -b]], posed on the space of N-periodic
R^2-valued sequences (stored as arrays of shape (N, 2), sup-of-Euclidean
norm). This module builds everything the reduction needs from the linear
part L x = x(.+1) - A x(.).

L x = h holds exactly when x2 = x1(.+1) - h1 and x1 solves the scalar
equation x1(t+2) + b*x1(t+1) + c*x1(t) = h2(t) + h1(t+1) + b*h1(t). On
N-periodic sequences that scalar operator is a circulant with symbol
lambda_k = w^{2k} + b*w^k + c, w = e^{2*pi*i/N} (P. J. Davis, *Circulant
Matrices*, 1979), so everything follows from the modes where lambda_k
vanishes:

* the resonance classification dim Ker(L) in {0, 1, 2}: the number of
  resonant modes, |lambda_k| <= RESONANT_RTOL * (1 + |b| + |c|), a cutoff
  that does not depend on N and lives in ``resonant_modes``, which
  ``kernel_dims`` evaluates for a whole column of b values at once;
* bases for Ker(L) and for the periodic solutions of the adjoint
  recurrence x(t+1) = A^{-T} x(t), whose shifted pairing annihilates
  exactly Im(L): a resonant mode mu = w^k gives mu^t (1, mu) and
  mu^t (-c, 1/mu), a conjugate pair k, N - k their real and imaginary
  parts;
* the projection P onto Ker(L), the orthogonal projection Q onto the
  complement of Im(L), and the partial inverse M_p (the inverse of L
  restricted to Ker(P)): one real FFT of the scalar right-hand side, a
  multiply by the inverse symbol (0 on the resonant modes), one inverse
  FFT, and the removal of the P component;
* M_p(I - Q) as one (N, 2, 2) column, a block circulant minus the rank-dim
  read-off P, with two readers: the (N, N) block G1 of the auxiliary
  equation, and a bracket (lower, upper) for its norm in O(N) memory, read
  off its rows of 2x2 blocks: a sound upper bound, and a lower bound that
  an explicit unit input realises.

The operators apply_L, image_test, proj_P, proj_Q and mp_solve take one
sequence (N, 2) or a stack (..., N, 2) of them and act on each member, so
every application of M_p, including the operator's column, runs through
``mp_solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .mat2 import svals2

# A mode k is resonant iff |lambda_k| <= RESONANT_RTOL * (1 + |b| + |c|).
# Three N-th roots of unity pass this only from N in the tens of thousands
# on (99400 for b = -2, c = 1); build_linear_data refuses them.
RESONANT_RTOL = 1e-9

# symbol entries per chunk in kernel_dims, 2x2 blocks per chunk in norm_bound_mp_iq
_CHUNK_ENTRIES = 1 << 16
_HALF_SQRT2 = math.sqrt(0.5)


class ModeLimitError(RuntimeError):
    """More than two modes pass the resonance cutoff: dim Ker(L) > 2."""


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
        # int() would truncate a period such as 3.5
        if not float(N).is_integer():
            raise ValueError("N must be an integer >= 2")
        return cls(float(b), float(c), int(N), expr.parse(g_text), g_text)


@dataclass(frozen=True)
class ResonanceClass:
    """Kernel dimension of the periodic linear problem plus bases.

    kernel_basis / adjoint_basis are (dim, N, 2) arrays of sequences, one
    per resonant mode mu = e^{2*pi*i*k/N} (two for a conjugate pair): the
    kernel solutions mu^t (1, mu) and the adjoint solutions mu^t (-c, 1/mu),
    or their real and imaginary parts. The multiplier 1 (1 + b + c = 0)
    gives the constant sequences (1, 1) and (-c, 1); the multiplier -1 at
    even N gives ((-1)^t, -(-1)^t) and (-1)^t (-c, -1). A two-dimensional
    kernel is either such a real pair (e.g. b = 0, c = -1 at even N, with
    theta and r_int None) or a rotation: the trigonometric columns
    (cos(theta*t), cos(theta*(t+1))) / (sin ...) and their adjoint
    counterparts, with theta = arccos(-b/2) and N*theta = 2*pi*r_int.
    theta is also set whenever c = 1 and |b| < 2.
    """

    dim: int
    kernel_basis: np.ndarray
    adjoint_basis: np.ndarray
    theta: float | None = None
    r_int: int | None = None


@dataclass(frozen=True)
class LinearData:
    """Everything derived from (b, c, N): symbol, bases, projections."""

    problem: Problem
    A: np.ndarray           # companion matrix
    symbol: np.ndarray      # lambda_k on the real-FFT modes k = 0..N//2
    symbol_inv: np.ndarray  # 1 / lambda_k, 0 on the resonant modes
    resonance: ResonanceClass
    ker_coef: np.ndarray    # (2, dim): x(0) -> kernel coordinates of P x
    adj_shift: np.ndarray   # (dim, N, 2): adjoint basis advanced one step
    adj_dual: np.ndarray    # (dim, N, 2): Gram^{-1} adj_shift


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


def resonant_modes(b, c: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The symbol lambda_k on the real-FFT modes k = 0..N//2, and its resonant mask.

    b is a scalar, or an array (..., 1) of them; both results then have
    shape (..., N//2 + 1).
    """
    w = np.exp(2j * np.pi * np.arange(N // 2 + 1) / N)
    symbol = w * w + b * w + c
    return symbol, np.abs(symbol) <= RESONANT_RTOL * (1.0 + np.abs(b) + abs(c))


def kernel_dims(bs, c: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """dim and r_int of (b, c, N) for each b in bs, as ``classify`` gives them.

    dim counts the resonant modes, a conjugate pair (2k % N != 0) twice;
    r_int is the largest resonant pair k, or -1 where there is none. The b
    values are taken in chunks of about _CHUNK_ENTRIES symbol entries.
    """
    bs = np.asarray(bs, dtype=float)
    k = np.arange(N // 2 + 1)
    pair = 2 * k % N != 0
    dim = np.empty(bs.size, dtype=int)
    r_int = np.empty(bs.size, dtype=int)
    rows = max(1, _CHUNK_ENTRIES // k.size)
    for s in range(0, bs.size, rows):
        _, resonant = resonant_modes(bs[s:s + rows, None], c, N)
        rotation = resonant & pair
        dim[s:s + rows] = np.sum(resonant, axis=1) + np.sum(rotation, axis=1)
        r_int[s:s + rows] = np.where(np.any(rotation, axis=1),
                                     k[-1] - np.argmax(rotation[:, ::-1], axis=1), -1)
    return dim, r_int


def build_linear_data(problem: Problem) -> LinearData:
    """The linear data; ModeLimitError, before any basis, when dim Ker(L) > 2."""
    b, c, N = problem.b, problem.c, problem.N
    symbol, resonant = resonant_modes(b, c, N)
    modes = np.flatnonzero(resonant)
    pair = 2 * modes % N != 0  # a conjugate pair k, N - k: a rotation by 2*pi*k/N
    dim = modes.size + np.count_nonzero(pair)
    if dim > 2:
        cutoff = RESONANT_RTOL * (1.0 + abs(b) + abs(c))
        raise ModeLimitError(f"{dim} resonant modes (|lambda_k| <= {cutoff:.3g}) at N = {N}; "
                             "at most 2 are supported")
    symbol_inv = np.zeros_like(symbol)
    symbol_inv[~resonant] = 1.0 / symbol[~resonant]

    # mu^t (1, mu) and mu^t (-c, 1/mu) per mode mu = w^k, t = -1..N; for a
    # pair, real then imaginary parts, which with dim <= 2 keeps mode order
    mu_t = np.exp(2j * np.pi * modes[:, None] * np.arange(-1, N + 1) / N)
    ker = np.stack([mu_t[:, 1:-1], mu_t[:, 2:]], axis=2)
    adj = np.stack([-c * mu_t[:, 1:-1], mu_t[:, :-2]], axis=2)
    kernel_basis = np.concatenate([ker.real, ker.imag[pair]])
    adjoint_basis = np.concatenate([adj.real, adj.imag[pair]])
    r_int = int(modes[pair][-1]) if pair.any() else None

    theta = None
    if r_int is not None or (abs(b) < 2.0 and abs(c - 1.0) <= 1e-12):
        theta = math.acos(min(1.0, max(-1.0, -b / 2.0)))

    adj_shift = np.roll(adjoint_basis, -1, axis=1)
    W = adj_shift.reshape(dim, 2 * N)
    adj_dual = np.linalg.solve(W @ W.T, W).reshape(dim, N, 2)

    resonance = ResonanceClass(dim, kernel_basis, adjoint_basis, theta, r_int)
    return LinearData(problem, companion_matrix(b, c), symbol, symbol_inv, resonance,
                      np.linalg.pinv(kernel_basis[:, 0, :]), adj_shift, adj_dual)


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
    return np.einsum("jti,...ti->...j", ld.adj_shift, np.asarray(h, dtype=float))


def proj_P(ld: LinearData, x: np.ndarray) -> np.ndarray:
    """Projection onto Ker(L): (Px)(t) = A^t p(x(0)).

    p is the orthogonal projection onto Ker(I - A^N), the span of the kernel
    basis values at t = 0; the kernel element through p(x(0)) is read off
    the kernel basis.
    """
    x = np.asarray(x, dtype=float)
    return np.einsum("...j,jti->...ti", x[..., 0, :] @ ld.ker_coef, ld.resonance.kernel_basis)


def proj_Q(ld: LinearData, h: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of the shifted adjoint solutions.

    Its kernel is exactly Im(L), which is the property the reduction needs:
    Q h = 0 iff image_test(ld, h) vanishes.
    """
    coef = np.einsum("jti,...ti->...j", ld.adj_dual, np.asarray(h, dtype=float))
    return np.einsum("...j,jti->...ti", coef, ld.adj_shift)


def mp_solve(ld: LinearData, h: np.ndarray) -> np.ndarray:
    """The unique x with L x = h and P x = 0, for h in Im(L).

    Solves the scalar circulant equation for x1 with one real FFT, a
    multiply by the inverse symbol (which drops the resonant modes) and one
    inverse FFT, sets x2 = x1(.+1) - h1, and removes the kernel component
    P x. A stack of right-hand sides is transformed together.

    Raises NotInImageError, with the largest defect, when the pairing test
    says some member of h is not in Im(L).
    """
    h = np.asarray(h, dtype=float)
    defect = np.max(np.abs(image_test(ld, h)), axis=-1, initial=0.0)
    scale = 1.0 + np.max(np.hypot(h[..., 0], h[..., 1]), axis=-1)
    if np.any(defect > 1e-9 * scale):
        raise NotInImageError(float(np.max(defect)))
    h1 = h[..., 0]
    # one expression, so no stack-sized temporary outlives its use
    x1 = np.fft.irfft(np.fft.rfft(np.roll(h1, -1, axis=-1) + ld.problem.b * h1 + h[..., 1])
                      * ld.symbol_inv, n=ld.problem.N)
    x = np.empty_like(h)
    x[..., 0] = x1
    # x2 = x1(.+1) - h1, written in place
    x[..., :-1, 1] = x1[..., 1:]
    x[..., -1, 1] = x1[..., 0]
    x[..., 1] -= h1
    if ld.resonance.dim:  # P = 0 on a trivial kernel
        x -= proj_P(ld, x)
    return x


# -- the operator M_p (I - Q) ----------------------------------------------


def _mpiq_column(ld: LinearData) -> tuple[np.ndarray, np.ndarray]:
    """(D, K): block (t, i) of M_p (I - Q) is D[(t - i) % N] - K[t] @ D[(-i) % N],
    as L and Q commute with the shift; D[s] is block (s, 0), (P x)(t) = K[t] x(0)."""
    E = np.zeros((2, ld.problem.N, 2))
    E[0, 0, 0] = E[1, 0, 1] = 1.0
    return (mp_solve(ld, E - proj_Q(ld, E)).transpose(1, 2, 0),
            proj_P(ld, E).transpose(1, 2, 0))


def norm_bound_mp_iq(ld: LinearData) -> tuple[float, float]:
    """(lower, upper) bracketing the operator norm of M_p (I - Q).

    Both hold for the norm induced by the sup-of-Euclidean sequence norm and
    are read off the operator's rows of 2x2 blocks: row t, over the inputs
    (-i) % N, is D[(t + i) % N] - K[t] @ D[i], built in chunks of rows; at
    dim 0, K = 0 and row 0 stands for all. upper, the max over t of the sum
    over i of the largest singular value of block B = (t, i), dominates the
    norm, so hypothesis checks built on it are conservative. lower is the max
    over t and u of the sum over i of |B^T u|, for u in e1, e2 and
    (e1 +- e2)/sqrt2: the input x(i) = B^T u / |B^T u| has sup-norm 1 and
    u . (M x)(t) equals that sum, so the norm is at least it.
    """
    D, K = _mpiq_column(ld)
    N = len(D)
    window = np.lib.stride_tricks.sliding_window_view(np.concatenate([D, D]), N, axis=0)
    K = K[:N if ld.resonance.dim else 1]
    lower = upper = 0.0
    step = max(1, _CHUNK_ENTRIES // N)
    for s in range(0, len(K), step):
        rows = np.tensordot(K[s:s + step], D, axes=(2, 1))  # [t, out, i, in]
        np.subtract(window[s:s + len(rows)].transpose(0, 1, 3, 2), rows, out=rows)
        upper = max(upper, float(np.max(np.sum(svals2(rows.transpose(0, 2, 1, 3))[0], axis=1))))
        (a, b), (c, d) = rows.transpose(1, 3, 0, 2)  # B = [[a, b], [c, d]], each [t, i]
        for x, y, scale in ((a, b, 1.0), (c, d, 1.0), (a + c, b + d, _HALF_SQRT2),
                            (a - c, b - d, _HALF_SQRT2)):
            lower = max(lower, scale * float(np.max(np.sum(np.sqrt(x * x + y * y), axis=1))))
    return lower, upper


def _mpiq_g1(ld: LinearData) -> np.ndarray:
    """The (N, N) block G1 of M_p (I - Q): first output component, g input."""
    D, K = _mpiq_column(ld)
    i = np.arange(len(D))
    return D[(i[:, None] - i) % len(D), 0, 1] - K[:, 0] @ D[-i % len(D), :, 1].T
