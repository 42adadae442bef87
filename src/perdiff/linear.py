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
  that does not depend on N, is formed in ``_cutoff`` (finite for every
  finite b and c) and is applied to the whole symbol by ``resonant_modes``;
  ``kernel_dims`` applies the same test for a whole column of b values at
  every N of a list, in one gathered pass, on only the modes that a lower
  bound on |lambda_k| leaves;
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

All of this depends on (b, c, N) alone, never on g: ``build_linear_data``
builds it once per operator and keeps it, read-only and shared by every
problem with that operator, the least recently used operator going first
once the kept periods pass _KEEP_PERIODS. The column of M_p (I - Q) and
its norm bracket are kept with it on first read; G1, the only (N, N)
block, is gathered from the column per bifurcation map and never kept.
"""

from __future__ import annotations

import contextlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr
from .expr import _CHUNK_ENTRIES
from .mat2 import svals2

# A mode k is resonant iff |lambda_k| <= RESONANT_RTOL * (1 + |b| + |c|).
# Three N-th roots of unity pass this only from N in the tens of thousands
# on (99400 for b = -2, c = 1); build_linear_data refuses them.
RESONANT_RTOL = 1e-9

# kernel_dims runs the exact test on a mode only while its lower bound
# |(1 + c) Re w_k + b| is within (1 + _BOUND_SLACK) * cutoff. Rounding moves
# the computed symbol by a few ulp of 1 + |b| + |c| (five operations), and
# the bound by as much again (|w_k| = 1 only to an ulp, and the run's ends
# divide by 1 + c): below 1e-14 * (1 + |b| + |c|) together. The slack,
# 2 * cutoff + 1e-12 * (1 + |b| + |c|) = 2.001 * cutoff, is more than 10^5
# times that
_BOUND_SLACK = 2.0 + 1e-12 / RESONANT_RTOL

_HALF_SQRT2 = math.sqrt(0.5)
# build_linear_data keeps operators while their periods sum to at most this;
# at about 210 bytes per period (dim 2, column of M_p (I - Q) included) that
# is about 14 MB
_KEEP_PERIODS = 1 << 16
_kept: OrderedDict[tuple, LinearData] = OrderedDict()  # least recently used first
_kept_periods = 0


class ModeLimitError(RuntimeError):
    """More than two modes pass the resonance cutoff: dim Ker(L) > 2."""


class LinearOverflowError(OverflowError):
    """The linear data of (b, c, N) overflows the double range."""


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
        if not (math.isfinite(self.N) and int(self.N) == self.N and self.N >= 2):
            raise ValueError("N must be an integer >= 2")
        if not (math.isfinite(self.b) and math.isfinite(self.c)):
            raise ValueError("coefficients must be finite")
        if self.c == 0.0:
            raise ValueError("c must be nonzero")
        # one type per field: N = 9.0 is the period 9, b = True the coefficient 1.0
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "N", int(self.N))

    @classmethod
    def from_text(cls, b: float, c: float, N: int, g_text: str) -> "Problem":
        return cls(float(b), float(c), N, expr.parse(g_text), g_text)


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
    """Everything derived from (b, c, N): symbol, bases, projections.

    ``build_linear_data`` keeps one per operator and hands it to every
    problem with that operator, so every array it holds, the resonance
    bases included, is read-only. The column of M_p (I - Q) and its norm
    bracket are computed on first read and kept with it.
    """

    b: float
    c: float
    N: int
    A: np.ndarray           # companion matrix
    symbol: np.ndarray      # lambda_k on the real-FFT modes k = 0..N//2
    symbol_inv: np.ndarray  # 1 / lambda_k, 0 on the resonant modes
    resonance: ResonanceClass
    ker_coef: np.ndarray    # (2, dim): x(0) -> kernel coordinates of P x
    adj_shift: np.ndarray   # (dim, N, 2): adjoint basis advanced one step
    adj_dual: np.ndarray    # (dim, N, 2): Gram^{-1} adj_shift

    def __post_init__(self):
        _read_only(self.A, self.symbol, self.symbol_inv, self.resonance.kernel_basis,
                   self.resonance.adjoint_basis, self.ker_coef, self.adj_shift, self.adj_dual)

    @cached_property
    def _column(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, K): block (t, i) of M_p (I - Q) is D[(t - i) % N] - K[t] @ D[(-i) % N],
        as L and Q commute with the shift; D[s] is block (s, 0), (P x)(t) = K[t] x(0)."""
        E = np.zeros((2, self.N, 2))
        E[0, 0, 0] = E[1, 0, 1] = 1.0
        return _read_only(mp_solve(self, E - proj_Q(self, E)).transpose(1, 2, 0),
                          proj_P(self, E).transpose(1, 2, 0))

    @cached_property
    def _bracket(self) -> tuple[float, float]:
        """(lower, upper) bracketing the norm of M_p (I - Q); see ``norm_bound_mp_iq``."""
        D, K = self._column
        N = len(D)
        window = np.lib.stride_tricks.sliding_window_view(np.concatenate([D, D]), N, axis=0)
        K = K[:N if self.resonance.dim else 1]
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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def sup_norm(x: np.ndarray) -> float:
    """Sup over t of the Euclidean norm of x(t); the norm on sequence space."""
    x = np.asarray(x, dtype=float)
    if not x.size:
        return 0.0
    if x.ndim == 1:
        return float(np.abs(x).max())
    # the norms of the rows as np.linalg.norm(x, axis=1) forms them
    return float(np.sqrt(np.add.reduce(x * x, axis=1)).max())


def _cutoff(b, c: float):
    """RESONANT_RTOL * (1 + |b| + |c|), finite for every finite b and c; b may be an array.

    The halved sum 0.5 + |b|/2 + |c|/2 cannot overflow, and halving and
    doubling are exact, so the bits are those of the plain formula wherever
    that is finite.
    """
    return (2.0 * RESONANT_RTOL) * (0.5 + 0.5 * np.abs(b) + 0.5 * abs(c))


def _check_allocatable(name: str, size: int, nbytes: int) -> None:
    # past the largest intp in bytes numpy has no array, and says so by a ValueError or IndexError
    if nbytes > np.iinfo(np.intp).max:
        raise MemoryError(f"{name} = {size} is too large: its arrays would exceed any address space")


def _roots(N: int) -> np.ndarray:
    """w_k = e^{2*pi*i*k/N} on the real-FFT modes k = 0..N//2."""
    _check_allocatable("N", N, 16 * N)  # a sequence of N points of R^2
    return np.exp(2j * np.pi * np.arange(N // 2 + 1) / N)


def resonant_modes(b, c: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The symbol lambda_k on the real-FFT modes k = 0..N//2, and its resonant mask.

    b is a scalar, or an array (..., 1) of them; both results then have
    shape (..., N//2 + 1). A symbol entry that overflows is inf, truly far
    above any finite cutoff, so it is not resonant.
    """
    w = _roots(N)
    with np.errstate(over="ignore"):
        symbol = w * w + b * w + c
    return symbol, np.abs(symbol) <= _cutoff(b, c)


@np.errstate(over="ignore")
def kernel_dims(bs, c: float, n_list) -> tuple[np.ndarray, np.ndarray]:
    """dim and r_int of (b, c, N) for each N in n_list and b in bs, as
    ``classify`` gives them: two arrays (len(n_list), len(bs)). dim counts
    the resonant modes, a conjugate pair (2k % N != 0) twice; r_int is the
    largest resonant pair k, or -1 where there is none.

    The exact test of ``resonant_modes`` runs only on the modes that can
    pass it. As |w_k| = 1, conj(w_k) lambda_k = (1 + c) Re w_k + b +
    i (1 - c) Im w_k, so |lambda_k| >= |(1 + c) Re w_k + b|: a mode whose
    bound exceeds the cutoff by more than the slack cannot pass, and no
    mode that passes is left out (see _BOUND_SLACK).

    Re w_k falls with k, so the modes left form one run per (b, N), found by
    binary search and widened by one mode each side, against a rounded
    Re w_k out of order by an ulp; at 1 + c = 0 the bound is |b|, and the
    run holds every mode or none. Columns are joined while their roots and
    (b, N) pairs number at most _CHUNK_ENTRIES (a longer column goes alone),
    and a group's runs are tested in chunks of about _CHUNK_ENTRIES modes,
    so memory grows neither with the b column nor with the columns. The
    cost is O(N) per column plus the runs' length, a few modes per pair,
    unless 1 + c is near 0 or, at very large N, b sits next to the
    multiplier 1 or -1.
    """
    bs = np.asarray(bs, dtype=float)
    nb = bs.size
    cutoff = _cutoff(bs, c)
    width = (1.0 + _BOUND_SLACK) * cutoff
    a = 1.0 + c
    # the run of modes with -Re w_k in [lo, hi]: |(1 + c) Re w_k + b| <= width
    if a == 0.0:
        lo, hi = np.where(np.abs(bs) <= width, -np.inf, np.inf), np.full(nb, np.inf)
    else:
        lo, hi = (bs - width) / a, (bs + width) / a
        if a < 0.0:
            lo, hi = hi, lo
    dim = np.zeros(len(n_list) * nb, dtype=int)
    r_int = np.full(len(n_list) * nb, -1)
    modes = [N // 2 + 1 for N in n_list]
    j = 0
    while j < len(n_list):
        # the columns j..e-1: their roots joined, their pairs p = col * nb + i
        e = j + 1
        while e < len(n_list) and sum(modes[j:e + 1]) + (e + 1 - j) * nb <= _CHUNK_ENTRIES:
            e += 1
        w = np.concatenate([_roots(N) for N in n_list[j:e]])
        rising = -w.real
        first_mode = np.cumsum([0, *modes[j:e]])
        columns = list(zip(first_mode.tolist(), first_mode[1:].tolist()))
        # widened by one mode each side: max(k_lo - 1, 0) to min(k_hi + 1, N//2 + 1),
        # as indices into the joined roots
        start = np.concatenate([rising[m + 1:z].searchsorted(lo, "left") + m for m, z in columns])
        length = np.concatenate([rising[m:z - 1].searchsorted(hi, "right") + (m + 1)
                                 for m, z in columns]) - start
        end = length.cumsum()
        pair_b, pair_cutoff = np.tile(bs, e - j), np.tile(cutoff, e - j)
        s = 0
        while s < start.size:
            first = end[s] - length[s]
            t = max(s + 1, int(end.searchsorted(first + _CHUNK_ENTRIES, "right")))
            rows = np.arange(s, t).repeat(length[s:t])
            k = (start[s:t] - (end[s:t] - length[s:t])).repeat(length[s:t])
            k += np.arange(first, end[t - 1])
            wk = w[k]
            symbol = wk * wk  # w * w + b * w + c, as resonant_modes forms it
            symbol += pair_b[rows] * wk
            symbol += c
            hit = np.flatnonzero(np.abs(symbol) <= pair_cutoff[rows])
            rows = rows[hit]
            cols = rows // nb
            k = k[hit] - first_mode[cols]
            rotation = 2 * k % np.take(n_list[j:e], cols) != 0  # a conjugate pair k, N - k
            rows += j * nb
            dim += np.bincount(rows, minlength=dim.size)
            dim += np.bincount(rows[rotation], minlength=dim.size)
            np.maximum.at(r_int, rows[rotation], k[rotation])
            s = t
        j = e
    return dim.reshape(len(n_list), nb), r_int.reshape(len(n_list), nb)


def build_linear_data(problem: Problem) -> LinearData:
    """The linear data of the problem's operator (b, c, N), kept across calls.

    One LinearData is kept per operator, keyed by the bits of b and c (so
    b = -0.0 and b = 0.0 stay apart) and by N, and shared, read-only, by
    every problem with that operator. The kept operators' periods sum to at
    most _KEEP_PERIODS; the least recently used goes first, and an operator
    longer than that is built afresh on every call. ModeLimitError, before
    any basis, when dim Ker(L) > 2; a call that raises keeps nothing.
    """
    global _kept_periods
    key = (problem.b.hex(), problem.c.hex(), problem.N)
    ld = _kept.get(key)
    if ld is not None:
        _kept.move_to_end(key)
        return ld
    ld = _build(problem.b, problem.c, problem.N)
    if ld.N <= _KEEP_PERIODS:
        _kept[key] = ld
        _kept_periods += ld.N
        while _kept_periods > _KEEP_PERIODS:
            _kept_periods -= _kept.popitem(last=False)[1].N
    return ld


def _build(b: float, c: float, N: int) -> LinearData:
    symbol, resonant = resonant_modes(b, c, N)
    modes = np.flatnonzero(resonant)
    pair = 2 * modes % N != 0  # a conjugate pair k, N - k: a rotation by 2*pi*k/N
    dim = int(modes.size + np.count_nonzero(pair))
    if dim > 2:
        raise ModeLimitError(f"{dim} resonant modes (|lambda_k| <= {float(_cutoff(b, c)):.3g}) "
                             f"at N = {N}; at most 2 are supported")
    symbol_inv = np.zeros_like(symbol)
    with _overflow_raised(b, c, N):
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
    with _overflow_raised(b, c, N):
        gram = W @ W.T
    adj_dual = np.linalg.solve(gram, W).reshape(dim, N, 2)

    resonance = ResonanceClass(dim, kernel_basis, adjoint_basis, theta, r_int)
    # the companion matrix; its -b keeps b = -0.0 and b = 0.0 apart
    return LinearData(b, c, N, np.array([[0.0, 1.0], [-c, -b]]), symbol, symbol_inv,
                      resonance, np.linalg.pinv(kernel_basis[:, 0, :]), adj_shift, adj_dual)


@contextlib.contextmanager
def _overflow_raised(b: float, c: float, N: int):
    # past the double range, the symbol's inverse and the adjoint Gram matrix overflow
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise LinearOverflowError(f"the linear data of (b, c, N) = ({b!r}, {c!r}, {N}) "
                                  f"leaves the double range: {e}") from None


def classify(problem: Problem) -> ResonanceClass:
    """Resonance classification of a problem (kernel dimension and bases).

    The kept classification of the operator: shared, its bases read-only.
    """
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
    defect = np.abs(image_test(ld, h)).max(axis=-1, initial=0.0)
    scale = 1.0 + np.hypot(h[..., 0], h[..., 1]).max(axis=-1)
    if (defect > 1e-9 * scale).any():
        raise NotInImageError(float(defect.max()))
    h1 = h[..., 0]
    # one expression, so no stack-sized temporary outlives its use
    x1 = np.fft.irfft(np.fft.rfft(np.concatenate([h1[..., 1:], h1[..., :1]], axis=-1)
                                  + ld.b * h1 + h[..., 1])
                      * ld.symbol_inv, n=ld.N)
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


def norm_bound_mp_iq(ld: LinearData) -> tuple[float, float]:
    """(lower, upper) bracketing the operator norm of M_p (I - Q), kept with ld.

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
    return ld._bracket


def _mpiq_g1(ld: LinearData) -> np.ndarray:
    """The (N, N) block G1 of M_p (I - Q): first output component, g input.

    Gathered afresh on every call from the kept column: only O(N) is kept.
    """
    D, K = ld._column
    i = np.arange(len(D))
    return D[(i[:, None] - i) % len(D), 0, 1] - K[:, 0] @ D[-i % len(D), :, 1].T
