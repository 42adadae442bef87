import math
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from perdiff import Problem, linear, mp_solve, proj_P, proj_Q

CANONICAL_G = "tanh(x)+0.1*cos(2*pi*t/3)"
ROOT = Path(__file__).resolve().parent.parent
# numpy runs its baseline kernels only: no SIMD target it dispatches to is
# enabled (NPY_DISABLE_CPU_FEATURES turned them all off, or the CPU has none)
_UMATH = (getattr(np, "_core", None) or np.core)._multiarray_umath
SIMD_DISPATCH_OFF = not any(_UMATH.__cpu_features__.get(t) for t in _UMATH.__cpu_dispatch__)


def subprocess_env():
    """The environment with this checkout's src first on PYTHONPATH, and
    RuntimeWarnings turned into errors.

    pytest's ``pythonpath`` and ``filterwarnings`` settings reach only its
    own process; child interpreters (``python -m perdiff``, the demos) need
    them here.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


def make_problem(b, c, N, g):
    return Problem.from_text(b, c, N, g)


def forget_linear_data(monkeypatch):
    """Empty the kept linear data for the rest of the test; the kept set returns after it."""
    monkeypatch.setattr(linear, "_kept", OrderedDict())
    monkeypatch.setattr(linear, "_kept_periods", 0)


@pytest.fixture
def cold_linear_data(monkeypatch):
    forget_linear_data(monkeypatch)


@pytest.fixture
def dim0_problem():
    return make_problem(0, 2, 3, CANONICAL_G)


@pytest.fixture
def dim1_problem():
    return make_problem(-3, 2, 3, CANONICAL_G)


@pytest.fixture
def dim2_problem():
    return make_problem(1, 1, 3, CANONICAL_G)


def instance_grid():
    """(b, c, N) triples spanning all three kernel dimensions."""
    out = []
    for b in np.linspace(-3.0, 3.0, 7):
        for c in (-2.0, -0.5, 0.5, 2.0):
            for N in (3, 5, 7):
                out.append((float(b), float(c), N))
    # one-dimensional kernels: 1 + b + c = 0
    for b, c in [(-3.0, 2.0), (-2.0, 1.0), (-1.5, 0.5), (0.0, -1.0), (1.0, -2.0), (-4.0, 3.0)]:
        for N in (3, 5):
            out.append((b, c, N))
    # two-dimensional kernels: c = 1, N * arccos(-b/2) a multiple of 2*pi
    for N in (3, 5, 7):
        for k in range(1, (N - 1) // 2 + 1):
            out.append((-2.0 * math.cos(2.0 * math.pi * k / N), 1.0, N))
    return out


def exact_membership(b, max_denominator=10**6, tol=64.0 * 2.220446049250313e-16):
    """(in_U, witness) of b from the exact continued-fraction convergents of
    the double arccos(-b/2)/(2*pi): the first p/q with q <= max_denominator,
    0 <= 2p < q and |x - p/q| <= tol, as integer arithmetic finds it.
    """
    x = math.acos(-b / 2.0) / (2.0 * math.pi)
    num, den = x.as_integer_ratio()  # exact, as Fraction(x)
    p0, q0, p, q = 1, 0, num // den, 1
    num, den = den, num % den
    while q <= max_denominator:
        if abs(x - p / q) <= tol and 0 <= 2 * p < q:
            return True, (p, q)
        if not den:
            break
        a, r = divmod(num, den)
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
        num, den = den, r
    return False, None


def random_sequences(N, count, rng):
    return rng.standard_normal((count, N, 2))


def dense_mpiq(ld):
    """(N, 2, N, 2) blocks of M_p(I-Q), one mp_solve per projected unit sequence.

    Entry [t, :, i, k] is the value at t of M_p (I - Q) applied to the unit
    sequence at (i, k): a reference built without the circulant structure.
    """
    N = ld.N
    B = np.empty((N, 2, N, 2))
    for i in range(N):
        for k in range(2):
            e = np.zeros((N, 2))
            e[i, k] = 1.0
            B[:, :, i, k] = mp_solve(ld, e - proj_Q(ld, e))
    return B


def g1_atol(ld, B):
    """Agreement to expect between G1 and the g-slice of ``dense_mpiq``.

    Both round the P read-off K[t] x(0), whose size is max|K| times that
    of the blocks; with a high-precision reference, neither is within
    4 eps max|B| on the rotation rows.
    """
    E = np.zeros((2, ld.N, 2))
    E[0, 0, 0] = E[1, 0, 1] = 1.0
    K = proj_P(ld, E)  # K[:, t, :] = the map x(0) -> (P x)(t), transposed
    return 8.0 * np.finfo(float).eps * np.max(np.abs(B)) * max(1.0, float(np.max(np.abs(K))))
