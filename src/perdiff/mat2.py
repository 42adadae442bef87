"""Small 2x2 matrix kernels shared by the whole package.

Matrices are plain numpy arrays of shape (2, 2). Singular values come from
the closed-form 2x2 expression, evaluated elementwise over a whole stack
(..., 2, 2) of matrices at once.
"""

from __future__ import annotations

import numpy as np


def as_mat2(a) -> np.ndarray:
    """a as a finite float 2x2 matrix, or a stack (..., 2, 2) of them."""
    A = np.asarray(a, dtype=float)
    if A.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def svals2(A) -> tuple[float, float]:
    """Both singular values of a 2x2 matrix, largest first.

    Uses the closed form via the Gram matrix A A^T: with
    s1 = sum of squared entries and s2 = hypot(a^2+b^2-c^2-d^2, 2(ac+bd)),
    the squared singular values are (s1 +- s2) / 2. For a stack
    (..., 2, 2) both are arrays of shape (...).
    """
    A = as_mat2(A)
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    s1 = a * a + b * b + c * c + d * d
    s2 = np.hypot(a * a + b * b - c * c - d * d, 2.0 * (a * c + b * d))
    # ** 0.5 takes the root of the temporary in place (np.sqrt would not),
    # so a large stack never holds more than four arrays of its size
    smin = np.maximum(0.0, 0.5 * (s1 - s2)) ** 0.5
    smax = (0.5 * (s1 + s2)) ** 0.5
    return smax, smin

