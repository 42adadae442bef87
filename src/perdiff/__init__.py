"""Periodic solutions of second-order nonlinear difference equations.

The package computes N-periodic solutions of

    y(t+2) + b*y(t+1) + c*y(t) = g(t, y(t)),    c != 0,

by reducing the periodic boundary-value problem to kernel coordinates of
its linear part (a Lyapunov-Schmidt splitting), classifies the resonance
structure, machine-checks the hypotheses of the underlying existence
theorems, and judges every solution by the recurrence residual that an
independent oracle module computes.
"""

__version__ = "0.1.0"

from .expr import DomainError, ExprError, evaluate, parse
from .hypotheses import (
    CheckReport,
    check_corollary,
    check_thm1,
    check_thm2,
    membership_U,
)
from .linear import (
    LinearData,
    LinearOverflowError,
    ModeLimitError,
    NotInImageError,
    Problem,
    ResonanceClass,
    apply_L,
    build_linear_data,
    classify,
    image_test,
    mp_solve,
    norm_bound_mp_iq,
    proj_P,
    proj_Q,
    sup_norm,
)
from .oracle import check_solution, multistart_search, newton_solve, residual
from .reduction import (
    BifurcationMap,
    BoundaryZeroError,
    ConvergenceError,
    NoSignChangeError,
    SolveReport,
    SolverError,
    bifurcation_jacobian,
    bifurcation_value,
    solve,
    winding_of_map,
)

__all__ = [
    "__version__",
    "BifurcationMap", "BoundaryZeroError", "CheckReport", "ConvergenceError",
    "DomainError", "ExprError", "LinearData", "LinearOverflowError", "ModeLimitError",
    "NoSignChangeError", "NotInImageError", "Problem", "ResonanceClass", "SolveReport",
    "SolverError", "apply_L", "bifurcation_jacobian",
    "bifurcation_value",
    "build_linear_data", "check_corollary", "check_solution", "check_thm1",
    "check_thm2", "classify", "evaluate", "image_test",
    "membership_U", "mp_solve", "multistart_search",
    "newton_solve", "norm_bound_mp_iq", "parse", "proj_P", "proj_Q",
    "residual", "solve", "sup_norm", "winding_of_map",
]
