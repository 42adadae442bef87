"""Command-line front end.

Five subcommands over problem files (JSON objects with keys b, c, N and g;
other keys are ignored):

* ``classify``  -- kernel dimension, rotation data, resonant-angle membership;
* ``solve``     -- dispatch to the regime solver, print the solve report;
* ``verify``    -- residual check of a candidate solution file {"y": [...]};
* ``check``     -- run one of the three hypothesis checkers;
* ``scan``      -- classification sweep over a range of b values, CSV out.

All structured output is JSON with a fixed key layout, the tool version and
a full echo of the inputs; floats are printed with 17 significant digits so
identical runs produce byte-identical bytes. Exit codes: 0 success/pass,
1 usage, 2 file or expression parse error, 3 solver failure (also a failed
verify, or g undefined at a checked point; more than two resonant modes
in one line on stderr), 4 hypothesis check failed (or a theorem that does
not apply to the problem).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import __version__, expr, hypotheses, oracle, reduction
from .linear import (LinearOverflowError, ModeLimitError, NotInImageError, Problem,
                     build_linear_data, kernel_dims)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_HYPOTHESIS = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here says 1
    def error(self, message):
        raise _CliError(f"usage error: {message}", EXIT_USAGE)


@contextlib.contextmanager
def _options_checked(*options: str):
    # the library checks its arguments: a ValueError naming one of options first is a usage error
    try:
        yield
    except ValueError as e:
        if str(e).split(" ", 1)[0] not in options:
            raise
        raise _CliError(f"--{e}", EXIT_USAGE) from None


# -- deterministic JSON ------------------------------------------------------


def to_json(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (round-trip exact)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {to_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}  {to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _scalar_json(obj)


def _scalar_json(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not math.isfinite(f):
            return json.dumps(str(f))
        return format(f, ".17g")
    return json.dumps(str(v))


def _fmt_float(v: float) -> str:
    return format(float(v), ".17g")


# -- problem files -----------------------------------------------------------


def load_problem(path: str) -> Problem:
    """Read a problem file; keys other than b, c, N and g are ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise _CliError(f"cannot read {path}: {e}", EXIT_PARSE) from None
    except json.JSONDecodeError as e:
        raise _CliError(f"invalid JSON in {path}: {e}", EXIT_PARSE) from None
    if not isinstance(data, dict):
        raise _CliError(f"{path}: expected a JSON object", EXIT_PARSE)
    missing = {"b", "c", "N", "g"} - set(data)
    if missing:
        raise _CliError(f"{path}: missing key(s) {sorted(missing)}", EXIT_PARSE)
    # float() and int() would take "3" and true; a JSON bool is an int to Python
    for key in ("b", "c", "N"):
        if isinstance(data[key], bool) or not isinstance(data[key], (int, float)):
            raise _CliError(f"{path}: {key} must be a number, not {json.dumps(data[key])}",
                            EXIT_PARSE)
    if not isinstance(data["g"], str):
        raise _CliError(f"{path}: g must be a string, not {json.dumps(data['g'])}", EXIT_PARSE)
    try:
        return Problem.from_text(data["b"], data["c"], data["N"], data["g"])
    except (expr.ExprError, ValueError, TypeError) as e:
        raise _CliError(f"{path}: {e}", EXIT_PARSE) from None


def _report_shell(command: str, problem: Problem, **flags) -> dict:
    return {"tool": "perdiff", "version": __version__, "command": command,
            "input": {"b": problem.b, "c": problem.c, "N": problem.N,
                      "g": problem.g_text, **flags}}


# -- subcommands -------------------------------------------------------------


def _cmd_classify(args) -> int:
    problem = load_problem(args.problem)
    rc = build_linear_data(problem).resonance
    in_u = None
    witness = None
    if abs(problem.b) < 2.0:
        in_u, w = hypotheses.membership_U(problem.b)
        witness = None if w is None else list(w)
    out = _report_shell("classify", problem)
    out.update({
        "dim": rc.dim,
        "theta": rc.theta,
        "r_int": rc.r_int,
        "kernel_basis": [seq.tolist() for seq in rc.kernel_basis],
        "adjoint_basis": [seq.tolist() for seq in rc.adjoint_basis],
        "in_U": in_u,
        "U_witness": witness,
    })
    print(to_json(out))
    return EXIT_OK


def _print_failure(shell: dict, message: str, diagnostics: dict | None,
                   code: int = EXIT_SOLVER) -> int:
    shell["error"] = message
    if diagnostics:
        shell["diagnostics"] = diagnostics
    print(to_json(shell))
    return code


def _cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    shell = _report_shell("solve", problem, tol=args.tol, r=args.r,
                          radius=args.radius, grid=args.grid)
    try:
        with _options_checked("tol", "r", "radius", "grid"):
            report = reduction.solve(problem, tol=args.tol, r=args.r,
                                     radius=args.radius, grid=args.grid)
    except (reduction.SolverError, expr.DomainError) as e:
        return _print_failure(shell, str(e), getattr(e, "diagnostics", None))
    shell.update(report.as_dict())
    print(to_json(shell))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _CliError("--tol must be finite and positive", EXIT_USAGE)
    problem = load_problem(args.problem)
    try:
        with open(args.solution, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _CliError(f"cannot read solution file: {e}", EXIT_PARSE) from None
    y = data.get("y") if isinstance(data, dict) else None
    if not isinstance(y, list):
        raise _CliError('solution file must be an object {"y": [...]}', EXIT_PARSE)
    if len(y) != problem.N:
        raise _CliError(
            f"solution has {len(y)} values but N={problem.N}", EXIT_PARSE)
    values = []
    for i, v in enumerate(y):
        try:
            if isinstance(v, (bool, str)):  # float() would take true or "1.5"
                raise TypeError
            values.append(float(v))
        except (TypeError, OverflowError):
            raise _CliError(f"solution entry y[{i}] is not a number: {json.dumps(v)}",
                            EXIT_PARSE) from None
    y = np.asarray(values)
    out = _report_shell("verify", problem, tol=args.tol, solution=values)
    try:
        res = float(np.max(np.abs(oracle.residual(problem, y))))
    except expr.DomainError as e:
        # g leaves its domain at the given y: a failed verify, as in check
        return _print_failure(out, f"cannot evaluate residual: {e}", None)
    passed = res <= args.tol
    out.update({"residual_sup": res, "passed": passed})
    print(to_json(out))
    return EXIT_OK if passed else EXIT_SOLVER


def _cmd_check(args) -> int:
    problem = load_problem(args.problem)
    shell = _report_shell("check", problem, theorem=args.theorem,
                          r=args.r, zhat=args.zhat, R=args.R, grid=args.grid)
    try:
        with _options_checked("r", "zhat", "R", "grid"):
            if args.theorem == "thm1":
                report = hypotheses.check_thm1(problem, r=args.r, zhat=args.zhat, grid=args.grid)
            elif args.theorem == "cor":
                report = hypotheses.check_corollary(problem, R=args.R, grid=args.grid)
            else:
                report = hypotheses.check_thm2(problem, zhat=args.zhat, grid=args.grid)
    except NotInImageError as e:
        # a valid problem whose linear data is too inaccurate to apply
        # M_p(I-Q): a numerical failure, not a parse error
        return _print_failure(shell, f"cannot bound the norm of M_p(I-Q): {e}",
                              {"defect": e.defect, "N": problem.N})
    except expr.DomainError as e:
        # g leaves its domain on a sampled grid: a failure of the check, as in solve
        return _print_failure(shell, str(e), None)
    except hypotheses.NotApplicableError as e:
        # the problem parses, but the theorem does not apply to it
        return _print_failure(shell, str(e), None, EXIT_HYPOTHESIS)
    except ValueError as e:
        raise _CliError(str(e), EXIT_PARSE) from None
    shell.update(report.as_dict())
    print(to_json(shell))
    return EXIT_OK if report.overall else EXIT_HYPOTHESIS


def _scan_csv(bs: np.ndarray, c: float, n_list: list) -> str:
    """The scan's CSV text, joined once from four pieces per line: each b's
    "b,c," head and ",theta,in_U," tail, formatted once per b and shared by
    its lines, each N column's "N,dim" text, one per dim present (which can
    exceed 2), and its "r_int,gcd" text that ends the line. One
    ``kernel_dims`` call gives every column's dims."""
    b_list = bs.tolist()
    inside = np.abs(bs) < 2.0
    # theta and in_U read one math.acos per b, whose bits np.arccos may miss in the last place
    theta = [math.acos(-b / 2.0) if abs(b) <= 2.0 else math.nan for b in b_list]
    in_u = np.zeros(bs.size, dtype=bool)
    in_u[inside] = hypotheses._resonant_angles(np.array(theta)[inside],
                                               hypotheses.DEFAULT_MAX_DENOMINATOR)[0]
    c_text = _fmt_float(c)
    heads = [f"{_fmt_float(b)},{c_text}," for b in b_list]
    tails = [f",{_fmt_float(t) if abs(b) <= 2.0 else ''},"
             f"{('true,' if b_in_u else 'false,') if b_inside else ','}"
             for b, t, b_inside, b_in_u in zip(b_list, theta, inside.tolist(), in_u.tolist())]
    dims, r_ints = kernel_dims(bs, c, n_list)
    # line (i, j), of b i and column j, is pieces[1 + 4 * (i * len(n_list) + j):][:4]
    stride = 4 * len(n_list)
    pieces = [""] * (1 + stride * bs.size)
    pieces[0] = "b,c,N,dim,theta,in_U,r_int,gcd\n"
    for j, (N, dim, r_int) in enumerate(zip(n_list, dims.tolist(), r_ints)):
        n_dim = {d: f"{N},{d}" for d in set(dim)}
        rot = [",\n"] * bs.size
        for row in np.flatnonzero(r_int >= 0).tolist():
            rot[row] = f"{r_int[row]},{math.gcd(int(r_int[row]), N)}\n"
        for p, texts in enumerate((heads, map(n_dim.__getitem__, dim), tails, rot), 1 + 4 * j):
            pieces[p::stride] = texts
    return "".join(pieces)


def _cmd_scan(args) -> int:
    try:
        lo, hi, steps = args.b_range.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise _CliError("--b-range must be lo:hi:steps", EXIT_USAGE) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _CliError("--b-range bounds must be finite", EXIT_USAGE)
    if steps < 0:
        raise _CliError("steps must be >= 0", EXIT_USAGE)
    try:
        n_list = [int(s) for s in args.N_list.split(",") if s.strip()]
    except ValueError:
        raise _CliError("--N-list must be comma-separated integers", EXIT_USAGE) from None
    if any(N < 2 for N in n_list):
        raise _CliError("--N-list entries must be >= 2", EXIT_USAGE)
    if args.c == 0.0 or not math.isfinite(args.c):
        raise _CliError("c must be finite and nonzero", EXIT_USAGE)

    with np.errstate(over="ignore", invalid="ignore"):
        bs = np.linspace(lo, hi, steps)
    if not np.all(np.isfinite(bs)):
        raise _CliError("--b-range values must be finite", EXIT_USAGE)
    csv_text = _scan_csv(bs, args.c, n_list)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


# -- entry point --------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parsing reads it and leaves it as it was
    parser = _Parser(prog="perdiff",
                     description="Periodic solutions of y(t+2)+b y(t+1)+c y(t)=g(t,y(t)).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="kernel dimension and resonance data")
    p.add_argument("problem")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="compute an N-periodic solution")
    p.add_argument("problem")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="sup-norm recurrence residual to reach (down to a few 1e-12)")
    p.add_argument("--r", type=float, default=10.0,
                   help="search half-width for the one-dimensional kernel")
    p.add_argument("--radius", type=float, default=0.0,
                   help="search radius for the two-dimensional kernel (0 = auto)")
    p.add_argument("--grid", type=int, default=9,
                   help="seed grid size for the two-dimensional kernel")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="residual-check a solution file")
    p.add_argument("problem")
    p.add_argument("solution")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check", help="verify existence-theorem hypotheses")
    p.add_argument("problem")
    p.add_argument("--theorem", choices=["thm1", "cor", "thm2"], required=True)
    p.add_argument("--r", type=float, default=10.0)
    p.add_argument("--zhat", type=float, default=1.0)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=201)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("scan", help="classification sweep over b, CSV output")
    p.add_argument("--b-range", required=True, metavar="lo:hi:steps")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--N-list", required=True, metavar="N1,N2,...")
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    except (ModeLimitError, LinearOverflowError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
