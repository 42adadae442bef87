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
1 usage, 2 file or expression parse error, 3 solver failure (or more than
two resonant modes, in one line on stderr), 4 hypothesis check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, expr, hypotheses, oracle, reduction
from .linear import ModeLimitError, NotInImageError, Problem, build_linear_data, kernel_dims

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


def _positive_float(text: str) -> float:
    # option type of tolerances and widths: finite and > 0, else a usage error
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be finite and positive")
    return value


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


def _print_failure(shell: dict, message: str, diagnostics: dict | None) -> int:
    shell["error"] = message
    if diagnostics:
        shell["diagnostics"] = diagnostics
    print(to_json(shell))
    return EXIT_SOLVER


def _cmd_solve(args) -> int:
    if not math.isfinite(args.radius):
        raise _CliError("--radius must be finite", EXIT_USAGE)
    if args.grid < 1:
        raise _CliError("--grid must be >= 1", EXIT_USAGE)
    problem = load_problem(args.problem)
    shell = _report_shell("solve", problem, tol=args.tol, r=args.r,
                          radius=args.radius, grid=args.grid)
    try:
        report = reduction.solve(problem, tol=args.tol, r=args.r,
                                 radius=args.radius, grid=args.grid)
    except (reduction.SolverError, expr.DomainError) as e:
        return _print_failure(shell, str(e), getattr(e, "diagnostics", None))
    shell.update(report.as_dict())
    print(to_json(shell))
    return EXIT_OK


def _cmd_verify(args) -> int:
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
    try:
        res = float(np.max(np.abs(oracle.residual(problem, y))))
    except expr.DomainError as e:
        raise _CliError(f"cannot evaluate residual: {e}", EXIT_PARSE) from None
    passed = res <= args.tol
    out = _report_shell("verify", problem, tol=args.tol, solution=values)
    out.update({"residual_sup": res, "passed": passed})
    print(to_json(out))
    return EXIT_OK if passed else EXIT_SOLVER


def _cmd_check(args) -> int:
    if args.grid < 2:
        raise _CliError("--grid must be >= 2", EXIT_USAGE)
    problem = load_problem(args.problem)
    shell = _report_shell("check", problem, theorem=args.theorem,
                          r=args.r, zhat=args.zhat, R=args.R, grid=args.grid)
    try:
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
    except ValueError as e:
        raise _CliError(str(e), EXIT_PARSE) from None
    shell.update(report.as_dict())
    print(to_json(shell))
    return EXIT_OK if report.overall else EXIT_HYPOTHESIS


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
    # one symbol evaluation per N column, by the same rule as classify
    columns = [kernel_dims(bs, args.c, N) for N in n_list]
    c_text = _fmt_float(args.c)
    lines = ["b,c,N,dim,theta,in_U,r_int,gcd"]
    for row, b in enumerate(bs):
        theta = math.acos(max(-1.0, min(1.0, -b / 2.0))) if abs(b) <= 2.0 else None
        in_u = None
        if abs(b) < 2.0:
            in_u, _ = hypotheses.membership_U(float(b))
        b_text = _fmt_float(b)
        theta_text = "" if theta is None else _fmt_float(theta)
        in_u_text = "" if in_u is None else ("true" if in_u else "false")
        for N, (dim, r_int) in zip(n_list, columns):
            r = int(r_int[row])
            rot = "," if r < 0 else f"{r},{math.gcd(r, N)}"
            lines.append(f"{b_text},{c_text},{N},{dim[row]},{theta_text},{in_u_text},{rot}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


# -- entry point --------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="perdiff",
                     description="Periodic solutions of y(t+2)+b y(t+1)+c y(t)=g(t,y(t)).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="kernel dimension and resonance data")
    p.add_argument("problem")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="compute an N-periodic solution")
    p.add_argument("problem")
    p.add_argument("--tol", type=_positive_float, default=1e-9,
                   help="sup-norm recurrence residual to reach (down to a few 1e-12)")
    p.add_argument("--r", type=_positive_float, default=10.0,
                   help="search half-width for the one-dimensional kernel")
    p.add_argument("--radius", type=float, default=0.0,
                   help="search radius for the two-dimensional kernel (0 = auto)")
    p.add_argument("--grid", type=int, default=9,
                   help="seed grid size for the two-dimensional kernel")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="residual-check a solution file")
    p.add_argument("problem")
    p.add_argument("solution")
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check", help="verify existence-theorem hypotheses")
    p.add_argument("problem")
    p.add_argument("--theorem", choices=["thm1", "cor", "thm2"], required=True)
    p.add_argument("--r", type=_positive_float, default=10.0)
    p.add_argument("--zhat", type=_positive_float, default=1.0)
    p.add_argument("--R", type=_positive_float, default=1.0)
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
    except ModeLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
