"""Workloads of the perdiff benchmark: fixed problem rows, seeded forcing
draws, the operations a pass runs, and the benchmark's own output checks.

Every row (b, c, N) is fixed per workload. Its forcing is drawn from the
workload seed as g = s(x) + A*cos(2*pi*t/N + phi) with s one of three odd
saturating shapes, A in [0.05, 0.2] and phi in [0, 2*pi). Input set k
draws a forcing for every row from the stream (workload, seed, k), so one
seed always yields the same input sets. The program only ever sees the
generated text.

Rows that the program fails on today stay in the workloads, marked as
known defects (``DEFECTS``): they keep their place in the draw order and
are run in every run, with their outcome recorded (exception class and
message), never dropped or re-drawn. They are not among the timed
operations, whose figures and failure count must not depend on how many
passes fit in a run; see ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass

import numpy as np

import perdiff
from perdiff import cli, hypotheses, reduction

SHAPES = {
    "tanh(x)": np.tanh,
    "atan(x)": np.arctan,
    "x/(1+abs(x))": lambda x: x / (1.0 + np.abs(x)),
}

WHY = {
    "resonant": "dim-1/dim-2 rows: bifurcation map, aux Picard and mp_solve are ~all the time, so reduction speed-ups (warm starts, Anderson, Brent, Broyden) show",
    "large-n": "dim-0 rows at N up to 243: no bifurcation map; mp_solve and the oracle dominate, so a Fourier linear core shows",
    "checks-scan": "hypothesis checks, scan and CLI: build_linear_data and O(N^2) norm blocks up to N=243, no reduction or oracle, so linear build/bound changes show",
}

# residual bound of the benchmark's own solution check; the program's oracle
# accepts 1e-9 on the same quantity, so a miss here is a wrong answer
RESIDUAL_TOL = 1e-8

SCAN_B_RANGE = (-2.0, 2.0, 401)
SCAN_C = 1.0
SCAN_NS = (3, 9, 27, 81, 243)
SCAN_HEADER = "b,c,N,dim,theta,in_U,r_int,gcd"


def rotation_row(N: int) -> tuple:
    """Coefficients whose kernel is the two-dimensional rotation by 2*pi/N."""
    return (-2.0 * math.cos(2.0 * math.pi / N), 1.0, N)


DIM0_ROWS = [(0.0, 2.0, N) for N in (27, 81, 243)] + [(0.5, -3.0, N) for N in (27, 81, 243)]
ROWS = {
    "resonant": [(-3.0, 2.0, N) for N in (3, 9, 13, 17)]
    + [(-1.5, 0.5, N) for N in (5, 13, 21, 25)]
    + [rotation_row(N) for N in (5, 15, 33)],
    "large-n": DIM0_ROWS,
    "checks-scan": DIM0_ROWS + [rotation_row(N) for N in (27, 81, 243)],
}
# (workload, kind, row) on which the program fails today, on every draw or
# on some: N=13 of (-3, 2) raises ConvergenceError on about one draw in
# seven, (0.5, -3, 27) raises SolverError on two draws in three
DEFECTS = {
    ("resonant", "solve", (-3.0, 2.0, 13)),
    ("resonant", "solve", (-3.0, 2.0, 17)),
    ("resonant", "solve", (-1.5, 0.5, 25)),
    ("checks-scan", "thm1", (0.5, -3.0, 81)),
    ("checks-scan", "thm1", (0.5, -3.0, 243)),
    *(("large-n", "solve", row) for row in DIM0_ROWS[1:]),
}


@dataclass(frozen=True)
class Forcing:
    shape: str
    A: float
    phi: float

    def text(self, N: int) -> str:
        return f"{self.shape}+{self.A!r}*cos(2*pi*t/{N}+{self.phi!r})"

    def __call__(self, t: np.ndarray, x: np.ndarray, N: int) -> np.ndarray:
        return SHAPES[self.shape](x) + self.A * np.cos(2.0 * np.pi * t / N + self.phi)


@dataclass
class Op:
    """One operation of a pass: what the program is asked, and its input."""

    kind: str                 # solve | thm1 | thm2 | cor | scan
    label: str
    text: str                 # the generated input, as the program receives it
    problem: perdiff.Problem | None = None
    forcing: Forcing | None = None
    known_defect: bool = False

    def record(self) -> dict:
        return {"kind": self.kind, "label": self.label, "input": self.text,
                "known_defect": self.known_defect}


def _label(b: float, c: float, N: int) -> str:
    return f"b={b:.6g},c={c:.6g},N={N}"


def _draw(rng: random.Random) -> Forcing:
    return Forcing(rng.choice(list(SHAPES)), rng.uniform(0.05, 0.2),
                   rng.uniform(0.0, 2.0 * math.pi))


def _problem_op(workload: str, kind: str, row: tuple, forcing: Forcing, g_text: str) -> Op:
    b, c, N = row
    return Op(kind, _label(b, c, N), g_text,
              perdiff.Problem.from_text(b, c, N, g_text), forcing,
              (workload, kind, row) in DEFECTS)


def build_pass(workload: str, seed: int, k: int) -> list[Op]:
    """Generate and parse the operations of input set k (the same for the same seed and k).

    Known-defect operations are included, marked ``known_defect``.
    """
    if workload not in ROWS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perfbench:{workload}:{seed}:{k}")
    forcings = [_draw(rng) for _ in ROWS[workload]]
    if workload != "checks-scan":
        return [_problem_op(workload, "solve", row, f, f.text(row[2]))
                for row, f in zip(ROWS[workload], forcings)]
    ops = []
    for row, f in zip(ROWS[workload], forcings):
        kind = "thm1" if row in DIM0_ROWS else "thm2"
        ops.append(_problem_op(workload, kind, row, f, f.text(row[2])))
    for row, f in zip(ROWS[workload], forcings):
        if row not in DIM0_ROWS:
            ops.append(_problem_op(workload, "cor", row, f, f.shape))
    lo, hi, steps = SCAN_B_RANGE
    args = ["scan", f"--b-range={lo:g}:{hi:g}:{steps}", "--c", f"{SCAN_C:g}",
            "--N-list", ",".join(str(N) for N in SCAN_NS)]
    ops.append(Op("scan", "scan", " ".join(args)))
    return ops


# -- running one operation ---------------------------------------------------


def run(op: Op):
    """Ask the program for one operation's output; exceptions propagate."""
    if op.kind == "solve":
        return reduction.solve(op.problem)
    if op.kind == "thm1":
        return hypotheses.check_thm1(op.problem, r=10.0, zhat=1.0)
    if op.kind == "thm2":
        return hypotheses.check_thm2(op.problem, zhat=1.0)
    if op.kind == "cor":
        return hypotheses.check_corollary(op.problem, R=1.0)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.text.split())
    return code, buf.getvalue()


# -- the benchmark's own output checks ----------------------------------------


def check(op: Op, out) -> tuple[str, str]:
    """Status of a returned output: ("ok" | "unverified" | "wrong", note).

    "unverified" is the program's own admission (oracle_verified=False);
    "wrong" is an output the program accepted but this check rejects.
    """
    if op.kind == "solve":
        return _check_solve(op, out)
    if op.kind == "scan":
        return _check_scan(out)
    again = run(op)
    if repr(again.as_dict()) != repr(out.as_dict()):
        return "wrong", "check report did not reproduce on a second call"
    return "ok", ""


def _check_solve(op: Op, report) -> tuple[str, str]:
    p = op.problem
    y = np.asarray(report.y, dtype=float)
    if y.shape != (p.N,) or not np.all(np.isfinite(y)):
        return "wrong", f"y has shape {y.shape} or non-finite entries"
    t = np.arange(p.N)
    res = np.roll(y, -2) + p.b * np.roll(y, -1) + p.c * y - op.forcing(t, y, p.N)
    worst = float(np.max(np.abs(res)))
    if not report.oracle_verified:
        return "unverified", f"oracle_verified=False, residual {worst:.3e}"
    if worst > RESIDUAL_TOL:
        return "wrong", f"recurrence residual {worst:.3e} > {RESIDUAL_TOL:g}"
    return "ok", ""


def _check_scan(out) -> tuple[str, str]:
    code, text = out
    if code != 0:
        return "wrong", f"scan exited with {code}"
    lines = text.splitlines()
    lo, hi, steps = SCAN_B_RANGE
    want = [(b, N) for b in np.linspace(lo, hi, steps) for N in SCAN_NS]
    if not lines or lines[0] != SCAN_HEADER or len(lines) - 1 != len(want):
        return "wrong", f"scan printed {len(lines) - 1} rows, expected {len(want)}"
    for line, (b, N) in zip(lines[1:], want):
        cells = line.split(",")
        if (len(cells) != 8 or float(cells[0]) != b or float(cells[1]) != SCAN_C
                or int(cells[2]) != N or cells[3] not in ("0", "1", "2")):
            return "wrong", f"unexpected scan row {line!r}"
    return "ok", ""
