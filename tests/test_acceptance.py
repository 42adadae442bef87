"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from perdiff import (
    BifurcationMap,
    apply_F,
    apply_L,
    bifurcation_value,
    build_linear_data,
    check_corollary,
    check_thm1,
    check_thm2,
    companion_matrix,
    image_test,
    membership_U,
    mp_solve,
    multistart_search,
    norm_bound_mp_iq,
    proj_P,
    proj_Q,
    solve,
    sup_norm,
    winding_of_map,
)
from perdiff.hypotheses import RATIONAL_ANGLE_TOL

from conftest import CANONICAL_G, instance_grid, make_problem, subprocess_env


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n:02d} [{desc}]: FAIL")
        raise
    print(f"criterion {n:02d} [{desc}]: PASS")


def test_criterion_01_projection_suite():
    start = time.monotonic()
    with criterion(1, "projection suite"):
        rng = np.random.default_rng(100)
        grid = instance_grid()
        assert len(grid) >= 100
        dims_seen = set()
        for b, c, N in grid:
            ld = build_linear_data(make_problem(b, c, N, "0"))
            dims_seen.add(ld.resonance.dim)
            X = rng.standard_normal((100, N, 2))
            scale = 1.0 + np.max(np.linalg.norm(X, axis=2))
            PX = proj_P(ld, X)
            assert np.max(np.abs(proj_P(ld, PX) - PX)) <= 1e-10 * scale
            QX = proj_Q(ld, X)
            assert np.max(np.abs(proj_Q(ld, QX) - QX)) <= 1e-10 * scale
            assert np.max(np.abs(proj_Q(ld, apply_L(ld, X)))) <= 1e-10 * scale
            for z in ld.resonance.kernel_basis:
                assert sup_norm(apply_L(ld, z)) <= 1e-10 * (1.0 + sup_norm(z))
        assert dims_seen == {0, 1, 2}
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"projection suite took {elapsed:.1f}s"


def test_criterion_02_image_kernel_duality():
    with criterion(2, "image/kernel duality"):
        rng = np.random.default_rng(200)
        grid = instance_grid()
        mismatches = 0
        checked_random = 0
        checked_images = 0
        for idx, (b, c, N) in enumerate(grid):
            ld = build_linear_data(make_problem(b, c, N, "0"))
            hs = [rng.standard_normal((N, 2)) for _ in range(10)]
            checked_random += len(hs)
            if idx < 100:
                hs.append(apply_L(ld, rng.standard_normal((N, 2))))
                checked_images += 1
            for h in hs:
                tol = 1e-8 * (1.0 + sup_norm(h))
                defect = image_test(ld, h)
                in_image = defect.size == 0 or np.max(np.abs(defect)) <= tol
                q_zero = sup_norm(proj_Q(ld, h)) <= tol
                if in_image != q_zero:
                    mismatches += 1
        assert checked_random >= 1000 and checked_images >= 100
        assert mismatches == 0

        for b in np.linspace(-3, 3, 20):
            for c in np.linspace(-2, 2, 20):
                if c == 0.0:
                    continue
                for N in (3, 5, 7, 9, 11):
                    ld = build_linear_data(make_problem(float(b), float(c), N, "0"))
                    # independent rule: rank of I - A^N with a relative cutoff
                    M = np.eye(2) - np.linalg.matrix_power(
                        companion_matrix(float(b), float(c)), N)
                    smax = np.linalg.svd(M, compute_uv=False)[0]
                    rank = np.linalg.matrix_rank(M, tol=1e-9 * max(1.0, smax))
                    if ld.resonance.dim != 2 - rank:
                        mismatches += 1
        assert mismatches == 0


def test_criterion_03_partial_inverse_contract():
    with criterion(3, "partial inverse contract"):
        rng = np.random.default_rng(300)
        grid = instance_grid()
        samples = 0
        while samples < 500:
            b, c, N = grid[samples % len(grid)]
            ld = build_linear_data(make_problem(b, c, N, "0"))
            h = rng.standard_normal((N, 2))
            h = apply_L(ld, h) if samples % 2 else h - proj_Q(ld, h)
            x = mp_solve(ld, h)
            assert sup_norm(apply_L(ld, x) - h) <= 1e-9 * (1.0 + sup_norm(h))
            assert sup_norm(proj_P(ld, x)) <= 1e-9
            samples += 1


_NONLINEAR_INSTANCES = [
    (0, 2, 3, CANONICAL_G),
    (0, 2, 3, "0.5*tanh(x)+0.2*cos(2*pi*t/3)"),
    (1, -3, 5, "0.3*atan(x)+0.1*sin(2*pi*t/5)"),
    (0.5, -1.5, 3, "0.4*sin(x)+0.2*cos(2*pi*t/3)"),
    (-3, 2, 3, CANONICAL_G),
    (-2, 1, 3, CANONICAL_G),
    (0, -1, 5, "tanh(x)+0.1*cos(2*pi*t/5)"),
    (1, -2, 7, "tanh(x)+0.05*cos(2*pi*t/7)"),
    (1, 1, 3, CANONICAL_G),
    (-2 * math.cos(2 * math.pi / 5), 1, 5, "tanh(x)+0.1*cos(2*pi*t/5)"),
    (-2 * math.cos(4 * math.pi / 5), 1, 5, "tanh(x)+0.05*sin(2*pi*t/5)"),
    (-2 * math.cos(2 * math.pi / 7), 1, 7, "tanh(x)+0.1*cos(2*pi*t/7)"),
]


def test_criterion_04_reduction_equivalence():
    with criterion(4, "reduction equivalence"):
        assert len(_NONLINEAR_INSTANCES) >= 10
        tol = 1e-9
        for b, c, N, g in _NONLINEAR_INSTANCES:
            p = make_problem(b, c, N, g)
            ld = build_linear_data(p)
            rep = solve(p, tol=tol, r=10.0, radius=50.0, grid=9)
            assert rep.regime == ld.resonance.dim
            x = rep.solution
            Fx = apply_F(p, x)
            # solver output satisfies both reduced equations ...
            assert sup_norm(x - proj_P(ld, x) - mp_solve(ld, Fx - proj_Q(ld, Fx))) <= 10 * tol
            assert sup_norm(proj_Q(ld, Fx)) <= 10 * tol
            # ... and the scalar recurrence
            assert rep.residual_sup <= 10 * tol
            # conversely, oracle solutions satisfy the reduced system
            for y in multistart_search(p, 12, 5.0, seed=0):
                xo = np.stack([y, np.roll(y, -1)], axis=1)
                Fo = apply_F(p, xo)
                assert sup_norm(xo - proj_P(ld, xo) - mp_solve(ld, Fo - proj_Q(ld, Fo))) <= 1e-8
                assert sup_norm(proj_Q(ld, Fo)) <= 1e-8


def test_criterion_05_oracle_equivalence_and_checkers():
    start = time.monotonic()
    with criterion(5, "oracle equivalence on canonical instances"):
        cases = [
            (0, 2, 3, {}),
            (-3, 2, 3, {"r": 10.0}),
            (1, 1, 3, {"radius": 50.0}),
        ]
        for regime, (b, c, N, kwargs) in enumerate(cases):
            p = make_problem(b, c, N, CANONICAL_G)
            rep = solve(p, **kwargs)
            assert rep.regime == regime
            sols = multistart_search(p, 16, 5.0, seed=0)
            assert sols, "oracle found no solution"
            assert min(np.max(np.abs(rep.y - s)) for s in sols) <= 1e-8
            dim = build_linear_data(p).resonance.dim
            if dim < 2:
                assert check_thm1(p, r=10.0, zhat=1.0).overall
            else:
                assert check_thm2(p, zhat=1.0).overall
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"canonical suite took {elapsed:.1f}s"


def test_criterion_06_degree_evidence():
    with criterion(6, "degree evidence"):
        p2 = make_problem(1, 1, 3, CANONICAL_G)
        bm2 = BifurcationMap(p2, build_linear_data(p2))
        beta2 = lambda a: bifurcation_value(bm2, a)
        assert winding_of_map(beta2, 50.0, 8) == 1
        assert winding_of_map(beta2, 50.0, 16) == 1
        assert winding_of_map(beta2, 50.0, 32) == 1

        p1 = make_problem(-3, 2, 3, CANONICAL_G)
        bm1 = BifurcationMap(p1, build_linear_data(p1))
        assert bifurcation_value(bm1, [10.0])[0] > 0.0
        assert bifurcation_value(bm1, [-10.0])[0] < 0.0


def test_criterion_07_resonant_angle_membership():
    with criterion(7, "resonant-angle membership"):
        assert membership_U(1.0) == (True, (1, 3))
        assert membership_U(0.0) == (True, (1, 4))
        assert membership_U(-1.0) == (True, (1, 6))
        assert membership_U(1.2, max_denominator=10**6) == (False, None)
        # independent cross-check via exact convergents of the double value
        for b in (1.0, 0.0, -1.0, 1.2):
            x = Fraction(math.acos(-b / 2.0) / (2.0 * math.pi))
            num, den = x.numerator, x.denominator
            convergents = []
            h0, k0, h1, k1 = 1, 0, num // den, 1
            a, r = divmod(num, den)
            convergents.append((h1, k1))
            num, den = den, r
            while den and k1 <= 10**6:
                a, r = divmod(num, den)
                h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
                convergents.append((h1, k1))
                num, den = den, r
            hits = [
                (p, q) for p, q in convergents
                if q <= 10**6 and abs(float(x) - p / q) <= RATIONAL_ANGLE_TOL
                and 0 <= 2 * p < q
            ]
            expected = (len(hits) > 0, hits[0] if hits else None)
            assert membership_U(b) == expected


def test_criterion_08_norm_bound_soundness():
    with criterion(8, "norm bound soundness"):
        # |B^T u| >= smax(B) |u . v| with v the top left singular vector, and
        # |u . v| averages at least 0.60 over the four directions u, so the
        # attained lower bound is within a factor 1/0.60 < 2 of the upper
        for b, c, N in instance_grid() + [(0, 2, 3), (-3, 2, 3), (1, 1, 3)]:
            lower, upper = norm_bound_mp_iq(build_linear_data(make_problem(b, c, N, "0")))
            assert lower <= upper * (1.0 + 1e-12), (b, c, N)
            assert upper <= 2.0 * lower, (b, c, N)


def test_criterion_09_slow_growth_reproduction():
    with criterion(9, "slow-growth condition reproduction"):
        schedule = [10.0**k for k in range(1, 7)]
        p = make_problem(1.2, 1, 3, "logfade(x)")
        rep = check_corollary(p, R=5.0, r_schedule=schedule)
        c1 = rep.condition("C1*")
        assert c1.passed
        ratios = c1.quantities["ratios"]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        px = make_problem(1.2, 1, 3, "x")
        assert not check_corollary(px, R=1.0, r_schedule=schedule).condition("C1*").passed


def _run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "perdiff", *args],
                          capture_output=True, text=True, env=subprocess_env())
    return proc.returncode, proc.stdout


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical reruns"):
        probs = {}
        for name, (b, c, N) in {"p0": (0, 2, 3), "p1": (-3, 2, 3), "p2": (1, 1, 3)}.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"b": b, "c": c, "N": N, "g": CANONICAL_G, "seed": 42}))
            probs[name] = str(path)
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"y": [0.0125, -0.025, 0.0125]}))
        scan_out_a = tmp_path / "scan_a.csv"
        scan_out_b = tmp_path / "scan_b.csv"

        commands = [
            ("classify", probs["p1"]),
            ("classify", probs["p2"]),
            ("solve", probs["p0"]),
            ("solve", probs["p1"]),
            ("solve", probs["p2"], "--radius", "50"),
            ("verify", probs["p1"], str(sol), "--tol", "1"),
            ("check", probs["p1"], "--theorem", "thm1"),
            ("check", probs["p2"], "--theorem", "thm2"),
            ("scan", "--b-range=-1:1:5", "--c", "1", "--N-list", "3,5"),
        ]
        for cmd in commands:
            code_a, out_a = _run_cli(*cmd)
            code_b, out_b = _run_cli(*cmd)
            assert code_a == 0, f"{cmd} exited {code_a}"
            assert code_a == code_b
            assert out_a == out_b, f"output differs across reruns for {cmd}"

        for path in (scan_out_a, scan_out_b):
            code, _ = _run_cli("scan", "--b-range=-1:1:5", "--c", "1",
                               "--N-list", "3,5", "--out", str(path))
            assert code == 0
        assert scan_out_a.read_bytes() == scan_out_b.read_bytes()
