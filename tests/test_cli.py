import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from perdiff import (NotInImageError, Problem, classify, cli, hypotheses, linear,
                     membership_U, reduction)

from conftest import exact_membership, subprocess_env

CANONICAL_G = "tanh(x)+0.1*cos(2*pi*t/3)"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "perdiff", *args],
        capture_output=True, text=True, env=subprocess_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_problem(path, b, c, N, g, seed=None):
    data = {"b": b, "c": c, "N": N, "g": g}
    if seed is not None:
        data["seed"] = seed
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def dim0_file(tmp_path):
    return write_problem(tmp_path / "p0.json", 0, 2, 3, CANONICAL_G)


@pytest.fixture
def dim1_file(tmp_path):
    return write_problem(tmp_path / "p1.json", -3, 2, 3, CANONICAL_G)


@pytest.fixture
def dim2_file(tmp_path):
    return write_problem(tmp_path / "p2.json", 1, 1, 3, CANONICAL_G)


def test_classify_outputs(dim0_file, dim1_file, dim2_file):
    code, out, _ = run_cli("classify", dim2_file)
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2
    assert data["theta"] == pytest.approx(2.0943951023931957)
    assert data["r_int"] == 1
    assert data["in_U"] is True
    assert data["version"] == "0.1.0"
    assert data["input"]["g"] == CANONICAL_G

    assert json.loads(run_cli("classify", dim0_file)[1])["dim"] == 0
    d1 = json.loads(run_cli("classify", dim1_file)[1])
    assert d1["dim"] == 1
    assert d1["kernel_basis"][0][0] == [1.0, 1.0]


def test_solve_all_regimes(dim0_file, dim1_file, dim2_file):
    for path, regime in [(dim0_file, 0), (dim1_file, 1), (dim2_file, 2)]:
        code, out, _ = run_cli("solve", path)
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == regime
        assert len(data["y"]) == 3
        assert data["residual_sup"] <= 1e-9
        assert data["oracle_verified"] is True
    data = json.loads(run_cli("solve", dim2_file, "--radius", "50")[1])
    assert data["winding"] == 1


def test_solve_zero_nonlinearity(tmp_path):
    for b, c in [(0, 2), (-3, 2), (1, 1)]:
        path = write_problem(tmp_path / "z.json", b, c, 3, "0")
        code, out, _ = run_cli("solve", path)
        assert code == 0
        data = json.loads(out)
        assert data["y"] == [0.0, 0.0, 0.0]


def test_solve_failure_exit_code(tmp_path):
    # no periodic solution: the resonant constant forcing has no zero mean
    path = write_problem(tmp_path / "bad.json", -3, 2, 3, "2+tanh(x)")
    code, out, _ = run_cli("solve", path)
    assert code == 3
    data = json.loads(out)
    assert "error" in data


def test_solve_default_radius_outside_the_domain_exit_code(tmp_path):
    path = write_problem(tmp_path / "ln.json", -2.0 * math.cos(2.0 * math.pi / 9), 1, 9,
                         "ln(x+5)+0.1*cos(2*pi*t/9)")
    code, out, _ = run_cli("solve", path)
    assert code == 3
    data = json.loads(out)
    assert "samples g on [-100, 100]" in data["error"] and "(at t=0, x=" in data["error"]
    assert "np.float64" not in data["error"]
    assert data["diagnostics"]["radius"] == 0.0


def test_solve_bracket_end_outside_the_domain_exit_code(tmp_path, capsys):
    # the dim-1 bracket end -r leaves ln(x+5)'s domain: a solver failure
    # naming r, with x printed as a plain number
    path = write_problem(tmp_path / "ln1.json", -3, 2, 9, "ln(x+5)+0.1*cos(2*pi*t/9)")
    code = cli.main(["solve", path])
    out, err = capsys.readouterr()
    assert code == 3, err
    data = json.loads(out)
    assert "r = 10" in data["error"] and "(at t=0, x=-10.0)" in data["error"]
    assert "np.float64" not in data["error"]
    assert data["diagnostics"] == {"r": 10}


def _not_in_image(*args, **kwargs):
    raise NotInImageError(3.3e-9)


def test_solve_operator_build_failure_is_a_solver_error(tmp_path, monkeypatch, capsys):
    # an image-test failure while M_p(I-Q) is assembled: a JSON report with
    # the error, not a traceback
    path = write_problem(tmp_path / "n25.json", -1.5, 0.5, 25,
                         "tanh(x)+0.1*cos(2*pi*t/25)")
    monkeypatch.setattr(reduction, "_mpiq_g1", _not_in_image)
    code = cli.main(["solve", path])
    out, err = capsys.readouterr()
    assert code == 3, err
    data = json.loads(out)
    assert "not in image" in data["error"]
    assert data["diagnostics"]["N"] == 25
    assert data["diagnostics"]["defect"] > 0.0


def test_verify_roundtrip(tmp_path, dim1_file):
    code, out, _ = run_cli("solve", dim1_file)
    y = json.loads(out)["y"]
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"y": y}))
    code, out, _ = run_cli("verify", dim1_file, str(sol))
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["residual_sup"] <= 1e-9

    y_bad = list(y)
    y_bad[0] += 0.1
    sol.write_text(json.dumps({"y": y_bad}))
    code, out, _ = run_cli("verify", dim1_file, str(sol))
    assert code == 3
    data = json.loads(out)
    assert data["passed"] is False and data["residual_sup"] >= 0.05


def test_verify_zero_solution(tmp_path):
    path = write_problem(tmp_path / "p.json", -3, 2, 3, "tanh(x)")
    sol = tmp_path / "zero.json"
    sol.write_text(json.dumps({"y": [0.0, 0.0, 0.0]}))
    code, out, _ = run_cli("verify", path, str(sol))
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "0"])
def test_verify_rejects_invalid_tol(tol, tmp_path, capsys):
    # the zero sequence solves this problem exactly, so only the check of
    # --tol can refuse it
    path = write_problem(tmp_path / "p.json", 0, 2, 3, "0")
    sol = tmp_path / "zero.json"
    sol.write_text(json.dumps({"y": [0.0, 0.0, 0.0]}))
    assert cli.main(["verify", path, str(sol), "--tol", tol]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


@pytest.mark.parametrize("entry", ['"a"', '"0"', "null", "true", "[1]", "{}", "1" + "0" * 400],
                         ids=["text", "numeric-text", "null", "bool", "list", "object", "huge-int"])
def test_verify_rejects_non_numeric_entry(entry, tmp_path, capsys):
    # one message naming the bad index, with the parse-error code
    path = write_problem(tmp_path / "p.json", 0, 2, 3, "0")
    sol = tmp_path / "bad.json"
    sol.write_text('{"y": [0, %s, 0]}' % entry)
    assert cli.main(["verify", path, str(sol)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "y[1]" in captured.err


def test_verify_length_mismatch(tmp_path, dim1_file):
    sol = tmp_path / "short.json"
    sol.write_text(json.dumps({"y": [0.0, 0.0]}))
    code, _, err = run_cli("verify", dim1_file, str(sol))
    assert code == 2
    assert "3" in err


def test_verify_outside_the_domain_of_g_is_a_failed_verify(tmp_path, capsys):
    # g = ln(x+1) is undefined at y(0) = -5: exit 3 with the message in the
    # report, as check and solve do, not a parse error
    path = write_problem(tmp_path / "p.json", 0, 2, 3, "ln(x+1)")
    sol = tmp_path / "y.json"
    sol.write_text(json.dumps({"y": [-5, 0, 0]}))
    code = cli.main(["verify", path, str(sol)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_SOLVER, err
    assert err == ""
    data = json.loads(out)
    assert data["command"] == "verify" and data["input"]["solution"] == [-5, 0, 0]
    assert data["error"] == "cannot evaluate residual: ln of a non-positive value"
    assert "passed" not in data and "residual_sup" not in data


def test_check_exit_codes(tmp_path, dim0_file, dim1_file, dim2_file):
    assert run_cli("check", dim0_file, "--theorem", "thm1")[0] == 0
    assert run_cli("check", dim1_file, "--theorem", "thm1")[0] == 0
    assert run_cli("check", dim2_file, "--theorem", "thm2")[0] == 0
    # failing hypothesis: cubic growth with r too small
    path = write_problem(tmp_path / "fail.json", -3, 2, 3, "x^3")
    code, out, _ = run_cli("check", path, "--theorem", "thm1", "--r", "1", "--zhat", "5")
    assert code == 4
    assert json.loads(out)["overall"] is False
    # corollary on the logfade nonlinearity
    path = write_problem(tmp_path / "cor.json", 1.2, 1, 3, "logfade(x)")
    code, out, _ = run_cli("check", path, "--theorem", "cor", "--R", "5")
    data = json.loads(out)
    c1 = [c for c in data["conditions"] if c["id"] == "C1*"][0]
    assert c1["passed"] is True


def test_check_image_failure_is_a_solver_error(tmp_path, monkeypatch, capsys):
    # the norm bound's unit inputs failing the image test: exit 3 with the
    # defect
    path = write_problem(tmp_path / "n81.json", 0.5, -3, 81,
                         "tanh(x)+0.1*cos(2*pi*t/81)")
    monkeypatch.setattr(hypotheses, "norm_bound_mp_iq", _not_in_image)
    code = cli.main(["check", path, "--theorem", "thm1"])
    out, err = capsys.readouterr()
    assert code == 3, err
    data = json.loads(out)
    assert "not in image" in data["error"]
    assert data["diagnostics"]["N"] == 81
    assert data["diagnostics"]["defect"] > 0.0


@pytest.mark.parametrize("theorem, b, c", [("thm1", 0, 2), ("thm2", 1, 1), ("cor", 0, 2)])
def test_check_outside_the_domain_of_g_is_a_solver_error(theorem, b, c, tmp_path, capsys):
    # ln(x+5) leaves its domain on the sampled grids: exit 3 with the
    # message in the report, as solve does, not a traceback and exit 1
    path = write_problem(tmp_path / "p.json", b, c, 3, "ln(x+5)+0.1")
    code = cli.main(["check", path, "--theorem", theorem])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_SOLVER, err
    assert err == ""
    data = json.loads(out)
    assert data["command"] == "check" and data["input"]["theorem"] == theorem
    assert data["error"] == "ln of a non-positive value"
    assert "diagnostics" not in data and "conditions" not in data


@pytest.mark.parametrize("theorem, b, c, N, message", [
    ("cor", 1.2, 1, 3, "the corollary requires g independent of t"),
    ("thm2", 0, 2, 3, "kernel dimension is not 2; this theorem does not apply"),
    ("thm1", 0, 2, 4, "this check requires an odd period N"),
])
def test_check_a_theorem_that_does_not_apply_exits_4(theorem, b, c, N, message, tmp_path,
                                                      capsys):
    # the problem file parses: a theorem that does not apply to it is a
    # failed check (exit 4, the message in the report), not a parse error
    path = write_problem(tmp_path / "p.json", b, c, N, f"tanh(x)+0.1*cos(2*pi*t/{N})")
    code = cli.main(["check", path, "--theorem", theorem])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_HYPOTHESIS, err
    assert err == ""
    data = json.loads(out)
    assert data["command"] == "check" and data["input"]["theorem"] == theorem
    assert data["error"] == message
    assert "conditions" not in data


def test_the_parser_is_built_once_and_keeps_no_state(dim1_file, capsys):
    assert cli._build_parser() is cli._build_parser()
    # an option given once does not stay for the next call
    assert cli.main(["solve", dim1_file, "--tol", "1e-6"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["input"]["tol"] == 1e-6
    assert cli.main(["solve", dim1_file]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["input"]["tol"] == 1e-9
    # a usage error after a good call still exits 1
    for argv in (["solve", dim1_file, "--tol"], ["nonsense"], []):
        assert cli.main(argv) == cli.EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err
    # check after scan reports as it does on its own
    assert cli.main(["check", dim1_file, "--theorem", "thm1"]) == cli.EXIT_OK
    alone = capsys.readouterr().out
    assert cli.main(["scan", "--b-range=-1:1:3", "--c", "1", "--N-list", "3"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["check", dim1_file, "--theorem", "thm1"]) == cli.EXIT_OK
    assert capsys.readouterr().out == alone


@pytest.mark.parametrize("argv", [["classify"], ["solve"], ["check", "--theorem", "thm1"]])
def test_more_than_two_resonant_modes_exit_3(argv, tmp_path, capsys):
    # one line on stderr and the solver-failure code, no traceback
    path = write_problem(tmp_path / "n.json", -2, 1, 100_001, "tanh(x)")
    code = cli.main([argv[0], path, *argv[1:]])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_SOLVER
    assert out == ""
    assert err.count("\n") == 1 and "3 resonant modes" in err


def test_scan_prints_more_than_two_resonant_modes(capsys):
    # scan builds no kernel and keeps reporting the mode count
    assert cli.main(["scan", "--b-range=-2:-2:1", "--c", "1", "--N-list", "100001"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "3"


@pytest.mark.parametrize("N", [4, 6, 8])
def test_classify_two_real_multipliers(tmp_path, N):
    # b = 0, c = -1: multipliers 1 and -1, a two-dimensional kernel at even
    # N that is not a rotation
    path = write_problem(tmp_path / "pm.json", 0, -1, N, "tanh(x)")
    code, out, err = run_cli("classify", path)
    assert code == 0, err
    data = json.loads(out)
    assert data["dim"] == 2
    assert data["r_int"] is None and data["theta"] is None
    assert data["kernel_basis"][1][:2] == [[1.0, -1.0], [-1.0, 1.0]]


def test_scan_csv(tmp_path):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run_cli("scan", "--b-range", "1:1:1", "--c", "1",
                         "--N-list", "3", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "b,c,N,dim,theta,in_U,r_int,gcd"
    cells = lines[1].split(",")
    assert cells[:4] == ["1", "1", "3", "2"]
    assert cells[5] == "true" and cells[6] == "1" and cells[7] == "1"

    code, out, _ = run_cli("scan", "--b-range", "0:0:1", "--c", "2", "--N-list", "3")
    assert out.strip().split("\n")[1].split(",")[3] == "0"

    code, out, _ = run_cli("scan", "--b-range", "0:1:0", "--c", "1", "--N-list", "3")
    assert code == 0
    assert out == "b,c,N,dim,theta,in_U,r_int,gcd\n"


def _reference_scan(lo, hi, steps, c, n_list):
    # the scan as one classify call per row, in_U from exact convergents
    lines = ["b,c,N,dim,theta,in_U,r_int,gcd"]
    for b in np.linspace(lo, hi, steps):
        theta = math.acos(max(-1.0, min(1.0, -b / 2.0))) if abs(b) <= 2.0 else None
        in_u = exact_membership(float(b))[0] if abs(b) < 2.0 else None
        for N in n_list:
            rc = classify(Problem.from_text(b, c, N, "0"))
            lines.append(",".join([
                cli._fmt_float(b), cli._fmt_float(c), str(N), str(rc.dim),
                "" if theta is None else cli._fmt_float(theta),
                "" if in_u is None else ("true" if in_u else "false"),
                "" if rc.r_int is None else str(rc.r_int),
                "" if rc.r_int is None else str(math.gcd(rc.r_int, N)),
            ]))
    return "\n".join(lines) + "\n"


def _rotation_b(k, N):
    return -2.0 * math.cos(2.0 * math.pi * k / N)


_BENCHMARK_GRID = (-2.0, 2.0, 401, 1.0, [3, 9, 27, 81, 243])
_EDGE_GRID = (-3.0, 3.0, 7, 1.0, [2, 3, 4, 6])  # b exactly +-2 next to |b| > 2
_SCAN_GRIDS = [
    # dims 0, 1 and 2; the Jordan row (-2, 1) and (2, 1) at even N
    (-2.0, 2.0, 41, 1.0, list(range(2, 65)) + [243, 1000, 1024, 1025]),
    (-3.0, 3.0, 61, 2.0, [3, 4, 9, 1025]),        # 1 + b + c = 0 at b = -3
    (-1.0, 1.0, 21, -1.0, [2, 3, 4, 64, 65]),     # the real pair (0, -1) at even N
    (0.0, 0.0, 1, -1.0, [2, 3, 1024, 1025]),
    (-2.5, 2.5, 11, 0.5, [2, 5, 1025]),
] + [
    # b = -2cos(2*pi*k/N) exactly and 1e-10 to either side of it
    (b + d, b + d, 1, 1.0, [2, N, 2 * N, 1025])
    for k, N in [(1, 3), (1, 5), (2, 5), (1, 4), (5, 12), (1, 1024), (7, 1025), (512, 1025)]
    for b in [_rotation_b(k, N)]
    for d in (-1e-10, 0.0, 1e-10)
] + [
    # past N = 99400 the lower bound leaves several modes per b; b = +-2
    # would pass three, which classify refuses
    (-1.99, 1.99, 21, 1.0, [99400, 100001]),
    _BENCHMARK_GRID,  # the perfbench scan
    _EDGE_GRID,
    # b = -0.0; a repeated N; one step
    (-0.0, -0.0, 1, 1.0, [3, 4]),
    (-1.0, 1.0, 5, 1.0, [3, 4, 3, 3]),
    (1.0, 1.0, 1, 1.0, [3, 6, 9]),
]


def _scan_argv(lo, hi, steps, c, n_list):
    return ["scan", f"--b-range={lo!r}:{hi!r}:{steps}", "--c", repr(c),
            "--N-list", ",".join(map(str, n_list))]


@pytest.mark.parametrize("lo, hi, steps, c, n_list", _SCAN_GRIDS)
def test_scan_matches_a_classify_per_row(lo, hi, steps, c, n_list, capsys):
    assert cli.main(_scan_argv(lo, hi, steps, c, n_list)) == cli.EXIT_OK
    assert capsys.readouterr().out == _reference_scan(lo, hi, steps, c, n_list)


@pytest.mark.parametrize("grid", [_BENCHMARK_GRID, _EDGE_GRID])
def test_scan_out_writes_the_bytes_it_prints(grid, tmp_path, capsys):
    argv = _scan_argv(*grid)
    assert cli.main(argv) == cli.EXIT_OK
    printed = capsys.readouterr().out
    out_file = tmp_path / "scan.csv"
    assert cli.main([*argv, "--out", str(out_file)]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    assert out_file.read_bytes() == printed.encode("utf-8")


def test_scan_formats_each_b_and_theta_once(monkeypatch, capsys):
    # b, c and theta are formatted once per b, not once per (b, N) line
    calls = []
    fmt = cli._fmt_float
    monkeypatch.setattr(cli, "_fmt_float", lambda v: calls.append(v) or fmt(v))
    assert cli.main(_scan_argv(*_BENCHMARK_GRID)) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 401 * 5
    assert len(calls) <= 2 * 401 + 1


def test_scan_in_u_equals_membership_u_row_by_row(capsys):
    # the scan's in_U column and membership_U read the same angles
    assert cli.main(_scan_argv(*_BENCHMARK_GRID)) == cli.EXIT_OK
    for line in capsys.readouterr().out.splitlines()[1:]:
        b, in_u = float(line.split(",")[0]), line.split(",")[5]
        want = "" if abs(b) >= 2.0 else "true" if membership_U(b)[0] else "false"
        assert in_u == want, line


def test_scan_memory_does_not_grow_with_the_b_column(capsys):
    # at N = 65536 a (steps, N/2 + 1) complex symbol would take 210 MB;
    # chunking holds a few complex arrays of _CHUNK_ENTRIES entries, and
    # columns are joined only while their roots and (b, N) pairs number at
    # most _CHUNK_ENTRIES, so more columns take no more
    for n_list in ("65536", "65536,65537,65536,65537"):
        tracemalloc.start()
        try:
            code = cli.main(["scan", "--b-range=-2:2:401", "--c", "1", "--N-list", n_list])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 401 * len(n_list.split(","))
        assert peak < 8 * 16 * linear._CHUNK_ENTRIES, n_list


def test_scan_memory_stays_chunked_when_every_mode_is_tested(capsys):
    # at c = -1 the lower bound |(1 + c) Re w_k + b| is |b|, so near b = 0
    # no mode is left out: each b gathers all N/2 + 1 modes, in chunks
    tracemalloc.start()
    try:
        code = cli.main(["scan", "--b-range=-1e-10:1e-10:401", "--c", "-1", "--N-list", "65536"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    dims = [line.split(",")[3] for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(dims) == 401 and set(dims) == {"2"}  # the multipliers 1 and -1
    assert peak < 8 * 16 * linear._CHUNK_ENTRIES


@pytest.mark.parametrize("b, c, N, dim", [(1e308, 1.7e308, 3, 0), (9e307, 9e307, 3, 0),
                                          (1e308, 1e308, 4, 1), (-1.7e308, 1.7e308, 3, 1)])
def test_scan_near_the_double_range_counts_by_a_finite_cutoff(b, c, N, dim, capsys):
    # 1 + |b| + |c| overflows; an infinite cutoff passed every mode. The
    # multipliers 1 (1 + b + c = 1) and -1 (1 - b + c = 1) are relative zeros
    assert cli.main(["scan", f"--b-range={b!r}:{b!r}:1", "--c", repr(c),
                     "--N-list", str(N)]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split(",")[3] == str(dim)
    assert err == ""


@pytest.mark.parametrize("command", ["classify", "solve"])
@pytest.mark.parametrize("b, c, N", [(1e308, 1.7e308, 3), (1e308, 1e308, 4),
                                     (-1.7e308, 1.7e308, 3), (-1e300, 1e300, 5)])
def test_linear_data_that_overflows_exits_3(command, b, c, N, tmp_path, capsys):
    # one line naming the overflow, in place of a RuntimeWarning
    path = write_problem(tmp_path / "big.json", b, c, N, "tanh(x)")
    code = cli.main([command, path])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_SOLVER
    assert out == ""
    assert err.count("\n") == 1 and "leaves the double range: overflow" in err


# a period or grid of 1e15: its arrays take petabytes, beyond any address
# space, so numpy refuses them before anything is allocated. Past 2**63
# bytes no numpy array can exist at all: numpy would raise a ValueError or
# an IndexError, so the size is refused by name
_HUGE = "1000000000000000"
_BEYOND = "99999999999999999999"


@pytest.mark.parametrize("argv", [["classify", "big"], ["solve", "big"],
                                  ["scan", "--b-range=-2:2:3", "--c", "1", "--N-list", _HUGE],
                                  ["check", "small", "--theorem", "thm1", "--grid", _HUGE],
                                  ["classify", "beyond"], ["solve", "beyond"],
                                  ["scan", "--b-range=-2:2:3", "--c", "1", "--N-list", _BEYOND],
                                  ["check", "small", "--theorem", "thm1", "--grid", _BEYOND],
                                  ["check", "small", "--theorem", "thm1", "--grid", str(2**63 - 1)],
                                  ["check", "small", "--theorem", "cor", "--grid", _BEYOND],
                                  ["solve", "rotation", "--grid", _BEYOND]])
def test_a_period_or_grid_too_large_to_allocate_exits_3(argv, tmp_path, capsys):
    # one line naming the allocation or the size, in place of a numpy
    # traceback with exit 1 or numpy's bare text with exit 2; solve refuses
    # its seed grid before any work, the winding sweep of its dim-2 problem too
    files = {"big": write_problem(tmp_path / "big.json", 0, 2, int(_HUGE), "tanh(x)"),
             "beyond": write_problem(tmp_path / "beyond.json", 0, 2, int(_BEYOND), "tanh(x)"),
             "small": write_problem(tmp_path / "small.json", 0, 2, 3, "tanh(x)"),
             "rotation": write_problem(tmp_path / "rotation.json", 1, 1, 3, CANONICAL_G)}
    code = cli.main([files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_SOLVER
    assert out == ""
    size = {"big": _HUGE, "beyond": _BEYOND}.get(argv[-1], argv[-1])
    if size == _HUGE:
        assert err.count("\n") == 1 and err.startswith("error: Unable to allocate")
    else:
        name = "grid" if "--grid" in argv else "N"
        assert err.count("\n") == 1 and err.startswith(f"error: {name} = {size} is too large")


def test_verify_of_a_y_whose_residual_overflows_fails_without_a_warning(tmp_path):
    # the residual at y = 1e308 overflows: it is inf, and fails the check
    path = write_problem(tmp_path / "p.json", 0, 2, 3, "tanh(x)")
    sol = tmp_path / "y.json"
    sol.write_text(json.dumps({"y": [1e308, 1e308, 1e308]}))
    code, out, err = run_cli("verify", path, str(sol))
    assert code == cli.EXIT_SOLVER
    assert err == ""
    data = json.loads(out)
    assert data["passed"] is False and data["residual_sup"] == "inf"


def test_classify_near_the_double_range_counts_by_a_finite_cutoff(tmp_path, capsys):
    path = write_problem(tmp_path / "big.json", 9e307, 9e307, 3, "tanh(x)")
    assert cli.main(["classify", path]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["dim"] == 0


def test_parse_error_exits(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("classify", str(bad))[0] == 2
    assert run_cli("classify", str(tmp_path / "missing.json"))[0] == 2
    bad.write_text(json.dumps({"b": 1, "c": 1, "N": 3, "g": "foo(x)"}))
    assert run_cli("classify", str(bad))[0] == 2
    bad.write_text(json.dumps({"b": 1, "c": 0, "N": 3, "g": "x"}))
    assert run_cli("classify", str(bad))[0] == 2
    # a non-integral period is refused, not truncated to 3
    bad.write_text(json.dumps({"b": 1, "c": 1, "N": 3.5, "g": "x"}))
    code, _, err = run_cli("classify", str(bad))
    assert code == 2 and "integer" in err
    # a bool, a string or any other non-number is refused, not converted
    for key, value in [("b", True), ("b", "1"), ("c", "2"), ("c", None), ("N", "3"),
                       ("N", False), ("N", [3]), ("g", 0), ("g", None)]:
        bad.write_text(json.dumps({"b": 1, "c": 2, "N": 3, "g": "0", key: value}))
        assert cli.main(["classify", str(bad)]) == cli.EXIT_PARSE, (key, value)
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and f"{key} must be" in err, (key, value)


def test_problem_file_seed_is_ignored(tmp_path, capsys):
    # an old problem file with a seed loads; reports echo no seed, and the
    # subcommands take no --seed
    path = write_problem(tmp_path / "p.json", 0, 2, 3, CANONICAL_G, seed=42)
    assert cli.main(["classify", path]) == cli.EXIT_OK
    assert "seed" not in json.loads(capsys.readouterr().out)["input"]
    for argv in (["solve", path], ["check", path, "--theorem", "thm1"]):
        assert cli.main([*argv, "--seed", "1"]) == cli.EXIT_USAGE
        assert "--seed" in capsys.readouterr().err


def test_usage_error_exits():
    assert run_cli("scan", "--b-range", "oops", "--c", "1", "--N-list", "3")[0] == 1


@pytest.mark.parametrize("argv", [
    ["--b-range=-1:1:3", "--c", "1", "--N-list", "1,3"],
    ["--b-range=-1:1:3", "--c", "nan", "--N-list", "3"],
    ["--b-range=-inf:1:3", "--c", "1", "--N-list", "3"],
    ["--b-range=-1e308:1e308:3", "--c", "1", "--N-list", "3"],  # linspace overflows
])
def test_scan_rejects_invalid_values(argv, capsys):
    assert cli.main(["scan", *argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()


@pytest.mark.parametrize("argv", [
    ["--tol", "-1"],
    ["--tol", "nan"],
    ["--tol", "inf"],
    ["--r", "-1"],
    ["--r", "nan"],
    ["--radius", "inf"],
    ["--grid", "0"],
])
def test_solve_rejects_invalid_options(argv, dim1_file, dim2_file, capsys):
    # every option is checked, whichever regime would read it
    for path in (dim1_file, dim2_file):
        assert cli.main(["solve", path, *argv]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert argv[0] in captured.err


@pytest.mark.parametrize("theorem,argv", [
    ("thm1", ["--r", "nan"]),
    ("thm1", ["--r", "0"]),
    ("thm1", ["--zhat", "nan"]),
    ("thm1", ["--zhat", "inf"]),
    ("cor", ["--R", "nan"]),
    ("thm1", ["--grid", "1"]),
    ("thm1", ["--grid", "0"]),
    ("thm2", ["--grid", "1"]),
    # finite and positive, but 4r, 4R or 200 * zhat overflows
    ("thm1", ["--r", "1e308"]),
    ("cor", ["--R", "1e308"]),
    ("thm2", ["--zhat", "1e308"]),
])
def test_check_rejects_invalid_options(theorem, argv, tmp_path, capsys):
    # a usage error, not a traceback, a parse error or a pass from one sample
    b, c = (1, 1) if theorem == "thm2" else (-3, 2)
    path = write_problem(tmp_path / "p.json", b, c, 3, "tanh(x)")
    assert cli.main(["check", path, "--theorem", theorem, *argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[0] in captured.err


def test_check_refuses_an_R_whose_sampled_range_overflows(tmp_path, capsys):
    # 4R overflows: every x sampled beyond R was inf, and C2* passed on them
    path = write_problem(tmp_path / "p.json", -1.2, 1, 5, "tanh(x)")
    assert cli.main(["check", path, "--theorem", "cor", "--R", "1e308"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("--R is too large: its sampled range [1e+308, inf]")


def test_float_serialization_17_digits(dim1_file):
    _, out, _ = run_cli("solve", dim1_file)
    data = json.loads(out)
    # parsing the printed text and re-reading gives the same doubles
    y = np.array(data["y"])
    again = np.array(json.loads(out)["y"])
    np.testing.assert_array_equal(y, again)
    assert "e-" in out or "." in out
