"""perdiff benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload resonant --seed 0 --seconds 50 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``. The run sets up (import, input generation and
parsing), then runs whole passes over the workload's timed operations,
drawing fresh inputs for each pass, until another pass would not fit in
``--seconds``. Every output goes through the benchmark's own check.
End-to-end times are reported at a reference host speed (see REF_S).
Fresh interpreters for the set-up and CLI cold-start samples run between
operations, spread evenly over the run. The known-defect operations of
the workload (see workloads.DEFECTS) run once, on the inputs of pass 0,
after the timed loop; their outcomes are printed and recorded, but they
are not counted in ``attempted`` or ``failed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` instead
alternates an untraced and a traced pass over the same inputs (pass 0,
known-defect operations included) and reports per-layer metrics from the
traced passes: exact counts from the first, times as the median over all
of them, and the tracing overhead as traced minus untraced time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record (host, inputs,
every operation with its status) and the spans of a traced run go to
``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one caller and no helper threads: BLAS pools would compete for the cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
# Fresh interpreters for the set-up and CLI cold-start samples: PROBES of
# each, due at even intervals of the run (host speed drifts by a third over
# seconds to tens of seconds, so the samples must span the run), and at
# least PROBES_MIN when the run is too short for them.
PROBES = 12
PROBES_MIN = 5
CHILD_TIMEOUT_S = 120
# Host speed. On a shared 2-vCPU host the CPU speed was seen to switch
# between levels up to half apart, for seconds to many minutes: the same
# fresh-interpreter start took 0.13 s in one run and 0.24 s a few minutes
# later, and raw run figures of the same code spread by a third between
# runs. So a fixed slice of reference work, which uses no perdiff code, is
# timed before the run and after every timed operation and probe; each
# timed interval is scaled by REF_S over the mean of the reference times on
# either side of it. End-to-end times are thus seconds at the host speed at
# which the reference slice takes REF_S; the raw times stay in the record.
REF_S = 0.010
_REF_X = [0.001 * i for i in range(-16, 17)]

END_TO_END_UNITS = {
    "verified_per_s": "1/s",
    "cli_cold_start_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def setup(workload: str, seed: int):
    """Import the package, generate and parse input set 0; (import_s, setup_s, ops)."""
    t0 = time.perf_counter()
    import perdiff
    import perdiff.cli  # noqa: F401  (the only layer the package does not import)
    t1 = time.perf_counter()
    import workloads
    ops = workloads.build_pass(workload, seed, 0)
    t2 = time.perf_counter()
    if not Path(perdiff.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perdiff was imported from {perdiff.__file__}, not from {SRC}")
    return t1 - t0, t2 - t0, ops


def reference() -> float:
    """Time of one fixed slice of reference work, in seconds.

    Work of the kind the program does: a Python-level loop over floats and
    updates of a small numpy vector.
    """
    import numpy as np

    x = np.array(_REF_X)
    m = np.outer(x, x[::-1])
    t0 = time.perf_counter()
    s = 0.0
    for i in range(30000):
        s += math.sin(i * 0.001) * i
    y = x
    for _ in range(600):
        y = np.tanh(m @ y + x) + 0.5 * np.cos(y)
    return time.perf_counter() - t0


class HostSpeed:
    """Scale factors for timed intervals, from reference slices around them."""

    def __init__(self):
        reference()  # warm-up: the first slice runs slower
        self.last = reference()

    def factor(self) -> float:
        """REF_S over the mean reference time around the interval just ended."""
        now = reference()
        f = 2.0 * REF_S / (self.last + now)
        self.last = now
        return f


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probe(workload: str, seed: int) -> dict:
    """Set-up times of a fresh interpreter doing what this process did first."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(ops, speed: HostSpeed, tracer=None, between=None) -> list[dict]:
    """Run each operation once, timed, then check its output untimed.

    ``between`` is called after each operation, outside its timing.
    """
    import perdiff
    import spans
    import workloads

    records = []
    for op in ops:
        rec = op.record()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workloads.run(op)
            else:
                with spans.installed(tracer), tracer.operation(f"bench.{op.kind}"):
                    out = workloads.run(op)
        except Exception as exc:  # a failing operation is recorded, never dropped
            rec["wall_s"] = time.perf_counter() - t0
            rec.update(status="error", error=type(exc).__name__, note=str(exc)[:300],
                       typed=isinstance(exc, (perdiff.SolverError, perdiff.DomainError)))
        else:
            rec["wall_s"] = time.perf_counter() - t0
        rec["host_factor"] = speed.factor()
        if "status" not in rec:
            rec["status"], rec["note"] = workloads.check(op, out)
            if op.kind == "solve":
                rec["iterations"] = dict(out.iterations)
        records.append(rec)
        if between is not None:
            between()
    return records


def cli_probe(workload: str, seed: int, ops, j: int) -> dict:
    """One fresh `python -m perdiff classify` process on a problem of this run.

    The printed kernel dimension must match the library's classify().
    """
    import perdiff

    problem_ops = [op for op in ops if op.problem is not None]
    op = problem_ops[j % len(problem_ops)]
    p = op.problem
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"{workload}-seed{seed}-probe{j}.json"
    path.write_text(json.dumps({"b": p.b, "c": p.c, "N": p.N, "g": p.g_text}))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "perdiff", "classify", str(path)],
                          capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    want = perdiff.classify(p).dim
    try:
        got = json.loads(proc.stdout)["dim"] if proc.returncode == 0 else None
    except (json.JSONDecodeError, KeyError):
        got = None
    return {"kind": "cli-classify", "label": op.label, "input": p.g_text, "wall_s": wall,
            "status": "ok" if got == want else "wrong", "exit": proc.returncode,
            "dim": got, "library_dim": want}


def end_to_end(passes, probes, setups, main_setup, scaled=True) -> dict:
    """End-to-end metrics; times at the reference host speed unless ``scaled`` is false."""
    def t(r, key="wall_s"):
        return r[key] * (r["host_factor"] if scaled else 1.0)

    ops = [r for p in passes for r in p["ops"]]
    return {
        "verified_per_s": sum(r["status"] == "ok" for r in ops) / sum(t(r) for r in ops),
        "cli_cold_start_s": statistics.median(t(p) for p in probes),
        "setup_s": statistics.median([t(main_setup, "setup_s")]
                                     + [t(s, "setup_s") for s in setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up times as JSON, exit")
    args = ap.parse_args(argv)
    if not args.setup_probe and (args.seconds is None or args.seconds <= 0):
        ap.error("--seconds must be a positive number")
    if not (SRC / "perdiff" / "__init__.py").is_file():
        print(f"perfbench: no perdiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import_s, setup_s, first_ops = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    import spans
    import numpy as np
    import workloads

    main_setup = {"import_s": import_s, "setup_s": setup_s}
    speed = HostSpeed()
    main_setup["host_factor"] = REF_S / speed.last
    passes, setups, probes = [], [], []

    def probe():
        setups.append(setup_probe(args.workload, args.seed))
        setups[-1]["host_factor"] = speed.factor()
        if not args.trace:
            probes.append(cli_probe(args.workload, args.seed, first_ops, len(probes)))
            probes[-1]["host_factor"] = speed.factor()

    def probe_if_due():
        if (len(setups) < PROBES
                and time.perf_counter() - loop_t0 >= len(setups) * args.seconds / PROBES):
            probe()

    loop_t0 = time.perf_counter()
    while True:
        k = len(passes)
        if args.trace:
            untraced = run_pass(first_ops, speed, between=probe_if_due)
            tracer = spans.Tracer()
            traced = run_pass(first_ops, speed, tracer)
            passes.append({"untraced": untraced, "traced": traced,
                           "tracer": tracer if k == 0 else None, "summary": tracer.summary()})
        else:
            ops = first_ops if k == 0 else workloads.build_pass(args.workload, args.seed, k)
            ops = [op for op in ops if not op.known_defect]
            passes.append({"ops": run_pass(ops, speed, between=probe_if_due)})
        elapsed = time.perf_counter() - loop_t0
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    loop_wall_s = time.perf_counter() - loop_t0
    while len(setups) < PROBES_MIN:
        probe()
    if args.trace:
        defects = [r for r in passes[0]["traced"] if r["known_defect"]]
    else:
        defects = run_pass([op for op in first_ops if op.known_defect], speed)
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "numpy": np.__version__, "platform": platform.platform()},
        "loop_wall_s": loop_wall_s,
        "setup": {"main": main_setup, "probes": setups},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        records = [r for r in passes[0]["traced"] if not r["known_defect"]]
        metrics = spans.per_layer(passes, [import_s] + [s["import_s"] for s in setups])
        units = spans.PER_LAYER_UNITS
        passes[0]["tracer"].save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        record["passes"] = [{k: p[k] for k in ("untraced", "traced", "summary")} for p in passes]
        record["counts_repeat"] = spans.counts_repeat(passes)
    else:
        records = [r for p in passes for r in p["ops"]]
        metrics = end_to_end(passes, probes, setups, main_setup)
        units = END_TO_END_UNITS
        record["unscaled_metrics"] = end_to_end(passes, probes, setups, main_setup, False)
        record["passes"] = passes
        record["cli_probes"] = probes
        record["samples"] = {"passes": len(passes), "ops": len(records), "cli": len(probes),
                             "setup": len(setups) + 1}

    done = records + probes
    failed = sum(r["status"] != "ok" for r in done)
    # a wrong answer is never accepted, from a known-defect operation either
    correct = not any(r["status"] == "wrong" for r in done + defects)
    if args.trace:
        correct = correct and record["counts_repeat"]
    record.update(metrics=metrics, attempted=len(done), failed=failed, correct=correct,
                  known_defects=defects)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    for tag, rs in (("", [r for r in done if r["status"] != "ok"]), ("known defect ", defects)):
        for r in rs:
            print(f"{tag}{r['status']:>10}  {r['kind']:<12} {r['label']:<28} "
                  f"{r.get('error', '')} {r.get('note', '')}")
    for name, value in metrics.items():
        print(f"{name:<36} {value:.6g} {units[name]}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(done), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
