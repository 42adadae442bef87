"""Self-test of the benchmark: traced counts repeat exactly for a seed.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Runs ``run.py --trace 1 --seconds 1`` twice per workload with the same
seed, each in a fresh process, and compares every machine-independent
per-layer metric (calls, points, iteration counts, errors by layer and
class, the fail ratio, the span count) and every operation's status and
exception class. Prints one line per workload and exits 1 on any
difference. Defaults to the workloads in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "ratio")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("record: "))
    record = json.loads((ROOT / line[len("record: "):]).read_text())
    result = json.loads(proc.stdout.splitlines()[-1])
    exact = {name: m["value"] for name, m in result["metrics"].items()
             if m["unit"] in EXACT_UNITS}
    ops = [(r["label"], r["status"], r.get("error")) for r in record["passes"][0]["traced"]]
    return {"exact": exact, "ops": ops, "counts_repeat": record["counts_repeat"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in
                              json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    ok = True
    for name in names:
        first, second = traced_run(name, args.seed), traced_run(name, args.seed)
        diff = sorted(k for k in first["exact"] if first["exact"][k] != second["exact"].get(k))
        same = (not diff and first["ops"] == second["ops"]
                and first["counts_repeat"] and second["counts_repeat"])
        ok = ok and same
        print(f"{'PASS' if same else 'FAIL'}  {name}: {len(first['exact'])} exact metrics, "
              f"{len(first['ops'])} operations"
              + (f"; differ: {', '.join(diff)}" if diff else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
