"""Steadiness check: repeat every workload over several seeds and print, for
each metric, its median, quartiles and spread (interquartile range over
median) next to the bound BENCHMARK.json fixes, plus the row-check totals.

    python3 perfbench/steady.py --runs 10 [--workloads fig2,hd_domain]

Run i uses seed i and BENCHMARK.json's run_seconds, with tracing off.  Runs
are made one after another, never in parallel.  A metric is steady when its
spread stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stdout}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="repeat every workload and report spreads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: correct {runs[-1]['correct']}, "
                  f"failed {runs[-1]['failed']} of {runs[-1]['attempted']}", flush=True)
        print(f"\n{workload}: {args.runs} runs, all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>8s}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            ok = spread < bound / 3
            steady = steady and ok
            mark = "" if ok else "  <-- spread above bound/3"
            print(f"  {name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound:8.4g} {first['unit']}{mark}")
        print(flush=True)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
