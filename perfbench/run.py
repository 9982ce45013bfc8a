"""fdcran benchmark: one workload through the `fdcran sweep` command line.

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the program is byte-compiled and
imported from src/.  Children run one at a time with one BLAS/OpenMP thread.
Workloads (see README.md in this directory):

  fig2         --preset fig2 --svg: 25 points x 6 schemes, no oracles
  fig3_verify  --preset fig3 --verify: 33 points x 6 schemes, oracles on
  hd_domain    six seeded --config sweeps of hd_scp and hd_cran, 10008 rows

fig2 and fig3_verify are fixed presets; --seed changes only hd_domain.

A timed iteration runs every child of the workload once; iterations repeat
while the next one still fits in --seconds.  With --trace 1 the iterations
get half that time and are followed by one traced iteration (tracer.py),
which gives the per-layer metrics.  Every CSV is checked row by row
(checks.py).  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

import os

# one BLAS/OpenMP thread in this process and in every child it starts; the
# children import the program compiled by build() and write no bytecode
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

import numpy  # noqa: E402

import checks  # noqa: E402
import hd_domain  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fig2", "fig3_verify", "hd_domain")
SETUP_PROBES = 5  # before and again after the timed iterations
# A child still running DEADLINE_BASE_S + DEADLINE_PER_S * --seconds after the
# start is killed and the run ends without a result: 170 s at --seconds 20.
DEADLINE_BASE_S = 90.0
DEADLINE_PER_S = 4.0


class HarnessTimeout(Exception):
    """A child outlived the run's deadline; its rows are neither passed nor failed."""


@dataclass
class Iteration:
    wall_s: float = 0.0  # sum over children, spawn to exit
    rss_mb: float = 0.0  # largest child maximum RSS
    verdicts: list = field(default_factory=list)
    digest: str = ""  # of every CSV written, in order
    span_files: list = field(default_factory=list)


def run_child(argv, log_path, deadline):
    """Run one child to completion; returns (exit code, wall s, max RSS MB, log).
    Raises HarnessTimeout if the child had to be killed at the deadline."""
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    with open(log_path, "w+", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        killer = threading.Timer(max(deadline - start, 0.0), kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise HarnessTimeout(f"killed after {wall:.1f} s: {' '.join(map(str, argv[1:]))}")
        log.seek(0)
        text = log.read()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, text


def build():
    """Byte-compile the program once, so every child imports compiled code."""
    result = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "fdcran")],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if result.returncode != 0:
        sys.exit(f"build failed:\n{result.stdout}")


def materialize(name, seed, run_dir):
    """(sweeps, CLI source arguments per sweep, set-up probe arguments)."""
    if name == "hd_domain":
        sweeps = hd_domain.generate(seed)
        paths = hd_domain.write_configs(sweeps, run_dir / "configs")
        sources = [["--config", p] for p in paths]
        probe = [f"config:{p}" for p in paths]
        return sweeps, sources, probe
    sweeps = workloads.fixed(name)
    sources, probe = [], []
    for sweep in sweeps:
        sources.append(["--preset", sweep.preset] + (["--verify"] if sweep.verify else []))
        probe += [f"preset:{sweep.preset}"] + (["verify"] if sweep.verify else [])
    return sweeps, sources, probe


def iteration(sweeps, sources, out_dir, traced, deadline) -> Iteration:
    out_dir.mkdir(parents=True)
    it = Iteration()
    digest = hashlib.sha256()
    for i, (sweep, source) in enumerate(zip(sweeps, sources)):
        csv_path = out_dir / f"sweep{i}.csv"
        args = ["sweep", *source, "--out", str(csv_path)]
        if sweep.svg:
            args += ["--svg", str(out_dir / f"sweep{i}.svg")]
        if traced:
            spans = out_dir / f"sweep{i}.spans.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
            it.span_files.append(spans)
        else:
            argv = [sys.executable, "-m", "fdcran", *args]
        code, wall, rss, log = run_child(argv, out_dir / f"sweep{i}.log", deadline)
        it.wall_s += wall
        it.rss_mb = max(it.rss_mb, rss)
        it.verdicts.append(checks.check_child(sweep, csv_path, code, log, fdcran))
        if csv_path.exists():
            digest.update(csv_path.read_bytes())
        if code not in (0, 4):
            print(f"child exited {code}: {' '.join(argv[1:])}\n{log[-2000:]}")
    it.digest = digest.hexdigest()
    return it


def setup_times(probe_args, log_path, deadline) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "setup_probe.py"), *probe_args]
        code, wall, _, log = run_child(argv, log_path, deadline)
        if code != 0:
            sys.exit(f"set-up probe failed ({code}):\n{log}")
        times.append(wall)
    return times


def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"env: nproc {nproc}, cpu {cpu}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, BLAS/OpenMP threads 1"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description="fdcran benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    deadline = start + DEADLINE_BASE_S + DEADLINE_PER_S * args.seconds

    build()
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        sweeps, sources, probe = materialize(args.workload, args.seed, run_dir)
        info = workloads.describe(sweeps)
        print(
            f"workload {args.workload}, seed {args.seed}: {info['sweeps']} sweeps, "
            f"{info['rows']} rows, shared_alpha_frac {info['shared_alpha_frac']:.4f}"
        )
        print(environment())
        setup = setup_times(probe, run_dir / "probe.log", deadline)

        budget = args.seconds / 2 if args.trace else args.seconds
        timed = []
        measure_start = time.perf_counter()
        while True:
            it_start = time.perf_counter()
            timed.append(iteration(sweeps, sources, run_dir / f"it{len(timed)}", False, deadline))
            now = time.perf_counter()
            if now - measure_start + (now - it_start) > budget:
                break
        setup_s = statistics.median(setup + setup_times(probe, run_dir / "probe.log", deadline))
        traced = None
        if args.trace:
            traced = iteration(sweeps, sources, run_dir / "traced", True, deadline)
        return report(args, sweeps, info, setup_s, timed, traced, time.perf_counter() - start)
    except HarnessTimeout as exc:
        print(f"harness timeout, no result: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def describe_verdict(sweep, verdict) -> str:
    if verdict.crashed:
        return f"{verdict.attempted} rows, CRASHED"
    counts = {name: 0 for name in checks.CHECKS}
    for names in verdict.rejected.values():
        for name in names:
            counts[name] += 1
    rejected = ", ".join(f"{name} {n}" for name, n in counts.items())
    expected = sweep.rows()
    flagged = [f"{expected[j][1]} at {sweep.var}={expected[j][0]:g}" for j in sorted(verdict.flagged)]
    text = f"{verdict.attempted} rows, rejected by {rejected}; --verify flagged {len(flagged)}"
    return text + (f" [{', '.join(flagged)}]" if flagged else "")


def report(args, sweeps, info, setup_s, timed, traced, run_s) -> int:
    iterations = timed + ([traced] if traced else [])
    attempted = sum(v.attempted for it in iterations for v in it.verdicts)
    failed = sum(v.failed for it in iterations for v in it.verdicts)
    crashed = any(v.crashed for it in iterations for v in it.verdicts)
    rejected = any(v.rejected for it in iterations for v in it.verdicts)
    deterministic = len({it.digest for it in iterations}) == 1
    correct = not crashed and not rejected and deterministic

    first = timed[0].verdicts
    r_eq = [r for v in first for r in v.r_eq]
    if args.workload in workloads.SEED_R_EQ_MEAN:
        # a worse optimum reads below 1
        r_eq_rel = statistics.fmean(r_eq) / workloads.SEED_R_EQ_MEAN[args.workload] if r_eq else 0.0
    else:
        # accuracy against the closed form: an error either way reads below 1
        ref = sum(r for v in first for r in v.r_ref)
        r_eq_rel = 1.0 - abs(sum(r_eq) / ref - 1.0) if ref else 0.0
    wall_s = statistics.median(it.wall_s for it in timed)

    walls = ", ".join(f"{it.wall_s:.3f}" for it in timed)
    print(f"timed iterations: {len(timed)} [{walls}] s; run took {run_s:.1f} s")
    for i, (sweep, verdict) in enumerate(zip(sweeps, first)):
        print(f"row checks, sweep {i} ({sweep.var}): {describe_verdict(sweep, verdict)}")
    print(f"outputs identical across iterations: {deterministic}; failed rows {failed} of {attempted}")

    if traced is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(it.rss_mb for it in timed), "MB"),
            "r_eq_rel": (r_eq_rel, "ratio"),
            "rows_ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    else:
        metrics, absent = tracer.layer_metrics(traced.span_files, traced.wall_s)
        metrics["trace.overhead_s"] = (traced.wall_s - wall_s, "s")
        metrics["oracle.gap_max"] = (max(v.oracle_gap for v in first), "bit/s/Hz")
        metrics["rows.count"] = (info["rows"], "count")
        metrics["rows.shared_alpha_frac"] = (info["shared_alpha_frac"], "ratio")
        metrics["rows.r_eq_mean"] = (statistics.fmean(r_eq) if r_eq else 0.0, "bit/s/Hz")
        if absent:
            print("absent bindings (reported as 0): " + ", ".join(absent))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    if not (SRC / "fdcran" / "cli.py").is_file():
        sys.exit(f"no fdcran sources under {SRC}; run from the root of a source checkout")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))
    import fdcran

    sys.exit(main())
