"""Benchmark runner: one workload, timed in fresh interpreters, outputs checked.

    python3 benchmarks/run.py --workload tq_chain --seed 1 --seconds 30 --trace 0

With --trace 0 it times one cold set-up (this process's start to the end of
a fresh interpreter that imports loopdens), then runs whole rounds of the
workload, each in a fresh interpreter and one at a time, while the next
round is expected to end within --seconds.  It reports

  setup_s      the cold set-up time,
  wall_s       median over rounds of a child's start-to-exit time,
  peak_rss_mb  median over rounds of a child's peak resident memory
               (from the child's own rusage, MiB).

With --trace 1 it runs the workload once with its layers wrapped by
child.py, plus the other workloads at their small size, so that every
per-layer metric has a value; each metric comes from its home workload
(workloads.HOME).  Every round's outputs are checked (checks.py).  The last
line of stdout is the JSON result; details go to benchmarks/out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import SPECS, home_of  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Pinned in every child: one BLAS thread (the six-vertex eigensolve is the
# only BLAS user), and a fixed hash seed so set iteration order is the same
# in every round.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "LOOPDENS_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list) -> tuple[float, float, float]:
    """Run one fresh interpreter to its end: (wall s, peak RSS MiB, CPU s)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL
    )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


def run_round(workload: str, size: str, seed: int, work: Path, trace: bool):
    """One child round of `workload` plus the checks on what it wrote."""
    from checks import check_round
    out = work / f"{workload}-{size}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wall, rss, cpu = run_child(
        [str(HERE / "child.py"), workload, size, str(seed), str(out), "1" if trace else "0"]
    )
    tally = check_round(workload, SPECS[workload][size], seed, out)
    traced = json.loads((out / "trace.json").read_text(encoding="utf-8")) if trace else None
    return wall, rss, cpu, tally, traced


def measure(args, work: Path):
    run_child(["-c", "import loopdens"])
    setup_s = time.perf_counter() - T0
    from checks import Tally  # mpmath is imported only after the set-up is timed

    tally, walls, rsss, cpus = Tally(), [], [], []
    while True:
        wall, rss, cpu, t, _ = run_round(args.workload, args.size, args.seed, work, False)
        tally.merge(t)
        walls.append(wall)
        rsss.append(rss)
        cpus.append(cpu)
        if time.perf_counter() - T0 + wall > args.seconds:
            break
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rsss),
    }
    return tally, metrics, {"round_wall_s": walls, "round_cpu_s": cpus, "round_peak_rss_mb": rsss}


def measure_traced(args, work: Path):
    from checks import Tally

    tally, by_workload, detail = Tally(), {}, {}
    for workload in [args.workload] + [w for w in SPECS if w != args.workload]:
        size = args.size if workload == args.workload else "small"
        wall, _, _, t, traced = run_round(workload, size, args.seed, work, True)
        tally.merge(t)
        by_workload[workload] = traced["metrics"]
        detail[workload] = {
            "size": size,
            "wall_s": wall,
            "wall_without_probes_s": wall - traced["probe_s"],
            "spans": traced["spans"],
        }
    metrics = {m["name"]: by_workload[home_of(m["name"])][m["name"]] for m in BENCHMARK["per_layer"]}
    return tally, metrics, detail


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SPECS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "small"], default="full",
                   help="small runs the same commands and checks in seconds (for tests)")
    args = p.parse_args()
    if not (ROOT / "src" / "loopdens" / "__init__.py").is_file():
        print(f"error: no loopdens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    results = HERE / "out"
    work = results / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            tally, metrics, detail = measure_traced(args, work)
        else:
            tally, metrics, detail = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    kind = "trace" if args.trace else "result"
    record = dict(result, workload=args.workload, seed=args.seed, size=args.size,
                  errors=tally.errors, detail=detail)
    (results / f"{kind}-{args.workload}-{args.size}-{args.seed}.json").write_text(
        json.dumps(record), encoding="utf-8"
    )
    for err in tally.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
