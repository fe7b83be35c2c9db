"""fapplab benchmark: drives `fapplab.cli.main` in-process over one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qmap --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --list

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
`--list` prints every metric with its unit and what it should move.
The program is imported from `src/` of the checkout, never from an installed
copy. Run records (environment, per-run walls, failures, spans) are written
to `.perfbench-out/` in the checkout.

This file uses only the standard library; numpy is imported by the worker
process that runs the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 150

_IMPORT_TIMER = ("import sys, time\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "start = time.perf_counter()\n"
                 "import fapplab.cli\n"
                 "print(time.perf_counter() - start)\n")


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import fapplab.cli (one untimed first).

    The BLAS pool is held to one thread in these interpreters: starting its
    threads at numpy import waits on the other cores, which on a shared
    machine swings the import time by a factor of two without any change in
    the work fapplab does at import.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True,
                              cwd=ROOT, env=env)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples[1:])


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def list_metrics() -> None:
    print("end-to-end metrics (--trace 0):")
    for m in metrics.END_TO_END:
        print(f"  {m.name} [{m.unit}] {m.better} is better, bound {m.bound}: {m.meaning}")
    print("per-layer metrics (--trace 1):")
    for m in metrics.PER_LAYER:
        print(f"  {m.name} [{m.unit}] {m.better} is better: {m.meaning}; moves {m.moves}")
    print("workloads:")
    for name, (_, why, unit) in workloads.WORKLOADS.items():
        print(f"  {name}: {why}; work unit: {unit}")


def run_worker(args, workdir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setup: float) -> dict:
    """End-to-end metrics from the worker's result and the set-up time.

    wall_s sums, over the calls of one workload run, each call's median time
    across the timed runs: a burst of load on a shared machine then slows the
    few calls it overlaps in one run, and their medians drop it.
    """
    wall = sum(statistics.median(times) for times in zip(*result["call_walls"]))
    return {"wall_s": wall, "work_per_s": result["work"] / wall,
            "rss_peak_mb": result["rss_kb"] / 1024, "setup_s": setup,
            "ok_frac": 1 - result["failed"] / result["attempted"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fapplab benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    args = parser.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds at least 1")
    if not (SRC / "fapplab" / "cli.py").is_file():
        print(f"no fapplab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        setup = None if args.trace else setup_seconds()
        result = run_worker(args, workdir)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        chosen, values = metrics.PER_LAYER, result["layers"]
    else:
        chosen, values = metrics.END_TO_END, end_to_end(result, setup)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, commit=commit(), metrics=values)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    env = dict(result["environment"], commit=record["commit"])
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    for message in result["skipped"]:
        print(f"skipped: {message}", file=sys.stderr)
    for message in result["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    for m in chosen:
        print(f"{m.name} = {values[m.name]:.6g} {m.unit}", file=sys.stderr)

    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in chosen}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
