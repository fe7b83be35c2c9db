"""Runs one workload in a fresh process and prints its measurements as one
JSON line. Started by `run.py`; only `--write-reference` is run by hand.

Sequence: one untimed warm-up run at the reference seed, checked against
`reference.json`; then timed runs of the seeded workload until the time budget
is spent. The first timed run's outputs are checked in full and every later
run must reproduce them byte for byte. With --trace 1, untraced and traced
runs alternate and the traced ones give the per-layer numbers.

`python3 perfbench/worker.py --write-reference` rewrites `reference.json` from
the current code; do that only for a deliberate change of the stored results.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fapplab  # noqa: E402
from fapplab import cli, spincoarse  # noqa: E402
from fapplab.errors import ToleranceError  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"
MIN_TIMED_RUNS = 3
PROBE_J = 50
PROBE_THETA = 1.0


def machine_ram() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def environment() -> dict:
    """Machine, interpreter and BLAS facts recorded with every run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "ram_bytes": machine_ram(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "caches": _cache_sizes(),
            "fapplab": fapplab.__version__}


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cache_sizes() -> dict:
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            sizes[parts[0]] = int(parts[1])
    return sizes


class Runner:
    """Prepared config files and output paths for one call list."""

    def __init__(self, calls, workdir: Path, tag: str):
        self.calls = calls
        self.argvs, self.paths = [], []
        for idx, call in enumerate(calls):
            cfg = workdir / f"{tag}{idx}.cfg"
            out = workdir / f"{tag}{idx}.out"
            lines = [f"experiment={call.experiment}"] + [f"{k}={v}" for k, v in call.params]
            cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.argvs.append(["--config", str(cfg), "--seed", str(call.seed),
                               "--out", str(out)])
            self.paths.append(out)

    def run(self):
        """One workload run: every call in order.

        Returns (wall seconds of the whole run, exit codes, seconds per call).
        """
        codes, call_walls = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            for argv in self.argvs:
                call_start = perf_counter()
                codes.append(cli.main(argv))
                call_walls.append(perf_counter() - call_start)
            wall = perf_counter() - start
        return wall, codes, call_walls

    def outputs(self):
        return [p.read_bytes() if p.exists() else b"" for p in self.paths]


def check_outputs(calls, codes, outputs, stored=None) -> list:
    """Failure messages, one list per call (empty when the call passed)."""
    verdicts, cache = [], {}
    for call, code, data in zip(calls, codes, outputs):
        key = (call.key, hashlib.sha256(data).digest())
        if key not in cache:
            errors = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                text = data.decode("utf-8")
                errors += checks.invariant_errors(call, text)
                if stored is not None:
                    if call.key not in stored:
                        errors.append("no stored reference for this call")
                    else:
                        errors += checks.reference_errors(call, text, stored[call.key])
            cache[key] = errors
        verdicts.append(cache[key])
    return verdicts


def known_defect_probe() -> int:
    """1 if q_function fails on the coherent-state projector at j=50, else 0."""
    spin = spincoarse.SpinSystem(PROBE_J)
    grid = spincoarse.SphereGrid.for_spin(spin)
    psi = spincoarse.coherent_state(spin, spincoarse.SolidAngle(PROBE_THETA, 0.0))
    try:
        spincoarse.q_function(psi.density(), spin, grid)
    except ToleranceError as exc:
        print(f"known-defect probe: q_function at j={PROBE_J} raised: {exc}", file=sys.stderr)
        return 1
    return 0


def layer_values(reduced: dict, counts, wall: float, out_bytes: int) -> dict:
    """Per-layer metrics of one traced run, named as in metrics.PER_LAYER."""
    total, self_time, calls = reduced["total"], reduced["self"], reduced["calls"]
    steps = counts["reversal.sample_steps"]
    special = {
        "cli.out_bytes": out_bytes,
        "spincoarse.coherent_kernel.computed_bytes":
            counts["spincoarse.coherent_kernel.computed_bytes"],
        "echo.member_evals": counts["echo.member_evals"],
        "reversal.sample_steps": steps,
        "reversal.ns_per_sample_step": reduced["stepping"] / steps * 1e9 if steps else 0.0,
        "trace.top_span_share": reduced["top"] / wall,
    }
    values = {}
    for metric in metrics.PER_LAYER:
        name = metric.name
        if name in special:
            values[name] = special[name]
        elif name.endswith(".self_s"):
            values[name] = self_time.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".s"):
            values[name] = total.get(name[:-len(".s")], 0.0)
    return values


def trace_layers(layer_runs, walls, traced_walls, probe_failed, skipped) -> dict:
    """Every per-layer metric: medians over the traced runs plus run-level values."""
    layers = {name: statistics.median(run[name] for run in layer_runs)
              for name in layer_runs[0]}
    layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    layers["spincoarse.q_function.failed"] = probe_failed
    layers["guard.skipped_calls"] = skipped
    return layers


class Tally:
    """Calls attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, calls, verdicts, label):
        self.attempted += len(calls)
        for call, errors in zip(calls, verdicts):
            if errors:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{label}: {call.key}: {'; '.join(errors)}")


def guard(calls, ram: int):
    """Drop calls whose dense kernel estimate exceeds half the RAM."""
    kept, skipped = [], []
    for call in calls:
        if call.dense_bytes > ram // 2:
            skipped.append(f"{call.key}: estimated dense kernel {call.dense_bytes / 2**30:.2f} "
                           f"GiB exceeds half of the {ram / 2**30:.2f} GiB RAM")
        else:
            kept.append(call)
    return kept, skipped


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[workload]
    ram = machine_ram()
    ref_calls, skipped = guard(workloads.build(workload, workloads.REFERENCE_SEED), ram)
    calls, skipped_timed = guard(workloads.build(workload, seed), ram)
    skipped += skipped_timed
    tally = Tally()

    warmup = Runner(ref_calls, workdir, "ref")
    _, codes, _ = warmup.run()
    tally.add(ref_calls, check_outputs(ref_calls, codes, warmup.outputs(), stored),
              "reference run")

    runner = Runner(calls, workdir, "run")
    walls, call_walls, traced_walls, layer_runs, span_runs = [], [], [], [], []
    first = None
    start = perf_counter()
    while True:
        traced = trace and len(walls) > len(traced_walls)
        if traced:
            tracer = tracing.Tracer()
            with tracer.traced():
                wall, codes, _ = runner.run()
            traced_walls.append(wall)
        else:
            wall, codes, per_call = runner.run()
            walls.append(wall)
            call_walls.append(per_call)
        outputs = runner.outputs()
        if first is None:
            first = outputs
            verdicts = check_outputs(calls, codes, outputs)
        else:
            verdicts = [[] if code == 0 and out == ref else
                        [f"exit code {code}" if code else "rerun output not byte-identical"]
                        for code, out, ref in zip(codes, outputs, first)]
        tally.add(calls, verdicts, "timed run")
        if traced:
            reduced = tracing.reduce_spans(tracer.spans)
            layer_runs.append(layer_values(reduced, tracer.counts, wall,
                                           sum(len(o) for o in outputs)))
            span_runs.append(tracer.spans)
        runs = len(walls) + len(traced_walls)
        per_run = (perf_counter() - start) / runs
        if trace:
            enough = len(traced_walls) >= 2 and len(walls) == len(traced_walls)
        else:
            enough = len(walls) >= MIN_TIMED_RUNS
        if enough and perf_counter() - start + per_run > seconds:
            break

    result = {"attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.messages, "skipped": skipped, "walls": walls,
              "call_walls": call_walls,
              "work": sum(c.work for c in calls),
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "environment": environment()}
    if trace:
        result["traced_walls"] = traced_walls
        result["layers"] = trace_layers(layer_runs, walls, traced_walls,
                                        known_defect_probe(), len(skipped))
        result["spans"] = span_runs
    return result


def write_reference():
    """Store the reference-seed outputs of every workload in reference.json."""
    stored = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            calls = workloads.build(workload, workloads.REFERENCE_SEED)
            runner = Runner(calls, Path(tmp), workload)
            _, codes, _ = runner.run()
            outputs = runner.outputs()
            bad = [e for e in check_outputs(calls, codes, outputs) if e]
            if bad:
                raise SystemExit(f"{workload}: reference outputs fail their checks: {bad[0]}")
            stored[workload] = {call.key: checks.summarize(call, out.decode("utf-8"))
                                for call, out in zip(calls, outputs)}
    REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(fapplab.__file__).resolve().parents:
        print(f"fapplab was imported from {fapplab.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
