"""Tests of the benchmark itself: `python -m pytest perfbench`.

They check that workload inputs depend only on the seed, that the metric
names the benchmark prints are the ones BENCHMARK.json declares, that the
tracing restores every binding it replaces, and that the output checks accept
ULP-level differences while catching changed results.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_deterministic_in_the_seed(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)


def test_benchmark_json_matches_the_metric_definitions():
    declared = [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]]
    assert declared == [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: why for name, (_, why, _) in workloads.WORKLOADS.items()}


def test_printed_metric_names_match_benchmark_json():
    result = {"call_walls": [[2.0, 1.0], [1.0, 5.0], [3.0, 2.0]], "work": 10,
              "rss_kb": 2048, "failed": 0, "attempted": 6}
    values = run.end_to_end(result, 0.2)
    assert list(values) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert values["wall_s"] == 2.0 + 2.0
    reduced = tracing.reduce_spans([["cli.main", 0.0, 1.0, -1]])
    runs = [worker.layer_values(reduced, Counter(), 1.0, 100)]
    layers = worker.trace_layers(runs, [1.0], [1.1], 1, 0)
    assert sorted(layers) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_list_prints_every_metric_with_its_unit():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--list"]) == 0
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert f"{m['name']} [{m['unit']}]" in out.getvalue()


def test_tracing_patches_by_name_imports_and_restores_them():
    from fapplab import echo, spincoarse
    original = spincoarse.coherent_kernel
    assert echo.coherent_kernel is original
    tracer = tracing.Tracer()
    with tracer.traced():
        assert echo.coherent_kernel is spincoarse.coherent_kernel is not original
        spin = spincoarse.SpinSystem(2)
        spincoarse.q_function_pure(
            spincoarse.coherent_state(spin, spincoarse.SolidAngle(1.0, 0.5)),
            spin, spincoarse.SphereGrid.for_spin(spin))
    assert echo.coherent_kernel is spincoarse.coherent_kernel is original
    names = [span[0] for span in tracer.spans]
    assert "spincoarse.coherent_kernel" in names and "qcore.StateVector.init" in names
    reduced = tracing.reduce_spans(tracer.spans)
    assert reduced["calls"]["spincoarse.coherent_kernel"] == 1
    assert tracer.counts["spincoarse.coherent_kernel.computed_bytes"] == 6 * 6 * 5 * 16
    pure = reduced["total"]["spincoarse.q_function_pure"]
    kernel = reduced["total"]["spincoarse.coherent_kernel"]
    assert reduced["self"]["spincoarse.q_function_pure"] == pytest.approx(pure - kernel)


def test_reduce_spans_counts_nested_spans_of_one_name_once():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 2.0, 3.0, 1]]
    reduced = tracing.reduce_spans(spans)
    assert reduced["total"]["a"] == 10.0 and reduced["calls"]["a"] == 2
    assert reduced["self"]["a"] == 7.0 + 1.0 and reduced["self"]["b"] == 2.0
    assert reduced["top"] == 10.0


def _reverse_output(bounds):
    call = workloads.Call("classical-reverse", 3, (), work=0)
    lines = ["# fapplab 0.1.0", "# experiment=classical-reverse", "# seed=3",
             "t,probability,std_error,bound"]
    for t, b in zip((5, 10, 15), bounds):
        p = 1e-4
        lines.append(f"{t},{p!r},{math.sqrt(p * (1 - p) / 100000)!r},{b!r}")
    return call, "\n".join(lines) + "\n"


def test_reference_check_accepts_ulp_changes_and_catches_a_hoisted_lyapunov():
    lams = (1.1356, 1.1384, 1.1009)
    call, text = _reverse_output([math.exp(-lam * t) for lam, t in zip(lams, (5, 10, 15))])
    assert checks.invariant_errors(call, text) == []
    stored = checks.summarize(call, text)
    _, ulp = _reverse_output([math.nextafter(math.exp(-lam * t), 0)
                              for lam, t in zip(lams, (5, 10, 15))])
    assert checks.reference_errors(call, ulp, stored) == []
    _, hoisted = _reverse_output([math.exp(-lams[0] * t) for t in (5, 10, 15)])
    assert checks.reference_errors(call, hoisted, stored)


def test_lab_round_passes_invariants_and_stored_reference(tmp_path):
    stored = json.loads(worker.REFERENCE_FILE.read_text(encoding="utf-8"))["lab"]
    calls = workloads.build("lab", workloads.REFERENCE_SEED)[:4]
    runner = worker.Runner(calls, tmp_path, "t")
    _, codes, _ = runner.run()
    assert worker.check_outputs(calls, codes, runner.outputs(), stored) == [[]] * 4
    corrupted = [out.replace(b"a1b1,-0.7", b"a1b1,-0.6") for out in runner.outputs()]
    verdicts = worker.check_outputs(calls, codes, corrupted, stored)
    assert verdicts[2] and verdicts[3]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lab",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
