"""Every function the benchmark's tracer wraps or its worker calls must still
exist in fapplab, and the CLI must still reach what the tracer wraps.

`perfbench/tracing.py` patches the names in its TARGETS table at run time, and
the traced run's known-defect probe in `perfbench/worker.py` calls a few names
that no CLI experiment reaches; a refactor that deletes or renames one of them
would break the traced benchmark run, and one that routes the CLI around a
wrapped name leaves its per-layer metrics at 0. The tracer is loaded from its
file without importing perfbench as a package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from fapplab import cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


_TRACER = _load_tracing()
_TABLE = _TRACER.TARGETS
TARGETS = [(module, attr) for module, attr, _name, _counter in _TABLE]


@pytest.mark.parametrize("module_name, attr", TARGETS,
                         ids=[f"{module}.{attr}" for module, attr in TARGETS])
def test_trace_target_resolves(module_name, attr):
    module = importlib.import_module(f"fapplab.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer patches the class's own attribute, not an inherited one
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


#: what `perfbench/worker.py` calls outside the CLI: the probe evaluates
#: `q_function(coherent_state(...).density(), ...)` and catches ToleranceError
WORKER_CALLS = (("spincoarse", "q_function"), ("spincoarse", "SpinSystem"),
                ("spincoarse", "SphereGrid.for_spin"), ("spincoarse", "coherent_state"),
                ("spincoarse", "SolidAngle"), ("qcore", "StateVector.density"),
                ("errors", "ToleranceError"))


@pytest.mark.parametrize("module_name, attr", WORKER_CALLS,
                         ids=[f"{module}.{attr}" for module, attr in WORKER_CALLS])
def test_worker_call_resolves(module_name, attr):
    target = importlib.import_module(f"fapplab.{module_name}")
    for name in attr.split("."):
        target = getattr(target, name)
    assert callable(target)


#: the arguments each tracer counter reads by name from the bound call; a
#: renamed one would crash only the traced benchmark run
COUNTER_ARGS = {("spincoarse", "coherent_kernel"): ("sys", "grid"),
                ("echo", "echo_experiment"): ("times", "ensemble_size"),
                ("reversal", "reversal_probability"): ("cfg",)}


def test_every_counter_is_pinned():
    assert {(module, attr) for module, attr, _name, counter in _TABLE
            if counter is not None} == set(COUNTER_ARGS)


@pytest.mark.parametrize("module_name, attr", sorted(COUNTER_ARGS),
                         ids=[f"{module}.{attr}" for module, attr in sorted(COUNTER_ARGS)])
def test_counter_arguments_keep_their_names(module_name, attr):
    fn = getattr(importlib.import_module(f"fapplab.{module_name}"), attr)
    assert set(COUNTER_ARGS[module_name, attr]) <= set(inspect.signature(fn).parameters)


#: (experiment, config) of one tiny run of each experiment, both bell modes
TINY_RUNS = (("qfunction", {"j": "2"}),
             ("classical-reverse", {"samples": "200", "t_values": "1,2"}),
             ("echo", {"j": "1", "ensemble": "100"}),
             ("friend", {}),
             ("bell", {}),
             ("bell", {"sampled": "true", "shots": "100"}))
#: spans that only tests and the worker's probe reach, no CLI run
NOT_ON_THE_CLI = {"spincoarse.coherent_kernel", "friend.message_mutual_information",
                  "qcore.tensor_all", "qcore.partial_trace"}


def test_cli_reaches_every_traced_name(tmp_path):
    tracer = _TRACER.Tracer()
    with tracer.traced():
        for k, (experiment, pairs) in enumerate(TINY_RUNS):
            cfg = tmp_path / f"{k}.cfg"
            cfg.write_text("".join(f"{key}={value}\n" for key, value in pairs.items()),
                           encoding="utf-8")
            # through the module, whose binding the tracer patches
            assert cli.main(["--experiment", experiment, "--config", str(cfg),
                             "--out", str(tmp_path / f"{k}.csv")]) == 0
    reached = {span[0] for span in tracer.spans}
    unreached = {name for _module, _attr, name, _counter in _TABLE} - reached
    assert unreached == NOT_ON_THE_CLI
