"""Every function the benchmark's tracer wraps or its worker calls must still
exist in fapplab.

`perfbench/tracing.py` patches the names in its TARGETS table at run time, and
the traced run's known-defect probe in `perfbench/worker.py` calls a few names
that no CLI experiment reaches; a refactor that deletes or renames one of them
would break the traced benchmark run. The table is read from the file without
importing perfbench as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _name, _counter in tracing.TARGETS]


TARGETS = _targets()


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
