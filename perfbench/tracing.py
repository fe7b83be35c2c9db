"""Spans around calls into fapplab's public functions, installed from outside.

The program is not edited: for the traced run, each public function listed in
TARGETS is replaced by a wrapper that records a span (name, start, end,
parent). A function is replaced under every name a fapplab module binds it
to, because some modules import functions by name (echo binds
`coherent_kernel`, friend binds `tensor_all`, bell binds `branch_states`).
Spans are kept in memory and reduced or written out after the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _kernel_bytes(counts, args):
    counts["spincoarse.coherent_kernel.computed_bytes"] += (
        args["grid"].size * args["sys"].dim * 16)


def _member_evals(counts, args):
    counts["echo.member_evals"] += args["ensemble_size"] * len(args["times"])


def _sample_steps(counts, args):
    cfg = args["cfg"]
    counts["reversal.sample_steps"] += cfg.samples * 2 * cfg.steps


#: (module, attribute, span name, counter). A dotted attribute names a method
#: of a class in that module; `__init__` spans time the construction.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "run", "cli.run", None),
    ("cli", "resolve_config", "cli.resolve_config", None),
    ("spincoarse", "coherent_kernel", "spincoarse.coherent_kernel", _kernel_bytes),
    ("spincoarse", "q_function_pure", "spincoarse.q_function_pure", None),
    ("spincoarse", "coherent_state", "spincoarse.coherent_state", None),
    ("spincoarse", "SphereGrid.__init__", "spincoarse.SphereGrid", None),
    ("spincoarse", "QFunction.write_csv", "spincoarse.write_csv", None),
    ("echo", "echo_experiment", "echo.echo_experiment", _member_evals),
    ("echo", "GaussianPerturbation.draw_values", "echo.draw_values", None),
    ("reversal", "reversal_probability", "reversal.reversal_probability", _sample_steps),
    ("reversal", "lyapunov", "reversal.lyapunov", None),
    ("reversal", "ReversibleMap.evolve_arrays", "reversal.evolve_arrays", None),
    ("friend", "run_pipeline", "friend.run_pipeline", None),
    ("friend", "stern_gerlach", "friend.stern_gerlach", None),
    ("friend", "observer_coupling", "friend.observer_coupling", None),
    ("friend", "write_message", "friend.write_message", None),
    ("friend", "message_mutual_information", "friend.message_mutual_information", None),
    ("bell", "ChshSettings.default", "bell.ChshSettings.default", None),
    ("bell", "build_bell_state", "bell.build_bell_state", None),
    ("bell", "correlation", "bell.correlation", None),
    ("bell", "correlation_sampled", "bell.correlation_sampled", None),
    ("bell", "MacroObservable.outcome_projectors", "bell.outcome_projectors", None),
    ("qcore", "OperatorMatrix.__init__", "qcore.OperatorMatrix.init", None),
    ("qcore", "StateVector.__init__", "qcore.StateVector.init", None),
    ("qcore", "tensor_all", "qcore.tensor_all", None),
    ("qcore", "partial_trace", "qcore.partial_trace", None),
)


class Tracer:
    """Records spans of the wrapped calls made while `traced()` is active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            if counter:
                counter(counts, signature.bind(*args, **kwargs).arguments)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced_call

    @contextlib.contextmanager
    def traced(self):
        """Install every wrapper; restore the original bindings on exit."""
        patches = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fapplab" or key.startswith("fapplab."))]
        try:
            for module_name, attr, name, counter in TARGETS:
                module = sys.modules[f"fapplab.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__, counter))
                    else:
                        wrapped = self._wrap(name, raw, counter)
                    patches.append((owner, method, raw))
                    setattr(owner, method, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)


def reduce_spans(spans) -> dict:
    """Per span name: total time (outermost spans only), self time and calls.

    Self time is a span's duration minus the durations of its direct children;
    the program is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    top = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        self_time[name] += duration - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] += duration
        if parent < 0:
            top += duration
    stepping = sum(end - start for name, start, end, parent in spans
                   if name == "reversal.evolve_arrays" and parent >= 0
                   and spans[parent][0] == "reversal.reversal_probability")
    return {"total": total, "self": self_time, "calls": calls, "top": top,
            "stepping": stepping}
