"""Names, units and meaning of every metric the benchmark reports.

`BENCHMARK.json` repeats the names, units, directions and bounds; the
benchmark's tests check that the two agree. The `moves` text records, before
any optimisation is measured, which end-to-end metric a layer metric should
move and on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    meaning: str
    bound: float | None = None  # end-to-end only: allowed relative worsening
    moves: str = ""  # per-layer only: which end-to-end metric, on which workload


END_TO_END = (
    Metric("wall_s", "s", "lower", "wall time of one workload run (its fixed list of "
           "cli.main calls): the sum of each call's median over the timed runs, after one "
           "untimed full-size warm-up run", bound=0.25),
    Metric("work_per_s", "units/s", "higher", "work units of one workload run divided by "
           "wall_s (Q nodes, member x time overlaps, sample-steps or experiments)",
           bound=0.25),
    Metric("rss_peak_mb", "MB", "lower", "peak RSS of the fresh process that runs the "
           "workload runs", bound=0.05),
    Metric("setup_s", "s", "lower", "median time for a fresh interpreter to finish "
           "`import fapplab.cli`, with a one-thread BLAS pool", bound=0.25),
    Metric("ok_frac", "ratio", "higher", "cli.main calls that exit 0 and pass every output "
           "check, divided by calls attempted (1 - fail_frac)", bound=0.001),
)

_QMAP = "wall_s on qmap"
_QMAP_RSS = "wall_s and rss_peak_mb on qmap"
_ECHO = "wall_s on echo"
_REVERSE = "wall_s on reverse"
_LAB = "wall_s on lab"


def _layer(name, unit, better, meaning, moves):
    return Metric(name, unit, better, meaning, moves=moves)


PER_LAYER = (
    _layer("cli.main.s", "s", "lower", "time in cli.main", "wall_s on every workload"),
    _layer("cli.run.self_s", "s", "lower", "cli.run minus the library calls inside it: "
           "row formatting and the file write", _QMAP),
    _layer("cli.resolve_config.s", "s", "lower", "time in cli.resolve_config",
           "wall_s on lab (many small calls)"),
    _layer("cli.out_bytes", "B", "lower", "bytes of output files written", _QMAP),
    _layer("spincoarse.coherent_kernel.s", "s", "lower", "time in coherent_kernel",
           _QMAP_RSS + ", wall_s on echo"),
    _layer("spincoarse.coherent_kernel.calls", "count", "lower", "coherent_kernel calls",
           _QMAP_RSS),
    _layer("spincoarse.coherent_kernel.computed_bytes", "B", "lower",
           "nodes x (2j+1) x 16 B per coherent_kernel call, computed from the sizes, "
           "not measured", _QMAP_RSS),
    _layer("spincoarse.q_function_pure.self_s", "s", "lower",
           "q_function_pure minus its coherent_kernel call", _QMAP),
    _layer("spincoarse.write_csv.s", "s", "lower", "time in QFunction.write_csv", _QMAP),
    _layer("spincoarse.SphereGrid.s", "s", "lower", "time in SphereGrid construction",
           _QMAP),
    _layer("spincoarse.coherent_state.s", "s", "lower", "time in coherent_state",
           _QMAP + ", " + _ECHO),
    _layer("spincoarse.q_function.failed", "count", "lower",
           "known-defect probe: q_function on the j=50 coherent-state projector "
           "(1 if it raises)", "none; a fix of the clipping defect sets it to 0"),
    _layer("echo.echo_experiment.s", "s", "lower", "time in echo_experiment", _ECHO),
    _layer("echo.echo_experiment.self_s", "s", "lower", "echo_experiment minus the traced "
           "calls inside it: the member loop", _ECHO),
    _layer("echo.draw_values.s", "s", "lower", "time in GaussianPerturbation.draw_values",
           _ECHO),
    _layer("echo.draw_values.calls", "count", "lower", "draw_values calls", _ECHO),
    _layer("echo.member_evals", "count", "higher", "ensemble x times overlaps evaluated",
           _ECHO),
    _layer("reversal.reversal_probability.s", "s", "lower",
           "time in reversal_probability", _REVERSE),
    _layer("reversal.lyapunov.s", "s", "lower", "time in lyapunov",
           _REVERSE + " (default part)"),
    _layer("reversal.lyapunov.calls", "count", "lower", "lyapunov calls",
           _REVERSE + " (default part)"),
    _layer("reversal.evolve_arrays.s", "s", "lower", "time in ReversibleMap.evolve_arrays",
           _REVERSE + " (1e6-sample part)"),
    _layer("reversal.sample_steps", "count", "higher",
           "Monte-Carlo sample-steps: samples x 2 x steps per reversal_probability call",
           _REVERSE),
    _layer("reversal.ns_per_sample_step", "ns", "lower", "evolve_arrays time under "
           "reversal_probability per sample-step", _REVERSE + " (1e6-sample part)"),
    _layer("friend.run_pipeline.s", "s", "lower", "time in run_pipeline", _LAB),
    _layer("friend.stern_gerlach.s", "s", "lower", "time in stern_gerlach", _LAB),
    _layer("friend.observer_coupling.s", "s", "lower", "time in observer_coupling", _LAB),
    _layer("friend.write_message.s", "s", "lower", "time in write_message", _LAB),
    _layer("friend.message_mutual_information.s", "s", "lower",
           "time in message_mutual_information", _LAB),
    _layer("bell.ChshSettings.default.s", "s", "lower", "time in ChshSettings.default",
           _LAB),
    _layer("bell.build_bell_state.s", "s", "lower", "time in build_bell_state", _LAB),
    _layer("bell.correlation.s", "s", "lower", "time in correlation", _LAB),
    _layer("bell.correlation.calls", "count", "lower", "correlation calls", _LAB),
    _layer("bell.correlation_sampled.s", "s", "lower", "time in correlation_sampled", _LAB),
    _layer("bell.correlation_sampled.calls", "count", "lower", "correlation_sampled calls",
           _LAB),
    _layer("bell.outcome_projectors.calls", "count", "lower",
           "MacroObservable.outcome_projectors calls (one eigh each)", _LAB),
    _layer("qcore.OperatorMatrix.init.s", "s", "lower", "time in OperatorMatrix "
           "construction, including its kind checks", _LAB),
    _layer("qcore.OperatorMatrix.init.calls", "count", "lower",
           "OperatorMatrix constructions", _LAB),
    _layer("qcore.StateVector.init.calls", "count", "lower", "StateVector constructions",
           _LAB),
    _layer("qcore.tensor_all.s", "s", "lower", "time in tensor_all", _LAB),
    _layer("qcore.partial_trace.s", "s", "lower", "time in partial_trace", _LAB),
    _layer("trace.overhead_s", "s", "lower", "median traced wall_s minus median untraced "
           "wall_s in the same process", "none (cost of the tracing itself)"),
    _layer("trace.top_span_share", "ratio", "higher", "top-level span time divided by "
           "traced wall_s", "none (coverage of the trace)"),
    _layer("guard.skipped_calls", "count", "lower", "calls skipped by the memory guard "
           "(estimated dense kernel above half the RAM)", "none"),
)
