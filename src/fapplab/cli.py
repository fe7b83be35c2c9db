"""Command-line front end: one experiment per invocation, plain key=value
config files, seeded and byte-reproducible CSV/report output.

Exit codes: 0 success, 2 configuration error, 3 numerical tolerance failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from math import isfinite, pi

import numpy as np

from . import __version__
from .errors import ConfigError, ToleranceError
from . import bell as bell_mod
from . import echo as echo_mod
from . import friend as friend_mod
from . import reversal as rev_mod
from . import spincoarse as sc

EXPERIMENTS = ("qfunction", "classical-reverse", "echo", "friend", "bell")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes"):
        return True
    if t in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _parse_float(text: str) -> float:
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_float_list(text: str) -> tuple:
    return tuple(_parse_float(x) for x in text.split(",") if x.strip())


PARAM_TABLE = {
    "qfunction": {
        "j": (_parse_float, 10.0),
        "theta0": (_parse_float, pi / 3),
        "phi0": (_parse_float, 0.0),
        "grid_nodes": (int, 0),  # 0 means 2j+2 per axis
    },
    "classical-reverse": {
        "kick": (_parse_float, 6.0),
        "delta_kick": (_parse_float, 1e-2),
        "cell_q": (_parse_float, 3.0),
        "cell_p": (_parse_float, 2.0),
        "cell_width": (_parse_float, 0.05),
        "t_values": (_parse_int_list, (5, 10, 15)),
        "samples": (int, 100000),
    },
    "echo": {
        "j": (_parse_float, 10.0),
        "theta0": (_parse_float, pi / 3),
        "phi0": (_parse_float, 0.0),
        "sigma_scale": (_parse_float, 0.05),  # sigma = scale x mean level spacing
        "ensemble": (int, 500),
        "times": (_parse_float_list, ()),  # empty -> 0, 1/s, 2/s, 4/s; 0, 10, 20, 40 at s = 0
    },
    "friend": {
        "observer_dim": (int, 2),
    },
    "bell": {
        "sampled": (_parse_bool, False),
        "shots": (int, 10000),
    },
}


def parse_config_file(path: str) -> dict:
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
                key, _, value = stripped.partition("=")
                raw[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
    return raw


def resolve_config(experiment: str, raw: dict) -> dict:
    """Parse every value, fill defaults and reject unknown keys.

    Range checks live in the library constructors, which `run` reaches; only
    the three parameters that no library object receives are checked here.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    table = PARAM_TABLE[experiment]
    cfg = {name: default for name, (_, default) in table.items()}
    for key, text in raw.items():
        if key in ("experiment", "seed", "out", "threads"):
            continue
        if key not in table:
            raise ConfigError(f"unknown config key {key!r} for experiment {experiment!r}")
        parse, _ = table[key]
        try:
            cfg[key] = parse(text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc
    if experiment == "classical-reverse":
        if cfg["delta_kick"] < 0:
            raise ConfigError("delta_kick must be non-negative")
        if not cfg["t_values"]:
            raise ConfigError("t_values must not be empty")
    elif (experiment == "bell" and not cfg["sampled"]
          and not 1 <= cfg["shots"] <= bell_mod.MAX_SHOTS):
        raise ConfigError(f"shots must be between 1 and {bell_mod.MAX_SHOTS}")
    return cfg


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # numpy 2 prints np.float64(...) otherwise
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    return str(value)


def _lines(lines):
    """A body that writes these lines."""
    text = "".join(f"{line}\n" for line in lines)
    return lambda fh: fh.write(text)


def _table(header: str, rows, *tail: str):
    """A body that writes the header, one CSV line per row, then the tail."""
    return _lines([header, *(",".join(map(_format, row)) for row in rows), *tail])


def run(experiment: str, cfg: dict, seed: int, threads: int, out_path: str) -> str:
    """Compute, then write the output file, and return a one-line summary.

    The file is opened only once the run has its numbers, so a run that fails
    leaves none; the body is written straight into it, not built in memory.
    """
    summary, write_body = RUNNERS[experiment](cfg, seed)
    preamble = [f"# fapplab {__version__}", f"# experiment={experiment}",
                f"# seed={seed}", f"# threads={threads}"]
    preamble += [f"# {key}={_format(cfg[key])}" for key in sorted(cfg)]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        _lines(preamble)(fh)
        write_body(fh)
    return summary


def _run_qfunction(cfg: dict, seed: int):
    sys_ = sc.SpinSystem(cfg["j"])
    n = cfg["grid_nodes"]
    grid = sc.SphereGrid(n, n) if n else sc.SphereGrid.for_spin(sys_)
    omega = sc.SolidAngle(cfg["theta0"], cfg["phi0"])
    state = sc.coherent_state(sys_, omega)
    qf = sc.q_function_pure(state, sys_, grid)
    return (f"qfunction j={cfg['j']} nodes={grid.size} "
            f"integral={qf.integral():.6f}"), qf.write_csv


def _run_reverse(cfg: dict, seed: int):
    mapping = rev_mod.ReversibleMap(cfg["kick"])
    region = rev_mod.CellRegion(center=rev_mod.PhasePoint(cfg["cell_q"], cfg["cell_p"]),
                                half_width=cfg["cell_width"] / 2)
    child_seeds = np.random.SeedSequence(entropy=seed).generate_state(
        len(cfg["t_values"]), dtype=np.uint64)
    # every row is validated before any row runs
    configs = [rev_mod.ReversalConfig(
        map=mapping, perturbed_kick=cfg["kick"] + cfg["delta_kick"], steps=int(t),
        region=region, samples=cfg["samples"], seed=int(child_seed))
        for t, child_seed in zip(cfg["t_values"], child_seeds)]
    results = rev_mod.reversal_probabilities(configs)
    result = results[-1]
    return (f"classical-reverse K={cfg['kick']} dK={cfg['delta_kick']} "
            f"probability={result.probability:.6f} lyapunov={result.lyapunov_estimate:.4f}",
            _table("t,probability,std_error,bound",
                   [(t, r.probability, r.std_error, r.bound)
                    for t, r in zip(cfg["t_values"], results)]))


def _run_echo(cfg: dict, seed: int):
    sys_ = sc.SpinSystem(cfg["j"])
    grid = sc.SphereGrid.for_spin(sys_)
    h0 = echo_mod.SpectralHamiltonian.random_dicke_diagonal(sys_, seed=seed)
    sigma = cfg["sigma_scale"] * h0.mean_spacing
    pert = echo_mod.GaussianPerturbation(sigma=sigma, means=np.zeros(sys_.dim),
                                         seed=seed + 1, h0=h0)
    times = cfg["times"]
    if not times:
        if sigma and not isfinite(4 / sigma):
            raise ConfigError(f"sigma_scale={cfg['sigma_scale']!r} gives sigma={sigma!r}, whose "
                              "default time 4/sigma is not finite; give times= instead")
        times = (0.0, 10.0, 20.0, 40.0) if sigma == 0 else \
            (0.0, 1 / sigma, 2 / sigma, 4 / sigma)
    psi = sc.coherent_state(sys_, sc.SolidAngle(cfg["theta0"], cfg["phi0"]))
    curve = echo_mod.echo_experiment(psi, h0, pert, np.array(times), cfg["ensemble"],
                                     sys_, grid)
    return (f"echo j={cfg['j']} sigma={sigma:.6f} "
            f"final_overlap={curve.mean_overlap[-1]:.6f}",
            _table("t,mean_overlap,std_error,bound",
                   zip(curve.times, curve.mean_overlap, curve.std_error,
                       curve.analytic_bound)))


def _run_friend(cfg: dict, seed: int):
    report = friend_mod.run_pipeline(friend_mod.LabSpace(observer_dim=cfg["observer_dim"]))
    return (f"friend observer_dim={cfg['observer_dim']} "
            f"p_plus={report['p_plus_post_message']:.6f} "
            f"message_purity={report['message_purity']:.6f}",
            _lines(f"{key}={_format(value)}" for key, value in report.items()))


def _run_bell(cfg: dict, seed: int):
    branches = bell_mod.default_branches()
    settings = bell_mod.ChshSettings.default(branches)
    state = bell_mod.build_bell_state(branches)
    if cfg["sampled"]:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        corr = {name: bell_mod.correlation_sampled(state, a, b, cfg["shots"], rng)
                for name, a, b in settings.pairs()}
    else:
        corr = {name: bell_mod.correlation(state, a, b) for name, a, b in settings.pairs()}
    report = bell_mod.chsh_summary(corr)
    chsh, classical = report["chsh_value"], report["lhv_bound"]
    mode = "sampled" if cfg["sampled"] else "exact"
    return (f"bell mode={mode} chsh={chsh:.6f} lhv_bound={classical:.6f}",
            _table("setting_pair,correlation",
                   [(name, corr[name]) for name in ("a1b1", "a1b2", "a2b1", "a2b2")],
                   f"# chsh={chsh:.6f} lhv_bound={classical:.6f} margin={report['margin']:.6f}"))


#: experiment -> runner(cfg, seed) returning (summary, write_body(fileobj))
RUNNERS = {"qfunction": _run_qfunction, "classical-reverse": _run_reverse,
           "echo": _run_echo, "friend": _run_friend, "bell": _run_bell}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fapplab",
        description="Coarse-grained spin states, practical irreversibility, and "
                    "laboratory-level Bell experiments.")
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="key=value parameter file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for interface compatibility and echoed in the "
                             "output; the Monte-Carlo loops use every CPU in the "
                             "process's affinity set (which taskset restricts), and "
                             "results depend on neither")
    args = parser.parse_args(argv)

    try:
        raw = parse_config_file(args.config) if args.config else {}
        experiment = args.experiment or raw.get("experiment")
        if experiment is None:
            raise ConfigError("no experiment selected (use --experiment or config)")
        try:
            seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
            threads = args.threads if args.threads is not None else int(raw.get("threads", 1))
        except ValueError as exc:
            raise ConfigError(f"bad integer in config: {exc}") from exc
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        if threads < 1:
            raise ConfigError("threads must be at least 1")
        out_path = args.out or raw.get("out") or f"{experiment}.csv"
        cfg = resolve_config(experiment, raw)
        summary = run(experiment, cfg, seed, threads, out_path)
    except ToleranceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
