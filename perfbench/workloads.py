"""Workload definitions: each workload is a fixed list of `fapplab` CLI calls
whose inputs are drawn from the workload seed.

Every workload is a closed loop with one caller: the calls of one workload run
are made one after another in one process. Each workload keeps one or two
modules busy and leaves the others idle, so that a change to one module moves
the numbers of the workload that exercises it and leaves the others flat.

Only the standard library is used here, so that `run.py` can list workloads
and metrics without importing numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import pi

#: Seed of the untimed warm-up run, whose outputs are compared with the values
#: stored in `reference.json`.
REFERENCE_SEED = 0

#: Rounds of the `lab` workload (four calls each).
LAB_ROUNDS = 50


@dataclass(frozen=True)
class Call:
    """One `fapplab` invocation: experiment, CLI seed and config-file entries."""

    experiment: str
    seed: int
    params: tuple  # ((key, text), ...) written to a key=value config file
    work: int  # work units this call completes (see WORKLOADS)
    dense_bytes: int = 0  # estimated node x level kernel size, 16 B per entry

    def param(self, key: str, default=None):
        return dict(self.params).get(key, default)

    @property
    def key(self) -> str:
        """Stable identifier of the call's inputs (used by reference.json)."""
        args = " ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.experiment} seed={self.seed} {args}".rstrip()


def _dense_bytes(j: float) -> int:
    """nodes x (2j+1) x 16 B for the default (2j+2)^2 grid."""
    dim = round(2 * j) + 1
    return (dim + 1) ** 2 * dim * 16


def _qmap(rng: random.Random) -> list:
    # One coherent state on a large grid: the dense kernel and the CSV writer.
    calls = []
    for j in (100, 150):
        theta0 = rng.uniform(0.05, pi - 0.05)
        phi0 = rng.uniform(0.0, 2 * pi)
        nodes = (2 * j + 2) ** 2
        calls.append(Call("qfunction", rng.randrange(2 ** 31),
                          (("j", str(j)), ("theta0", repr(theta0)), ("phi0", repr(phi0))),
                          work=nodes, dense_bytes=_dense_bytes(j)))
    return calls


def _echo(rng: random.Random) -> list:
    # The same node x level table read thousands of times: per-member Python
    # overhead at j=10, the node x level mat-vec at j=50.
    calls = []
    for j, ensemble in ((10, 5000), (50, 1000)):
        theta0 = rng.uniform(0.05, pi - 0.05)
        phi0 = rng.uniform(0.0, 2 * pi)
        calls.append(Call("echo", rng.randrange(2 ** 31),
                          (("j", str(j)), ("ensemble", str(ensemble)),
                           ("theta0", repr(theta0)), ("phi0", repr(phi0))),
                          work=ensemble * 4, dense_bytes=_dense_bytes(j)))
    return calls


def _reverse(rng: random.Random) -> list:
    # Defaults: three Lyapunov estimates dominate. Then 1e6 samples, whose
    # arrays no longer fit in L2, so map stepping dominates.
    default_steps = 2 * (5 + 10 + 15)
    return [
        Call("classical-reverse", rng.randrange(2 ** 31), (),
             work=100000 * default_steps),
        Call("classical-reverse", rng.randrange(2 ** 31),
             (("samples", "1000000"), ("t_values", "6")), work=1000000 * 2 * 6),
    ]


def _lab(rng: random.Random) -> list:
    # The only workload that reaches friend, bell and the qcore checks.
    calls = []
    for _ in range(LAB_ROUNDS):
        calls.append(Call("friend", 0, (("observer_dim", "2"),), work=1))
        calls.append(Call("friend", 0, (("observer_dim", "3"),), work=1))
        calls.append(Call("bell", 0, (), work=1))
        calls.append(Call("bell", rng.randrange(2 ** 31),
                          (("sampled", "true"), ("shots", "100000")), work=1))
    return calls


#: name -> (call-list builder, why it was chosen, what one work unit is)
WORKLOADS = {
    "qmap": (_qmap, "one coherent state on a j=100 and a j=150 grid: dense kernel and "
                    "CSV writer busy, echo and reversal idle", "Q nodes written"),
    "echo": (_echo, "echo ensembles at j=10 (5000 members) and j=50 (1000 members): "
                    "one spin table read thousands of times", "member x time overlaps"),
    "reverse": (_reverse, "classical-reverse at defaults (Lyapunov-bound) and at 1e6 "
                          "samples (map-stepping-bound); spincoarse idle",
                "Monte-Carlo sample-steps"),
    "lab": (_lab, "50 rounds of friend (observer_dim 2 and 3), exact bell and sampled "
                  "bell: the only user of friend, bell and qcore checks", "experiments"),
}


def build(workload: str, seed: int) -> list:
    """The call list of one workload run; the same seed gives the same calls."""
    builder = WORKLOADS[workload][0]
    return builder(random.Random(f"{workload}/{seed}"))
