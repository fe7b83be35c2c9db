"""Test oracles: direct per-state routes to what the library computes in
batches, kept for tests to compare the library's results against.

The echo oracles evolve one ensemble member at a time, as an explicit
perturbation operator diagonal in the Dicke basis, where `echo_experiment`
takes every member's phase profile at once, and seed each member through its
own numpy `SeedSequence`, where `draw_values` hashes a whole range of members
in one pass; the sampled CHSH
value is the four `correlation_sampled` calls of a sampled bell run. The
observable builders give the branch-span observables at any angle, where
`ChshSettings.default` forms only its four; `great_circle_angle` is the angle
in the closed-form coherent-state overlap law. The friend's two recordings,
which the library applies by moving amplitudes, are here the dense gates
summed from Kronecker products of projectors, to be lifted onto the full
laboratory space. `tensor` is the two-factor Kronecker product of states that
`tensor_all` folds without forming the intermediate states, and
`write_csv_by_nodes` is `QFunction.write_csv` as it was before the value
column was formatted in numpy blocks: one `repr` per node.
`lattice_reversal_probability` runs the reversal protocol on a midpoint
lattice of the cell with plain np.remainder steps, where `reversal_probability`
draws Monte-Carlo samples and steps them with narrowed wraps.
"""

from __future__ import annotations

import numpy as np

from fapplab.bell import (ChshSettings, MacroObservable, _branch_matrices, _macro, _rotated,
                          chsh_summary, correlation_sampled)
from fapplab.echo import GaussianPerturbation, SpectralHamiltonian
from fapplab.errors import ToleranceError
from fapplab.friend import LabSpace
from fapplab.qcore import OperatorMatrix, StateVector
from fapplab.spincoarse import (QFunction, SolidAngle, SphereGrid, SpinSystem,
                                bhattacharyya, q_function_pure)

DIAGONAL_TOL = 1e-12
TWO_PI = 2.0 * np.pi

Z_PLUS = np.array([1.0, 0.0], dtype=complex)
Z_MINUS = np.array([0.0, 1.0], dtype=complex)
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states (row-major order)."""
    if not (isinstance(a, StateVector) and isinstance(b, StateVector)):
        raise TypeError("tensor expects two StateVectors")
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


def write_csv_by_nodes(qf: QFunction, fileobj) -> None:
    """`QFunction.write_csv`'s text, one theta-row and one `repr` per node at a time."""
    n_phi = qf.grid.n_phi
    phis = [repr(ph) for ph in qf.grid.phis[:n_phi].tolist()]
    fileobj.write("theta,phi,weight,value\n")
    for th, w, row in zip(qf.grid.thetas[::n_phi].tolist(),
                          qf.grid.weights[::n_phi].tolist(),
                          qf.values.reshape(-1, n_phi)):
        head, tail = f"{th!r},", f",{w!r},"
        fileobj.write("".join([f"{head}{ph}{tail}{v!r}\n"
                               for ph, v in zip(phis, row.tolist())]))


def seeded_values(pert: GaussianPerturbation, index: int) -> np.ndarray:
    """Level shifts of ensemble member `index` through its own numpy
    `SeedSequence(entropy=seed, spawn_key=(index,))`, the stream that
    `draw_values` seeds for a whole range of members at once."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=pert.seed, spawn_key=(index,)))
    return pert.means + pert.sigma / np.sqrt(2.0) * rng.standard_normal(pert.means.size)


def draw_perturbation(pert: GaussianPerturbation, index: int) -> OperatorMatrix:
    """Perturbation operator of one ensemble member, diagonal in the Dicke basis."""
    return OperatorMatrix(np.diag(pert.draw_values(range(index, index + 1))[0]),
                          kind="hermitian")


def _diagonal_values(h0: SpectralHamiltonian, v: OperatorMatrix) -> np.ndarray:
    """Level shifts of V; rejects a V that is not diagonal in the Dicke basis."""
    if v.dim != h0.sys.dim:
        raise ValueError("perturbation dimension mismatch")
    off = v.entries - np.diag(np.diag(v.entries))
    worst = np.max(np.abs(off))
    if worst > DIAGONAL_TOL:
        raise ToleranceError(
            f"perturbation is not diagonal in the Dicke basis "
            f"(off-diagonal {worst:.3e}); the dephasing model does not apply")
    diag = np.diag(v.entries)
    if np.max(np.abs(diag.imag)) > DIAGONAL_TOL:
        raise ToleranceError("perturbation has non-real eigenvalues")
    return diag.real


def combined_evolution(psi: StateVector, h0: SpectralHamiltonian,
                       v: OperatorMatrix, t: float) -> StateVector:
    """exp(+i(H0+V)t) exp(-iH0t)|psi>: phase profile e^{i V_m t} per Dicke level."""
    if psi.dim != h0.sys.dim:
        raise ValueError("state dimension mismatch")
    values = _diagonal_values(h0, v)
    return StateVector(np.exp(1j * values * t) * psi.amplitudes)


def reversibility_measure(psi: StateVector, h0: SpectralHamiltonian, v: OperatorMatrix,
                          t: float, sys: SpinSystem, grid: SphereGrid) -> float:
    """Bhattacharyya overlap between the macroscopic states before and after
    the forward-then-imperfectly-reversed evolution.
    """
    before = q_function_pure(psi, sys, grid)
    after = q_function_pure(combined_evolution(psi, h0, v, t), sys, grid)
    return bhattacharyya(before, after)


def chsh_value_sampled(state: StateVector, settings: ChshSettings, shots: int,
                       rng: np.random.Generator) -> float:
    return chsh_summary({name: correlation_sampled(state, a, b, shots, rng)
                         for name, a, b in settings.pairs()})["chsh_value"]


def _plain_step(kick, q, p):
    """One kick-drift-kick step of the symmetrized standard map, each
    coordinate wrapped by np.remainder."""
    p = np.remainder(p + 0.5 * kick * np.sin(q), TWO_PI)
    q = np.remainder(q + p, TWO_PI)
    p = np.remainder(p + 0.5 * kick * np.sin(q), TWO_PI)
    return q, p


def lattice_reversal_probability(kick: float, perturbed_kick: float, steps: int,
                                 center: tuple, half_width: float, n: int = 512):
    """The reversal protocol on the n x n midpoint lattice of the cell:
    `steps` steps of the true map, the flip p -> -p, `steps` steps of the
    perturbed map, the flip again, then the cell test.

    Returns (the share of lattice points that return, the share with a
    4-neighbour on the other side of the return set's boundary). The first
    is the midpoint rule for the return probability; its error is at most
    the share of lattice cells that the boundary crosses, which the second
    bounds once the lattice resolves the boundary's folds.
    """
    cq, cp = center
    offsets = ((np.arange(n) + 0.5) / n * 2 - 1) * half_width
    dq, dp = np.meshgrid(offsets, offsets, indexing="ij")
    q, p = np.remainder(cq + dq, TWO_PI), np.remainder(cp + dp, TWO_PI)
    for _ in range(steps):
        q, p = _plain_step(kick, q, p)
    p = np.remainder(-p, TWO_PI)
    for _ in range(steps):
        q, p = _plain_step(perturbed_kick, q, p)
    p = np.remainder(-p, TWO_PI)
    dq = np.remainder(q - cq + np.pi, TWO_PI) - np.pi
    dp = np.remainder(p - cp + np.pi, TWO_PI) - np.pi
    inside = (np.abs(dq) <= half_width) & (np.abs(dp) <= half_width)
    rows, cols = inside[1:] != inside[:-1], inside[:, 1:] != inside[:, :-1]
    edge = np.zeros_like(inside)
    edge[1:] |= rows
    edge[:-1] |= rows
    edge[:, 1:] |= cols
    edge[:, :-1] |= cols
    return float(inside.mean()), float(edge.mean())


def branch_projection_observable(branches) -> MacroObservable:
    """Z-analogue: +1 on the recorded-up branch, -1 on the recorded-down branch."""
    return _macro(_branch_matrices(branches)[0])


def interference_observable(branches) -> MacroObservable:
    """X-analogue: branch-swap observable, +1/-1 on the superposition outputs."""
    return _macro(_branch_matrices(branches)[1])


def rotated_observable(branches, angle: float) -> MacroObservable:
    """cos(angle) * Z + sin(angle) * X within the branch span."""
    return _rotated(*_branch_matrices(branches), angle)


def great_circle_angle(a: SolidAngle, b: SolidAngle) -> float:
    """Great-circle angle between the two directions."""
    c = (np.cos(a.theta) * np.cos(b.theta)
         + np.sin(a.theta) * np.sin(b.theta) * np.cos(a.phi - b.phi))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def stern_gerlach_gate() -> np.ndarray:
    """8x8 branch recorder on (atom, organ-up, organ-down): the up branch flips
    organ-up, the down branch flips organ-down."""
    p_up, p_down = np.outer(Z_PLUS, Z_PLUS.conj()), np.outer(Z_MINUS, Z_MINUS.conj())
    return (np.kron(np.kron(p_up, FLIP), np.eye(2))
            + np.kron(np.kron(p_down, np.eye(2)), FLIP))


def observer_gate(space: LabSpace) -> np.ndarray:
    """(4 d)x(4 d) observer readout on (organ-up, organ-down, observer): the
    (+,-) organ pattern writes "knows up", the (-,+) pattern "knows down"."""
    d4, ready = space.observer_dim, space.ready_index
    g_up, g_down = np.eye(d4, dtype=complex), np.eye(d4, dtype=complex)
    if d4 == 2:
        g_down = FLIP  # ready |0> -> |1>, i.e. "knows down"
    else:
        g_up[[0, ready]] = g_up[[ready, 0]]
        g_down[[1, ready]] = g_down[[ready, 1]]
    p_up, p_down = np.outer(Z_PLUS, Z_PLUS.conj()), np.outer(Z_MINUS, Z_MINUS.conj())
    up_branch, down_branch = np.kron(p_up, p_down), np.kron(p_down, p_up)
    rest = np.eye(4) - up_branch - down_branch
    return (np.kron(up_branch, g_up) + np.kron(down_branch, g_down)
            + np.kron(rest, np.eye(d4)))


def lift(gate: np.ndarray, left: int, right: int) -> np.ndarray:
    """`gate` on the middle factors of a left x gate x right product space."""
    return np.kron(np.kron(np.eye(left), gate), np.eye(right))


def lifted_stern_gerlach(space: LabSpace) -> np.ndarray:
    return lift(stern_gerlach_gate(), 1, 3 * space.observer_dim)


def lifted_observer_coupling(space: LabSpace) -> np.ndarray:
    return lift(observer_gate(space), 2, 3)
