"""Test oracles: direct per-state routes to what the library computes in
batches, kept for tests to compare the library's results against.

The echo oracles evolve one ensemble member at a time, as an explicit
perturbation operator applied in the reference eigenbasis, where
`echo_experiment` takes every member's phase profile at once; the sampled CHSH
value is the four `correlation_sampled` calls of a sampled bell run.
"""

from __future__ import annotations

import numpy as np

from fapplab.bell import ChshSettings, chsh_from_correlations, correlation_sampled
from fapplab.echo import GaussianPerturbation, SpectralHamiltonian
from fapplab.errors import ToleranceError
from fapplab.qcore import OperatorMatrix, StateVector
from fapplab.spincoarse import SphereGrid, SpinSystem, bhattacharyya, q_function_pure

DIAGONAL_TOL = 1e-12


def draw_perturbation(pert: GaussianPerturbation, index: int) -> OperatorMatrix:
    """Perturbation operator of one ensemble member, diagonal in the H0 eigenbasis."""
    values = pert.draw_values(index)
    u = pert.h0.eigenbasis.entries
    mat = (u * values) @ u.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return OperatorMatrix(mat, kind="hermitian")


def _diagonal_values(h0: SpectralHamiltonian, v: OperatorMatrix) -> np.ndarray:
    """Eigenbasis representation of V; rejects anything not diagonal there."""
    if v.dim != h0.sys.dim:
        raise ValueError("perturbation dimension mismatch")
    u = h0.eigenbasis.entries
    in_basis = u.conj().T @ v.entries @ u
    off = in_basis - np.diag(np.diag(in_basis))
    worst = np.max(np.abs(off))
    if worst > DIAGONAL_TOL:
        raise ToleranceError(
            f"perturbation is not diagonal in the reference eigenbasis "
            f"(off-diagonal {worst:.3e}); the shared-eigenvector model does not apply")
    diag = np.diag(in_basis)
    if np.max(np.abs(diag.imag)) > DIAGONAL_TOL:
        raise ToleranceError("perturbation has non-real eigenvalues")
    return diag.real


def combined_evolution(psi: StateVector, h0: SpectralHamiltonian,
                       v: OperatorMatrix, t: float) -> StateVector:
    """exp(+i(H0+V)t) exp(-iH0t)|psi>: phase profile e^{i V_alpha t} per level."""
    if psi.dim != h0.sys.dim:
        raise ValueError("state dimension mismatch")
    values = _diagonal_values(h0, v)
    u = h0.eigenbasis.entries
    coeff = u.conj().T @ psi.amplitudes
    return StateVector(u @ (np.exp(1j * values * t) * coeff))


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
    return chsh_from_correlations({name: correlation_sampled(state, a, b, shots, rng)
                                   for name, a, b in settings.pairs()})
