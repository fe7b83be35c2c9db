"""Quantum irreversibility of macroscopic states: forward evolution followed
by an imperfectly reversed one, a Gaussian ensemble of diagonal perturbations,
the ensemble-averaged Bhattacharyya overlap next to the Gaussian
coherence-damping reference curve, and the exact averaged Q-function.

The reference curve exp(-(sigma t)^2/4) is not a bound on the overlap: the
ensemble average damps only the off-diagonal level pairs, so the true curve
levels off on a dephased plateau above it. `averaged_q_formula` gives that
average exactly.

Weak-perturbation model: the perturbed Hamiltonian shares the eigenvectors of
the unperturbed one and only shifts its eigenvalues, so the combined evolution
exp(+i(H0+V)t) exp(-iH0t) reduces to the pure phase profile exp(i V_alpha t)
in the shared eigenbasis (hbar = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError
from .qcore import OperatorMatrix, StateVector
from .spincoarse import (MAX_ENSEMBLE, SphereGrid, SpinSystem, _mixture_q, _node_overlaps,
                         q_function_pure)

SIGMA_BYPASS = 1e-15  # below this the ensemble collapses onto its means exactly
SIGMA_SPACING_FACTOR = 0.2  # "spread well below the level spacing", made operational


@dataclass(frozen=True)
class SpectralHamiltonian:
    """Non-degenerate Hamiltonian given by its eigenbasis and sorted eigenvalues."""

    sys: SpinSystem
    eigenbasis: OperatorMatrix
    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        if self.eigenbasis.dim != self.sys.dim or vals.size != self.sys.dim:
            raise ValueError("eigenbasis/eigenvalue dimensions do not match the spin system")
        if self.eigenbasis.kind != "unitary":
            raise ValueError("eigenbasis must be a unitary OperatorMatrix")
        spacings = np.diff(vals)
        if spacings.size and spacings.min() <= 0:
            raise ValueError("eigenvalues must be strictly increasing (non-degenerate)")

    @property
    def min_spacing(self) -> float:
        return float(np.diff(self.eigenvalues).min())

    @property
    def mean_spacing(self) -> float:
        return float(np.diff(self.eigenvalues).mean())

    @classmethod
    def random_dicke_diagonal(cls, sys: SpinSystem, seed: int) -> "SpectralHamiltonian":
        """Default model: diagonal in the Dicke basis, spacings drawn uniformly
        with unit mean (on [0.5, 1.5], so the spectrum is safely non-degenerate).
        """
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
        spacings = rng.uniform(0.5, 1.5, size=sys.dim - 1)
        evals = np.concatenate([[0.0], np.cumsum(spacings)])
        return cls(sys=sys, eigenbasis=OperatorMatrix(np.eye(sys.dim), kind="unitary"),
                   eigenvalues=evals)


@dataclass(frozen=True)
class GaussianPerturbation:
    """Ensemble of diagonal perturbations: level shift V_alpha drawn from the
    density (1/(sqrt(pi) sigma)) exp(-(V - W_alpha)^2 / sigma^2), i.e. mean
    W_alpha and standard deviation sigma/sqrt(2), independently per level.
    """

    sigma: float
    means: np.ndarray
    seed: int
    h0: SpectralHamiltonian

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        means.setflags(write=False)
        object.__setattr__(self, "means", means)
        if means.size != self.h0.sys.dim:
            raise ValueError("one mean per level is required")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.sigma >= SIGMA_BYPASS:
            limit = SIGMA_SPACING_FACTOR * self.h0.min_spacing
            if self.sigma >= limit:
                raise ValueError(
                    f"sigma {self.sigma} is not small against the level spacing "
                    f"(limit {limit})")

    def draw_values(self, index: int) -> np.ndarray:
        """Level shifts of ensemble member `index`; deterministic in (seed, index)."""
        if index < 0:
            raise ValueError("ensemble index must be non-negative")
        if self.sigma < SIGMA_BYPASS:
            return self.means.copy()
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(index),)))
        return self.means + self.sigma / np.sqrt(2.0) * rng.standard_normal(self.means.size)


def _check_times(times: np.ndarray):
    if np.any(times < 0):
        raise ValueError("times must be non-negative")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class EchoCurve:
    """Time-resolved ensemble-averaged reversibility.

    `analytic_bound` holds the Gaussian coherence-damping reference curve
    exp(-(sigma t)^2/4), the decay of the overlap if every level pair were
    damped; it is a reference, not an upper bound on `mean_overlap`.
    """

    times: np.ndarray
    mean_overlap: np.ndarray
    std_error: np.ndarray
    analytic_bound: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("times", "mean_overlap", "std_error", "analytic_bound"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            arrays[name] = a
            object.__setattr__(self, name, a)
        n = arrays["times"].size
        if any(a.size != n for a in arrays.values()):
            raise ValueError("curve arrays must have equal length")
        _check_times(arrays["times"])
        if np.any(arrays["mean_overlap"] < 0) or np.any(arrays["mean_overlap"] > 1):
            raise ValueError("mean overlap must lie in [0, 1]")
        if arrays["times"][0] == 0.0 and abs(arrays["mean_overlap"][0] - 1.0) > 1e-10:
            raise ToleranceError("overlap at t = 0 must be 1")


def echo_experiment(psi: StateVector, h0: SpectralHamiltonian, pert: GaussianPerturbation,
                    times, ensemble_size: int, sys: SpinSystem, grid: SphereGrid) -> EchoCurve:
    """Ensemble average of the reversibility measure over perturbation draws.

    The `analytic_bound` column is the Gaussian coherence-damping reference
    curve exp(-(sigma t)^2 / 4). The diagonal level pairs escape that damping,
    so the mean overlap levels off above it; the exact ensemble-averaged
    Q-function is `averaged_q_formula`. Member states are pure phase profiles
    (e^{iVt} * c) in the eigenbasis; for each time the whole ensemble goes
    through the separable Q evaluation in chunks, one Bhattacharyya value per
    member, reduced in place in the chunk's scratch overlaps. When every
    member equals the first, as at t = 0 or with sigma below SIGMA_BYPASS, one
    member is evaluated and its value copied to all.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    if ensemble_size < 100:
        raise ValueError("need at least 100 ensemble members")
    if ensemble_size > MAX_ENSEMBLE:
        raise ValueError(f"ensemble of {ensemble_size} members exceeds the supported "
                         f"maximum {MAX_ENSEMBLE}")
    if pert.h0 is not h0 and not np.array_equal(pert.h0.eigenvalues, h0.eigenvalues):
        raise ValueError("perturbation ensemble is paired with a different Hamiltonian")
    q_before = q_function_pure(psi, sys, grid)
    weighted_before = grid.weights * np.sqrt(q_before.values)
    u = h0.eigenbasis.entries
    coeff = u.conj().T @ psi.amplitudes
    norm = (2 * sys.j + 1) / (4 * np.pi)
    values = np.array([pert.draw_values(member) for member in range(ensemble_size)])

    overlaps = np.empty((ensemble_size, times.size))
    for it, t in enumerate(times):
        members = (np.exp(1j * values * t) * coeff) @ u.T
        # all members are one state at t = 0, and at every t when sigma < SIGMA_BYPASS
        same = bool(np.all(members == members[0]))
        for chunk, q_after in _node_overlaps(sys, grid, members[:1] if same else members):
            q_after *= norm
            np.sqrt(q_after, out=q_after)
            q_after *= weighted_before
            overlaps[chunk, it] = np.sum(q_after, axis=1)
        if same:
            overlaps[1:, it] = overlaps[0, it]
    np.clip(overlaps, 0.0, 1.0, out=overlaps)

    mean = overlaps.mean(axis=0)
    std_error = overlaps.std(axis=0, ddof=1) / np.sqrt(ensemble_size)
    bound = np.exp(-(pert.sigma * times) ** 2 / 4.0)
    return EchoCurve(times=times, mean_overlap=mean, std_error=std_error,
                     analytic_bound=bound)


def averaged_q_formula(psi: StateVector, h0: SpectralHamiltonian, pert: GaussianPerturbation,
                       t: float, sys: SpinSystem, grid: SphereGrid) -> np.ndarray:
    """Exact closed form of the ensemble-averaged Q-function.

    Averaging e^{i(V_a - V_b)t} over independent Gaussian draws damps every
    off-diagonal pair by e^{-(sigma t)^2/2} while the diagonal pairs survive
    undamped, leaving the dephased mixture of eigenlevel populations:

        <Q(Omega,t)> = |<Omega|phi(t)>|^2 e^{-(sigma t)^2/2} * (2j+1)/(4pi)
                       + (1 - e^{-(sigma t)^2/2}) sum_a |psi_a|^2 |<Omega|a>|^2 * (2j+1)/(4pi)

    with phi_a(t) = psi_a e^{i W_a t}.
    """
    u = h0.eigenbasis.entries
    coeff = u.conj().T @ psi.amplitudes
    damping = np.exp(-(pert.sigma * t) ** 2 / 2.0)
    phi = np.exp(1j * pert.means * t) * coeff
    coherent_part = _mixture_q(sys, grid, np.ones(1), (u @ phi)[None, :])
    dephased_part = _mixture_q(sys, grid, np.abs(coeff) ** 2, u.T)
    return damping * coherent_part + (1.0 - damping) * dephased_part
