"""Bell test on laboratory-level records: two sealed laboratories of four
qubits each share a singlet across their recorded branches, the outside
agents measure branch ("which outcome") or interference observables, and a
brute-force enumeration of deterministic value assignments supplies the
classical ceiling of the CHSH expression.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ToleranceError
from .friend import LabSpace, branch_states
from .qcore import OperatorMatrix, StateVector

LAB_DIM = 16
EIGENVALUE_TOL = 1e-10
# uniforms drawn at once by `correlation_sampled`: 512 KiB, so memory stays
# bounded for any shot count
_SHOT_CHUNK = 65536
# most shots per correlation: a sampled run takes ~30 ns per shot over its 4
# correlations (2 cores), so 30 s at the cap, minutes if all 8 edges differ
MAX_SHOTS = 10**9


@dataclass(frozen=True)
class LaboratoryBasis:
    """Orthonormal pair of recorded-branch states of one sealed laboratory."""

    up_state: StateVector
    down_state: StateVector

    def __post_init__(self):
        if self.up_state.dim != LAB_DIM or self.down_state.dim != LAB_DIM:
            raise ValueError(f"laboratory states must have dimension {LAB_DIM}")
        if abs(self.up_state.overlap(self.up_state) - 1) > 1e-12:
            raise ToleranceError("up state is not normalized")
        if abs(self.up_state.overlap(self.down_state)) > 1e-12:
            raise ToleranceError("branch states are not orthogonal")

    @classmethod
    def default(cls) -> "LaboratoryBasis":
        up, down = branch_states(LabSpace(observer_dim=2))
        return cls(up_state=up, down_state=down)


@dataclass(frozen=True)
class MacroObservable:
    """Plus/minus-one valued observable supported on the two-branch span.

    The operator annihilates the orthogonal complement of span{up, down}, so
    its spectrum is {+1, -1} on the span and 0 elsewhere. One eigendecomposition
    at construction validates that spectrum and yields the outcome projectors.
    """

    matrix: OperatorMatrix
    label: str
    _projectors: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.matrix.entries
        if self.matrix.dim != LAB_DIM:
            raise ValueError(f"observable must act on dimension {LAB_DIM}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ToleranceError("observable must be Hermitian")
        evals, vecs = np.linalg.eigh(m)
        dist = np.min(np.abs(evals[:, None] - np.array([-1.0, 0.0, 1.0])[None, :]), axis=1)
        if np.max(dist) > EIGENVALUE_TOL:
            raise ToleranceError("observable eigenvalues must lie in {-1, 0, +1}")
        n_plus = int(np.sum(np.abs(evals - 1.0) < EIGENVALUE_TOL))
        n_minus = int(np.sum(np.abs(evals + 1.0) < EIGENVALUE_TOL))
        if n_plus != 1 or n_minus != 1:
            raise ToleranceError("observable must have exactly one +1 and one -1 eigenvalue")
        projectors = {}
        for value in (1, -1, 0):
            cols = vecs[:, np.abs(evals - value) < EIGENVALUE_TOL]
            projectors[value] = cols @ cols.conj().T
            projectors[value].setflags(write=False)
        object.__setattr__(self, "_projectors", projectors)

    def outcome_projectors(self) -> dict:
        """Read-only spectral projectors for outcomes +1, -1, 0 (used for sampling)."""
        return dict(self._projectors)


def _branch_matrices(basis: LaboratoryBasis):
    """Z- and X-analogue matrices |up><up| - |down><down| and |up><down| + |down><up|."""
    up, down = basis.up_state.amplitudes, basis.down_state.amplitudes
    z = np.outer(up, up.conj()) - np.outer(down, down.conj())
    x = np.outer(up, down.conj()) + np.outer(down, up.conj())
    return z, x


def _macro(m: np.ndarray, label: str) -> MacroObservable:
    return MacroObservable(matrix=OperatorMatrix(m, kind="hermitian"), label=label)


def _rotated(z: np.ndarray, x: np.ndarray, angle: float) -> MacroObservable:
    return _macro(np.cos(angle) * z + np.sin(angle) * x, f"custom({angle})")


def branch_projection_observable(basis: LaboratoryBasis) -> MacroObservable:
    """Z-analogue: +1 on the recorded-up branch, -1 on the recorded-down branch."""
    return _macro(_branch_matrices(basis)[0], "Z")


def interference_observable(basis: LaboratoryBasis) -> MacroObservable:
    """X-analogue: branch-swap observable, +1/-1 on the superposition outputs."""
    return _macro(_branch_matrices(basis)[1], "X")


def rotated_observable(basis: LaboratoryBasis, angle: float) -> MacroObservable:
    """cos(angle) * Z + sin(angle) * X within the branch span."""
    return _rotated(*_branch_matrices(basis), angle)


@dataclass(frozen=True)
class ChshSettings:
    """Two observables per side; defaults give the maximal quantum violation."""

    a1: MacroObservable
    a2: MacroObservable
    b1: MacroObservable
    b2: MacroObservable

    @classmethod
    def default(cls, basis_a: LaboratoryBasis | None = None,
                basis_b: LaboratoryBasis | None = None) -> "ChshSettings":
        basis_a = basis_a or LaboratoryBasis.default()
        basis_b = basis_b or LaboratoryBasis.default()
        za, xa = _branch_matrices(basis_a)
        zb, xb = (za, xa) if basis_b is basis_a else _branch_matrices(basis_b)
        return cls(a1=_macro(za, "Z"), a2=_macro(xa, "X"),
                   b1=_rotated(zb, xb, np.pi / 4), b2=_rotated(zb, xb, -np.pi / 4))

    def pairs(self):
        return (("a1b1", self.a1, self.b1), ("a1b2", self.a1, self.b2),
                ("a2b1", self.a2, self.b1), ("a2b2", self.a2, self.b2))


def build_bell_state(basis_a: LaboratoryBasis | None = None,
                     basis_b: LaboratoryBasis | None = None) -> StateVector:
    """Laboratory-level singlet: (|up_A down_B> - |down_A up_B>) / sqrt(2)."""
    basis_a = basis_a or LaboratoryBasis.default()
    basis_b = basis_b or LaboratoryBasis.default()
    outer = np.multiply.outer  # np.kron of two vectors, without its overhead
    amps = (outer(basis_a.up_state.amplitudes, basis_b.down_state.amplitudes).ravel()
            - outer(basis_a.down_state.amplitudes, basis_b.up_state.amplitudes).ravel())
    return StateVector(amps / np.sqrt(2.0))


def _local_expectation(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> complex:
    """<psi| A (x) B |psi> = tr(M^H A M B^T) for the 16x16 amplitude matrix M,
    contracted without forming the 256x256 product.
    """
    return complex(np.vdot(m, a @ m @ b.T))


def correlation(state: StateVector, obs_a: MacroObservable, obs_b: MacroObservable) -> float:
    """<state| A (x) B |state>."""
    if state.dim != LAB_DIM * LAB_DIM:
        raise ValueError(f"state must live on dimension {LAB_DIM * LAB_DIM}")
    m = state.amplitudes.reshape(LAB_DIM, LAB_DIM)
    val = _local_expectation(m, obs_a.matrix.entries, obs_b.matrix.entries)
    if abs(val.imag) > 1e-10:
        raise ToleranceError(f"correlation has imaginary residue {val.imag:.3e}")
    return val.real


def chsh_from_correlations(corr: dict) -> float:
    """|<A1B1> + <A1B2> + <A2B1> - <A2B2>| from a {setting pair: correlation} dict."""
    return abs(corr["a1b1"] + corr["a1b2"] + corr["a2b1"] - corr["a2b2"])


def chsh_value(state: StateVector, settings: ChshSettings) -> float:
    """CHSH value of the exact correlations."""
    return chsh_from_correlations({name: correlation(state, a, b)
                                   for name, a, b in settings.pairs()})


def lhv_bound() -> float:
    """Exhaustive maximum of the CHSH expression over deterministic strategies.

    Every side assigns fixed values +/-1 to both of its settings; all sixteen
    assignments are enumerated, so the returned ceiling (2) is exact.
    """
    best = 0
    for a1, a2, b1, b2 in itertools.product((-1, 1), repeat=4):
        best = max(best, chsh_from_correlations(
            {"a1b1": a1 * b1, "a1b2": a1 * b2, "a2b1": a2 * b1, "a2b2": a2 * b2}))
    return float(best)


def correlation_sampled(state: StateVector, obs_a: MacroObservable, obs_b: MacroObservable,
                        shots: int, rng: np.random.Generator) -> float:
    """Finite-shot estimate: outcomes sampled from the joint Born distribution.

    Bit for bit the draws of `rng.choice(9, size=shots, p=probs)`, leaving the
    generator in the same state: a uniform u falls in bin #{k: cdf[k] <= u}, so
    #{u >= cdf[k]} draws lie beyond bin k and the outcome sum is an exact integer.
    Each distinct edge is counted once, and 1.0 never. The uniforms come
    `_SHOT_CHUNK` at a time, which draws the same stream.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be between 1 and {MAX_SHOTS}, got {shots}")
    m = state.amplitudes.reshape(LAB_DIM, LAB_DIM)
    proj_b = obs_b.outcome_projectors()
    outcomes, probs = [], []
    for va, pa in obs_a.outcome_projectors().items():
        for vb, pb in proj_b.items():
            pr = _local_expectation(m, pa, pb).real
            outcomes.append(va * vb)
            probs.append(max(pr, 0.0))
    probs = np.array(probs)
    probs /= probs.sum()
    if not np.isfinite(probs).all():
        raise ValueError("probabilities contain NaN")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    edges, slot = np.unique(cdf, return_inverse=True)  # edges[-1] is cdf[-1] = 1.0
    counts = [0] * edges.size
    for start in range(0, shots, _SHOT_CHUNK):
        u = rng.random(min(_SHOT_CHUNK, shots - start))
        for i in range(edges.size - 1):  # every u is below 1.0
            counts[i] += np.count_nonzero(u >= edges[i])
    beyond = [shots] + [counts[i] for i in slot.tolist()]
    return float(sum(v * (beyond[k] - beyond[k + 1]) for k, v in enumerate(outcomes)) / shots)


def chsh_summary(correlations: dict) -> dict:
    """CHSH value of exact or sampled correlations vs the deterministic-assignment
    ceiling, and whether joint outside/inside records are excluded."""
    chsh = chsh_from_correlations(correlations)
    classical = lhv_bound()
    return {
        "correlations": correlations,
        "chsh_value": chsh,
        "lhv_bound": classical,
        "margin": chsh - classical,
        "coexistence_excluded": bool(chsh > classical + 1e-6),
    }
