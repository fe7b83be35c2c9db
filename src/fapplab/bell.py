"""Bell test on laboratory-level records: two sealed laboratories of four
qubits each share a singlet across their recorded branches, the outside
agents measure branch ("which outcome") or interference observables, and a
brute-force enumeration of deterministic value assignments supplies the
classical ceiling of the CHSH expression.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ToleranceError
from .friend import LabSpace, branch_states
from .qcore import OperatorMatrix, StateVector, owned

#: one laboratory's recorded systems: friend's atom, two organs and a two-level observer
LAB_DIM = math.prod(LabSpace(observer_dim=2).factor_dims[:4])
EIGENVALUE_TOL = 1e-10
# uniforms drawn at once by `correlation_sampled`: 512 KiB, so memory stays
# bounded for any shot count
_SHOT_CHUNK = 65536
# most shots per correlation: a sampled run takes ~30 ns per shot over its 4
# correlations (2 cores), so 30 s at the cap, minutes if all 8 edges differ
MAX_SHOTS = 10**9


def default_branches() -> tuple[StateVector, StateVector]:
    """(up, down) recorded branches of a two-level observer's sealed laboratory."""
    return branch_states(LabSpace(observer_dim=2))


@dataclass(frozen=True)
class MacroObservable:
    """Plus/minus-one valued observable supported on the two-branch span.

    The operator annihilates the orthogonal complement of span{up, down}, so
    its spectrum is {+1, -1} on the span and 0 elsewhere. Then A^3 = A, and
    (A^2 + A)/2, (A^2 - A)/2 and 1 - A^2 are its outcome projectors, with no
    eigendecomposition: ||A^3 - A||_F <= EIGENVALUE_TOL holds only if every
    eigenvalue lies within about EIGENVALUE_TOL of {-1, 0, +1}.
    """

    matrix: OperatorMatrix
    _projectors: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.matrix.dim != LAB_DIM:
            raise ValueError(f"observable must act on dimension {LAB_DIM}")
        if self.matrix.kind != "hermitian":
            raise ToleranceError(f"observable must be hermitian, got kind {self.matrix.kind!r}")
        m = self.matrix.entries
        square = m @ m
        residue = square @ m - m
        if math.sqrt(np.vdot(residue, residue).real) > EIGENVALUE_TOL:
            raise ToleranceError("observable eigenvalues must lie in {-1, 0, +1}")
        plus, minus = (square + m) / 2, (square - m) / 2
        if round(np.trace(plus).real) != 1 or round(np.trace(minus).real) != 1:
            raise ToleranceError("observable must have exactly one +1 and one -1 eigenvalue")
        object.__setattr__(self, "_projectors", {
            1: owned(plus, complex), -1: owned(minus, complex),
            0: owned(np.eye(LAB_DIM) - square, complex)})

    def outcome_projectors(self) -> dict:
        """Read-only spectral projectors for outcomes +1, -1, 0 (used for sampling)."""
        return dict(self._projectors)


def _branch_matrices(branches):
    """Z- and X-analogue matrices |up><up| - |down><down| and |up><down| + |down><up|."""
    up, down = (state.amplitudes for state in branches)
    z = np.outer(up, up.conj()) - np.outer(down, down.conj())
    x = np.outer(up, down.conj()) + np.outer(down, up.conj())
    return z, x


def _macro(m: np.ndarray) -> MacroObservable:
    return MacroObservable(matrix=OperatorMatrix(m, kind="hermitian"))


def _rotated(z: np.ndarray, x: np.ndarray, angle: float) -> MacroObservable:
    return _macro(np.cos(angle) * z + np.sin(angle) * x)


@dataclass(frozen=True)
class ChshSettings:
    """Two observables per side; defaults give the maximal quantum violation."""

    a1: MacroObservable
    a2: MacroObservable
    b1: MacroObservable
    b2: MacroObservable

    @classmethod
    def default(cls, branches=None) -> "ChshSettings":
        z, x = _branch_matrices(branches or default_branches())
        return cls(a1=_macro(z), a2=_macro(x),
                   b1=_rotated(z, x, np.pi / 4), b2=_rotated(z, x, -np.pi / 4))

    def pairs(self):
        return (("a1b1", self.a1, self.b1), ("a1b2", self.a1, self.b2),
                ("a2b1", self.a2, self.b1), ("a2b2", self.a2, self.b2))


def build_bell_state(branches=None) -> StateVector:
    """Laboratory-level singlet: (|up_A down_B> - |down_A up_B>) / sqrt(2), with
    one (up, down) pair of branches in both laboratories."""
    up, down = (state.amplitudes for state in branches or default_branches())
    outer = np.multiply.outer  # np.kron of two vectors, without its overhead
    return StateVector((outer(up, down).ravel() - outer(down, up).ravel()) / np.sqrt(2.0))


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


def _largest_form(corr: dict) -> tuple[str, float]:
    """(name, |value|) of the CHSH form of largest absolute value, the first on a
    tie. With the absolute value the four sign placements are all eight CHSH
    inequalities, which hold together iff the four records have a joint
    distribution (Fine, PRL 48, 291 (1982))."""
    e11, e12, e21, e22 = (corr[name] for name in ("a1b1", "a1b2", "a2b1", "a2b2"))
    forms = {"a1b1+a1b2+a2b1-a2b2": e11 + e12 + e21 - e22,
             "a1b1+a1b2-a2b1+a2b2": e11 + e12 - e21 + e22,
             "a1b1-a1b2+a2b1+a2b2": e11 - e12 + e21 + e22,
             "-a1b1+a1b2+a2b1+a2b2": -e11 + e12 + e21 + e22}
    name = max(forms, key=lambda form: abs(forms[form]))
    return name, abs(forms[name])


def chsh_value(state: StateVector, settings: ChshSettings) -> float:
    """CHSH value of the exact correlations."""
    return _largest_form({name: correlation(state, a, b)
                          for name, a, b in settings.pairs()})[1]


def lhv_bound() -> float:
    """Exhaustive maximum of the CHSH value over deterministic strategies.

    Every side assigns fixed values +/-1 to both of its settings; all sixteen
    assignments are enumerated, so the returned ceiling (2) is exact.
    """
    best = 0
    for a1, a2, b1, b2 in itertools.product((-1, 1), repeat=4):
        best = max(best, _largest_form(
            {"a1b1": a1 * b1, "a1b2": a1 * b2, "a2b1": a2 * b1, "a2b2": a2 * b2})[1])
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
    ceiling, the form that attains it, and whether joint outside/inside records
    are excluded."""
    form, chsh = _largest_form(correlations)
    classical = lhv_bound()
    return {
        "correlations": correlations,
        "chsh_form": form,
        "chsh_value": chsh,
        "lhv_bound": classical,
        "margin": chsh - classical,
        "coexistence_excluded": bool(chsh > classical + 1e-6),
    }
