"""Sealed-laboratory measurement pipeline observed from outside: an atom
passes a z-oriented beam splitter, two sense-organ qubits record the branch,
an observer couples to the organs, a message qutrit announces "definite
outcome" without revealing which, and the outside agent measures in the
superposition basis.

Factor layout (leftmost most significant): atom, organ-up, organ-down,
observer, message. Qubit convention |z+> = (1,0), |z-> = (0,1). Observer of
dimension 2 starts ready in index 0, which doubles as "knows up"; dimension 3
uses the encoding 0 = knows up, 1 = knows down, 2 = ready / no outcome.
The message qutrit starts blank (index 2); the written "definite outcome"
message is the symmetric pure state (|0> + |1>)/sqrt(2), which carries no
which-outcome information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StageError
from .qcore import OperatorMatrix, StateVector

STAGES = ("initial", "post-stern-gerlach", "post-observer", "post-message")

X_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

MESSAGE_BLANK = np.array([0.0, 0.0, 1.0], dtype=complex)
MESSAGE_DEFINITE = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class LabSpace:
    """Five-system laboratory layout; observer dimension 2 or 3."""

    observer_dim: int
    factor_dims: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.observer_dim not in (2, 3):
            raise ValueError("observer dimension must be 2 or 3")
        object.__setattr__(self, "factor_dims", (2, 2, 2, self.observer_dim, 3))

    @property
    def total_dim(self) -> int:
        return math.prod(self.factor_dims)

    @property
    def ready_index(self) -> int:
        return 0 if self.observer_dim == 2 else 2


@dataclass(frozen=True)
class LabState:
    """Pure state of the five systems plus the pipeline stage tag."""

    space: LabSpace
    psi: StateVector
    stage: str

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.psi.dim != self.space.total_dim:
            raise ValueError("state dimension does not match the laboratory layout")


def _require_stage(state: LabState, *allowed: str):
    if state.stage not in allowed:
        raise StageError(f"operation requires stage in {allowed}, state is at {state.stage!r}")


def _staged(state: LabState, amps: np.ndarray, new_stage: str) -> LabState:
    return LabState(space=state.space, psi=StateVector(amps), stage=new_stage)


def prepare_initial(space: LabSpace) -> LabState:
    """Atom along +x, both organs down, observer ready, message blank."""
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[np.ravel_multi_index(((0, 1), 1, 1, space.ready_index, 2), space.factor_dims)] = X_PLUS
    return LabState(space=space, psi=StateVector(amps), stage="initial")


def stern_gerlach(state: LabState) -> LabState:
    """Branch recorder on (atom, organ-up, organ-down): the up branch flips
    organ-up, the down branch flips organ-down. The amplitudes only move, so
    the record is unitary and self-inverse on the z basis.
    """
    _require_stage(state, "initial")
    amps = state.psi.amplitudes.reshape(state.space.factor_dims)
    return _staged(state, np.stack((amps[0, ::-1], amps[1, :, ::-1])), "post-stern-gerlach")


def observer_coupling(state: LabState) -> LabState:
    """Observer readout on (organ-up, organ-down, observer): the (+,-) organ
    pattern swaps ready with "knows up", the (-,+) pattern swaps ready with
    "knows down", and every other amplitude stays where it is.
    """
    _require_stage(state, "post-stern-gerlach")
    ready = state.space.ready_index
    src = state.psi.amplitudes.reshape(state.space.factor_dims)
    amps = src.copy()
    for up, down, knows in ((0, 1, 0), (1, 0, 1)):  # organ pattern, observer level it writes
        amps[:, up, down, [ready, knows]] = src[:, up, down, [knows, ready]]
    return _staged(state, amps, "post-observer")


def write_message(state: LabState) -> LabState:
    """Set the message qutrit to the definite-outcome announcement.

    Implemented as a local unitary on system 5 alone, so the laboratory
    superposition is untouched and the global state stays a product with the
    message factor. It is the one gate that mixes amplitudes, so it alone is
    a validated matrix.
    """
    _require_stage(state, "post-observer")
    u5 = np.zeros((3, 3), dtype=complex)
    u5[:, 2] = MESSAGE_DEFINITE
    u5[:, 0] = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    u5[:, 1] = np.array([0.0, 0.0, 1.0])
    gate = OperatorMatrix(u5, kind="unitary")
    return _staged(state, np.matmul(gate.entries, state.psi.amplitudes.reshape(-1, 3, 1)),
                   "post-message")


def branch_states(space: LabSpace) -> tuple[StateVector, StateVector]:
    """The two recorded branches of systems 1-4: "all agree up" and "all agree down"."""
    dims = space.factor_dims[:4]
    return (StateVector.basis(math.prod(dims), np.ravel_multi_index((0, 0, 1, 0), dims)),
            StateVector.basis(math.prod(dims), np.ravel_multi_index((1, 1, 0, 1), dims)))


def interference_states(space: LabSpace) -> tuple[StateVector, StateVector]:
    """Superposition-basis output states (branch sum and difference)."""
    return _superpositions(*branch_states(space))


def _superpositions(up: StateVector, down: StateVector) -> tuple[StateVector, StateVector]:
    return (StateVector((up.amplitudes + down.amplitudes) / np.sqrt(2.0)),
            StateVector((up.amplitudes - down.amplitudes) / np.sqrt(2.0)))


def interference_measurement(state, space: LabSpace | None = None):
    """Probabilities of the two superposition-basis outcomes on systems 1-4.

    Accepts a LabState (post-observer or post-message) or a density
    OperatorMatrix living on the systems-1-4 subspace. Returns
    (p_plus, p_minus, p_rest) with p_rest the weight outside the two-output span.
    """
    if isinstance(state, LabState):
        return _lab_interference(state, *interference_states(state.space))
    if not isinstance(state, OperatorMatrix):
        raise TypeError("state must be a LabState or a density OperatorMatrix")
    plus, minus = interference_states(space or LabSpace(observer_dim=2))
    if state.dim != plus.dim:
        raise ValueError(f"expected an operator of dimension {plus.dim}")
    if not state.is_density():
        raise ValueError("operator input must be a density matrix")
    p_plus = float(np.real(plus.amplitudes.conj() @ state.entries @ plus.amplitudes))
    p_minus = float(np.real(minus.amplitudes.conj() @ state.entries @ minus.amplitudes))
    return _with_rest(p_plus, p_minus)


def _lab_interference(state: LabState, plus: StateVector, minus: StateVector):
    _require_stage(state, "post-observer", "post-message")
    return _with_rest(_subsystem_probability(state, plus), _subsystem_probability(state, minus))


def _with_rest(p_plus, p_minus):
    return float(p_plus), float(p_minus), float(max(0.0, 1.0 - p_plus - p_minus))


def _subsystem_probability(state: LabState, target_14: StateVector) -> float:
    """Weight of |target><target| (x) identity_message in the full state."""
    d4 = state.space.observer_dim
    m = state.psi.amplitudes.reshape(8 * d4, 3)
    amp = target_14.amplitudes.conj() @ m  # residual message-space vector
    return float(np.real(np.vdot(amp, amp)))


def _reduced(rho: np.ndarray) -> OperatorMatrix:
    """Tag a reduced state; it is PSD with unit trace because psi is normalized."""
    return OperatorMatrix(0.5 * (rho + rho.conj().T), kind="hermitian")


def message_reduced_state(state: LabState) -> OperatorMatrix:
    """Message factor's state M^T M* from the (systems 1-4) x message amplitude matrix M."""
    m = state.psi.amplitudes.reshape(-1, 3)
    return _reduced(m.T @ m.conj())


def message_purity(state: LabState) -> float:
    return _purity(message_reduced_state(state))


def _purity(rho: OperatorMatrix) -> float:
    return float(np.real(np.trace(rho.entries @ rho.entries)))


def message_mutual_information(state: LabState) -> float:
    """Mutual information between the message and the rest (0 for a product state)."""
    return _mutual_information(message_reduced_state(state))


def _mutual_information(rho5: OperatorMatrix) -> float:
    """S(rho_1-4) + S(rho5) - S(total): the global state is pure, so S(total)
    = 0 and, by its Schmidt decomposition, S(rho_1-4) = S(rho5)."""
    return 2 * _entropy(rho5)


def _entropy(rho: OperatorMatrix) -> float:
    evals = np.linalg.eigvalsh(rho.entries)
    evals = evals[evals > 1e-15]
    return float(-np.sum(evals * np.log(evals)))


def run_pipeline(space: LabSpace) -> dict:
    """Full experiment with a report of the quantities the outside agent checks."""
    state_tp = observer_coupling(stern_gerlach(prepare_initial(space)))
    up, down = branch_states(space)  # one set of states serves every readout
    plus, minus = _superpositions(up, down)

    p_plus_pre, p_minus_pre, p_rest_pre = _lab_interference(state_tp, plus, minus)
    b_up, b_down = _subsystem_probability(state_tp, up), _subsystem_probability(state_tp, down)
    state_msg = write_message(state_tp)
    p_plus_post, p_minus_post, p_rest_post = _lab_interference(state_msg, plus, minus)
    rho5 = message_reduced_state(state_msg)

    m = state_tp.psi.amplitudes.reshape(8 * space.observer_dim, 3)
    blank_component = m @ MESSAGE_BLANK.conj()
    fidelity_plus = abs(np.vdot(plus.amplitudes, blank_component))

    return {
        "observer_dim": space.observer_dim,
        "fidelity_superposition_output": float(fidelity_plus),
        "branch_probability_up": b_up,
        "branch_probability_down": b_down,
        "p_plus_pre_message": p_plus_pre,
        "p_minus_pre_message": p_minus_pre,
        "p_rest_pre_message": p_rest_pre,
        "p_plus_post_message": p_plus_post,
        "p_minus_post_message": p_minus_post,
        "p_rest_post_message": p_rest_post,
        "message_purity": _purity(rho5),
        "message_mutual_information": _mutual_information(rho5),
    }
