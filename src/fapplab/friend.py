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
from .qcore import OperatorMatrix, ProductSpace, StateVector

STAGES = ("initial", "post-stern-gerlach", "post-observer", "post-message")

Z_PLUS = np.array([1.0, 0.0], dtype=complex)
Z_MINUS = np.array([0.0, 1.0], dtype=complex)
X_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

MESSAGE_BLANK = np.array([0.0, 0.0, 1.0], dtype=complex)
MESSAGE_DEFINITE = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class LabSpace:
    """Five-system laboratory layout; observer dimension 2 or 3."""

    observer_dim: int = 2
    layout: ProductSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.observer_dim not in (2, 3):
            raise ValueError("observer dimension must be 2 or 3")
        object.__setattr__(self, "layout", ProductSpace((2, 2, 2, self.observer_dim, 3)))

    @property
    def total_dim(self) -> int:
        return self.layout.total_dim

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


def _apply_local(state: LabState, gate: OperatorMatrix, first_factor: int,
                 new_stage: str) -> LabState:
    """Apply a gate on the adjacent factors starting at `first_factor`: the
    amplitudes are reshaped to (left, gate.dim, right) and multiplied once.
    """
    left = math.prod(state.space.layout.factor_dims[:first_factor])
    amps = state.psi.amplitudes.reshape(left, gate.dim, -1)
    return LabState(space=state.space,
                    psi=StateVector(np.matmul(gate.entries, amps)),
                    stage=new_stage)


def prepare_initial(space: LabSpace) -> LabState:
    """Atom along +x, both organs down, observer ready, message blank."""
    layout = space.layout
    amps = np.zeros(layout.total_dim, dtype=complex)
    for atom in (0, 1):
        amps[layout.flat_index((atom, 1, 1, space.ready_index, 2))] = X_PLUS[atom]
    return LabState(space=space, psi=StateVector(amps), stage="initial")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) as an outer product and a reshape: the same products, so
    the same bits, without np.kron's overhead."""
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(len(a) * len(b), -1)


def stern_gerlach_unitary(space: LabSpace) -> OperatorMatrix:
    """8x8 branch recorder on (atom, organ-up, organ-down): the up branch flips
    organ 2, the down branch flips organ 3. Self-inverse on the z basis.
    """
    p_up = np.outer(Z_PLUS, Z_PLUS.conj())
    p_down = np.outer(Z_MINUS, Z_MINUS.conj())
    u123 = _kron(_kron(p_up, FLIP), np.eye(2)) + _kron(_kron(p_down, np.eye(2)), FLIP)
    return OperatorMatrix(u123, kind="unitary")


def stern_gerlach(state: LabState) -> LabState:
    _require_stage(state, "initial")
    return _apply_local(state, stern_gerlach_unitary(state.space), 0, "post-stern-gerlach")


def observer_unitary(space: LabSpace) -> OperatorMatrix:
    """(4 d4)x(4 d4) observer readout on (organ-up, organ-down, observer): the
    (+,-) organ pattern writes "knows up", the (-,+) pattern writes "knows down".
    """
    d4 = space.observer_dim
    ready = space.ready_index
    g_up = np.eye(d4, dtype=complex)
    g_down = np.eye(d4, dtype=complex)
    if d4 == 2:
        g_down = FLIP  # ready |0> -> |1>, i.e. "knows down"
    else:
        g_up[[0, ready]] = g_up[[ready, 0]]
        g_down[[1, ready]] = g_down[[ready, 1]]
    p_up_branch = _kron(np.outer(Z_PLUS, Z_PLUS.conj()), np.outer(Z_MINUS, Z_MINUS.conj()))
    p_down_branch = _kron(np.outer(Z_MINUS, Z_MINUS.conj()), np.outer(Z_PLUS, Z_PLUS.conj()))
    p_rest = np.eye(4) - p_up_branch - p_down_branch
    u234 = (_kron(p_up_branch, g_up) + _kron(p_down_branch, g_down)
            + _kron(p_rest, np.eye(d4)))
    return OperatorMatrix(u234, kind="unitary")


def observer_coupling(state: LabState) -> LabState:
    _require_stage(state, "post-stern-gerlach")
    return _apply_local(state, observer_unitary(state.space), 1, "post-observer")


def write_message(state: LabState) -> LabState:
    """Set the message qutrit to the definite-outcome announcement.

    Implemented as a local unitary on system 5 alone, so the laboratory
    superposition is untouched and the global state stays a product with the
    message factor.
    """
    _require_stage(state, "post-observer")
    u5 = np.zeros((3, 3), dtype=complex)
    u5[:, 2] = MESSAGE_DEFINITE
    u5[:, 0] = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    u5[:, 1] = np.array([0.0, 0.0, 1.0])
    return _apply_local(state, OperatorMatrix(u5, kind="unitary"), 4, "post-message")


def branch_states(space: LabSpace) -> tuple[StateVector, StateVector]:
    """The two recorded branches of systems 1-4: "all agree up" and "all agree down"."""
    layout = ProductSpace((2, 2, 2, space.observer_dim))
    return (StateVector.basis(layout.total_dim, layout.flat_index((0, 0, 1, 0))),
            StateVector.basis(layout.total_dim, layout.flat_index((1, 1, 0, 1))))


def interference_states(space: LabSpace) -> tuple[StateVector, StateVector]:
    """Superposition-basis output states (branch sum and difference)."""
    return _superpositions(*branch_states(space))


def _superpositions(up: StateVector, down: StateVector) -> tuple[StateVector, StateVector]:
    return (StateVector((up.amplitudes + down.amplitudes) / np.sqrt(2.0)),
            StateVector((up.amplitudes - down.amplitudes) / np.sqrt(2.0)))


def interference_measurement(state, space: LabSpace | None = None):
    """Probabilities of the two superposition-basis outcomes on systems 1-4.

    Accepts a LabState (post-observer or post-message), or a bare StateVector
    / density OperatorMatrix living on the systems-1-4 subspace. Returns
    (p_plus, p_minus, p_rest) with p_rest the weight outside the two-output span.
    """
    if isinstance(state, LabState):
        return _lab_interference(state, *interference_states(state.space))
    if space is None:
        space = LabSpace(observer_dim=2)
    plus, minus = interference_states(space)
    if isinstance(state, StateVector):
        if state.dim != plus.dim:
            raise ValueError(f"expected a state of dimension {plus.dim}")
        p_plus = abs(np.vdot(plus.amplitudes, state.amplitudes)) ** 2
        p_minus = abs(np.vdot(minus.amplitudes, state.amplitudes)) ** 2
    elif isinstance(state, OperatorMatrix):
        if state.dim != plus.dim:
            raise ValueError(f"expected an operator of dimension {plus.dim}")
        if not state.is_density():
            raise ValueError("operator input must be a density matrix")
        p_plus = float(np.real(plus.amplitudes.conj() @ state.entries @ plus.amplitudes))
        p_minus = float(np.real(minus.amplitudes.conj() @ state.entries @ minus.amplitudes))
    else:
        raise TypeError("state must be LabState, StateVector, or OperatorMatrix")
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


def branch_probabilities(state: LabState) -> tuple[float, float]:
    """Weights of the two recorded branches in a post-observer state."""
    up, down = branch_states(state.space)
    return (_subsystem_probability(state, up), _subsystem_probability(state, down))


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
    return _mutual_information(state, message_reduced_state(state))


def _mutual_information(state: LabState, rho5: OperatorMatrix) -> float:
    m = state.psi.amplitudes.reshape(-1, 3)
    s14 = _entropy(_reduced(m @ m.conj().T))
    return _entropy(rho5) + s14  # global state is pure, so S(total) = 0


def _entropy(rho: OperatorMatrix) -> float:
    evals = np.linalg.eigvalsh(rho.entries)
    evals = evals[evals > 1e-15]
    return float(-np.sum(evals * np.log(evals)))


def run_pipeline(space: LabSpace | None = None) -> dict:
    """Full experiment with a report of the quantities the outside agent checks."""
    if space is None:
        space = LabSpace(observer_dim=2)
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
        "message_mutual_information": _mutual_information(state_msg, rho5),
    }
