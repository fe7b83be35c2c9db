import numpy as np
import pytest
from numpy.testing import assert_allclose

from fapplab.errors import StageError
from fapplab.qcore import (OperatorMatrix, StateVector, partial_trace, tensor_all)
from fapplab.friend import (MESSAGE_BLANK, X_PLUS, LabSpace, LabState, branch_states,
                            interference_measurement, interference_states,
                            message_mutual_information, message_purity, message_reduced_state,
                            observer_coupling, prepare_initial, run_pipeline, stern_gerlach,
                            write_message)
from oracles import (Z_MINUS, lift, lifted_observer_coupling, lifted_stern_gerlach,
                     observer_gate, stern_gerlach_gate)


@pytest.fixture(params=[2, 3], ids=["observer2", "observer3"])
def space(request):
    return LabSpace(observer_dim=request.param)


@pytest.fixture
def space2():
    return LabSpace(observer_dim=2)


class TestPreparation:
    def test_reduced_atom_is_plus_x(self, space):
        state = prepare_initial(space)
        rho1 = partial_trace(state.psi.density(), space.factor_dims, keep=[0])
        xplus = np.array([1, 1]) / np.sqrt(2)
        assert_allclose(rho1.entries, np.outer(xplus, xplus), atol=1e-14)

    def test_sense_organs_start_down(self, space):
        state = prepare_initial(space)
        rho23 = partial_trace(state.psi.density(), space.factor_dims, keep=[1, 2])
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0  # both organs in |z->
        assert_allclose(rho23.entries, expected, atol=1e-14)

    def test_global_purity(self, space):
        state = prepare_initial(space)
        rho = state.psi.density().entries
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_stage(self, space):
        assert prepare_initial(space).stage == "initial"

    def test_bits_equal_tensor_product(self, space):
        ready = StateVector.basis(space.observer_dim, space.ready_index)
        want = tensor_all([StateVector(X_PLUS), StateVector(Z_MINUS), StateVector(Z_MINUS),
                           ready, StateVector(MESSAGE_BLANK)])
        got = prepare_initial(space).psi.amplitudes
        assert np.array_equal(got.view(np.int64), want.amplitudes.view(np.int64))


class TestSternGerlach:
    # the oracle gates' properties hold for the library's recordings, which
    # TestUnitariesAgainstKron ties to the oracles bit for bit
    def test_unitary(self, space):
        u = stern_gerlach_gate()
        assert u.shape == (8, 8)  # local gate on (atom, organ-up, organ-down)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12
        lifted = lifted_stern_gerlach(space)
        assert np.array_equal(lifted @ lifted.conj().T, np.eye(space.total_dim))

    def test_branch_recording(self, space2):
        state = stern_gerlach(prepare_initial(space2))
        amps = state.psi.amplitudes
        # (|z+,z+,z-> + |z-,z-,z+>)/sqrt2 on systems 1-3, observer ready, blank msg
        idx_up = np.ravel_multi_index((0, 0, 1, 0, 2), space2.factor_dims)
        idx_down = np.ravel_multi_index((1, 1, 0, 0, 2), space2.factor_dims)
        expected = np.zeros(space2.total_dim, dtype=complex)
        expected[idx_up] = expected[idx_down] = 1 / np.sqrt(2)
        assert_allclose(amps, expected, atol=1e-14)

    def test_definite_input_stays_product(self, space2):
        # atom prepared in |z+>: organ 2 flips, nothing entangles
        psi = tensor_all([StateVector([1, 0]), StateVector([0, 1]), StateVector([0, 1]),
                          StateVector.basis(2, space2.ready_index),
                          StateVector(MESSAGE_BLANK)])
        state = LabState(space=space2, psi=psi, stage="initial")
        out = stern_gerlach(state)
        for factor in range(5):
            rho = partial_trace(out.psi.density(), space2.factor_dims, keep=[factor])
            purity = np.trace(rho.entries @ rho.entries).real
            assert purity == pytest.approx(1.0, abs=1e-12), f"factor {factor}"
        rho2 = partial_trace(out.psi.density(), space2.factor_dims, keep=[1])
        assert_allclose(rho2.entries, [[1, 0], [0, 0]], atol=1e-14)  # flipped to up

    def test_self_inverse_on_definite_inputs(self, space2):
        u = stern_gerlach_gate()
        assert np.max(np.abs(u @ u - np.eye(8))) < 1e-12

    def test_wrong_stage_rejected(self, space2):
        state = stern_gerlach(prepare_initial(space2))
        with pytest.raises(StageError):
            stern_gerlach(state)


class TestObserverCoupling:
    def test_unitary(self, space):
        u = observer_gate(space)
        d = 4 * space.observer_dim  # local gate on (organ-up, organ-down, observer)
        assert u.shape == (d, d)
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-12
        lifted = lifted_observer_coupling(space)
        assert np.array_equal(lifted @ lifted.conj().T, np.eye(space.total_dim))

    def test_reaches_superposition_output(self, space):
        state = observer_coupling(stern_gerlach(prepare_initial(space)))
        plus, _ = interference_states(space)
        # full state must be |plus> (x) |blank message>
        full_expected = np.kron(plus.amplitudes, MESSAGE_BLANK)
        overlap = abs(np.vdot(full_expected, state.psi.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_observer_marginal_maximally_mixed_on_knows_states(self, space):
        state = observer_coupling(stern_gerlach(prepare_initial(space)))
        rho4 = partial_trace(state.psi.density(), space.factor_dims, keep=[3])
        expected = np.zeros((space.observer_dim, space.observer_dim))
        expected[0, 0] = expected[1, 1] = 0.5
        assert_allclose(rho4.entries, expected, atol=1e-14)

    def test_wrong_stage_rejected(self, space2):
        with pytest.raises(StageError):
            observer_coupling(prepare_initial(space2))


class TestWriteMessage:
    def test_message_purity_one(self, space):
        state = write_message(observer_coupling(stern_gerlach(prepare_initial(space))))
        assert message_purity(state) == pytest.approx(1.0, abs=1e-12)

    def test_no_mutual_information(self, space):
        state = write_message(observer_coupling(stern_gerlach(prepare_initial(space))))
        assert message_mutual_information(state) < 1e-10

    def test_interference_probabilities_unchanged(self, space):
        before = observer_coupling(stern_gerlach(prepare_initial(space)))
        after = write_message(before)
        p_before = interference_measurement(before)
        p_after = interference_measurement(after)
        assert_allclose(p_before, p_after, atol=1e-12)

    def test_superposition_amplitude_untouched(self, space2):
        before = observer_coupling(stern_gerlach(prepare_initial(space2)))
        after = write_message(before)
        plus, _ = interference_states(space2)
        m_before = before.psi.amplitudes.reshape(-1, 3)
        m_after = after.psi.amplitudes.reshape(-1, 3)
        amp_before = np.linalg.norm(plus.amplitudes.conj() @ m_before)
        amp_after = np.linalg.norm(plus.amplitudes.conj() @ m_after)
        assert amp_after == pytest.approx(amp_before, abs=1e-12)

    def test_wrong_stage_rejected(self, space2):
        with pytest.raises(StageError):
            write_message(prepare_initial(space2))


class TestInterferenceMeasurement:
    def test_superposition_state_gives_definite_output(self, space):
        state = observer_coupling(stern_gerlach(prepare_initial(space)))
        p_plus, p_minus, p_rest = interference_measurement(state)
        assert p_plus == pytest.approx(1.0, abs=1e-12)
        assert p_minus == pytest.approx(0.0, abs=1e-12)
        assert p_rest == pytest.approx(0.0, abs=1e-12)

    def test_collapsed_mixture_gives_even_odds(self, space2):
        up, down = branch_states(space2)
        mixed = 0.5 * (np.outer(up.amplitudes, up.amplitudes.conj())
                       + np.outer(down.amplitudes, down.amplitudes.conj()))
        p_plus, p_minus, _ = interference_measurement(
            OperatorMatrix(mixed, kind="hermitian"), space2)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_minus == pytest.approx(0.5, abs=1e-12)

    def test_single_branch_gives_even_odds(self, space2):
        up, _ = branch_states(space2)
        p_plus, p_minus, _ = interference_measurement(up.density(), space2)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_minus == pytest.approx(0.5, abs=1e-12)

    def test_rest_weight_reported(self, space2):
        # a state orthogonal to both outputs: atom up, both organs still down
        outside = tensor_all([StateVector([1, 0]), StateVector([0, 1]),
                              StateVector([0, 1]),
                              StateVector.basis(2, 0)])
        p_plus, p_minus, p_rest = interference_measurement(outside.density(), space2)
        assert p_plus == p_minus == 0.0
        assert p_rest == pytest.approx(1.0, abs=1e-12)


class TestBranchStates:
    def test_equal_to_tensor_product_oracle(self, space):
        z_plus, z_minus = StateVector([1, 0]), StateVector([0, 1])
        up = tensor_all([z_plus, z_plus, z_minus, StateVector.basis(space.observer_dim, 0)])
        down = tensor_all([z_minus, z_minus, z_plus, StateVector.basis(space.observer_dim, 1)])
        got_up, got_down = branch_states(space)
        assert np.array_equal(got_up.amplitudes, up.amplitudes)
        assert np.array_equal(got_down.amplitudes, down.amplitudes)


class TestComplementarity:
    def test_noncommuting_branch_and_interference_observables(self, space2):
        up, down = branch_states(space2)
        plus, minus = interference_states(space2)
        a1 = (np.outer(up.amplitudes, up.amplitudes.conj())
              - np.outer(down.amplitudes, down.amplitudes.conj()))
        a2 = (np.outer(plus.amplitudes, plus.amplitudes.conj())
              - np.outer(minus.amplitudes, minus.amplitudes.conj()))
        commutator = a1 @ a2 - a2 @ a1
        assert np.max(np.abs(commutator)) > 0.9  # exactly 2i|u><d| blocks

    def test_sharp_interference_with_maximal_branch_uncertainty(self, space2):
        # both read from one post-observer state
        report = run_pipeline(space2)
        assert report["p_plus_pre_message"] == pytest.approx(1.0, abs=1e-12)
        assert report["branch_probability_up"] == pytest.approx(0.5, abs=1e-12)
        assert report["branch_probability_down"] == pytest.approx(0.5, abs=1e-12)


class TestPipelineReport:
    def test_report_contents(self, space):
        report = run_pipeline(space)
        assert report["fidelity_superposition_output"] == pytest.approx(1.0, abs=1e-12)
        assert report["branch_probability_up"] == pytest.approx(0.5, abs=1e-12)
        assert report["branch_probability_down"] == pytest.approx(0.5, abs=1e-12)
        assert report["p_plus_post_message"] == pytest.approx(1.0, abs=1e-12)
        assert report["message_purity"] == pytest.approx(1.0, abs=1e-12)
        assert report["message_mutual_information"] < 1e-10


class TestUnitariesAgainstKron:
    """The two recordings move amplitudes instead of multiplying a gate. On
    every basis state, and on a random state, every bit, signed zeros
    included, must match the chained np.kron gate lifted onto the laboratory:
    a coupling that also touched the (z+, z+) or (z-, z-) organ patterns,
    where the pipeline's state has no weight, would fail here.
    """

    @staticmethod
    def assert_matches(step, stage, space, lifted):
        n = space.total_dim
        got = np.column_stack([
            step(LabState(space=space, psi=StateVector.basis(n, k), stage=stage)).psi.amplitudes
            for k in range(n)])
        assert np.array_equal(got.view(np.int64), lifted.view(np.int64))
        rng = np.random.default_rng(11)
        psi = StateVector(rng.normal(size=n) + 1j * rng.normal(size=n), normalize=True)
        got = step(LabState(space=space, psi=psi, stage=stage)).psi.amplitudes
        assert np.array_equal(got.view(np.int64), (lifted @ psi.amplitudes).view(np.int64))

    def test_stern_gerlach(self, space):
        self.assert_matches(stern_gerlach, "initial", space, lifted_stern_gerlach(space))

    def test_observer(self, space):
        self.assert_matches(observer_coupling, "post-stern-gerlach", space,
                            lifted_observer_coupling(space))


class TestLocalGatesAgainstFullSpaceOracle:
    """The recordings, the message gate and the reduced states against the
    full-space route: Kronecker-lifted 48x48 / 72x72 unitaries and partial
    traces of |psi><psi|.
    """

    def test_pipeline_amplitudes(self, space):
        d4 = space.observer_dim
        u5 = np.zeros((3, 3), dtype=complex)  # write_message's gate on the message qutrit
        u5[:, 0] = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        u5[:, 1] = [0.0, 0.0, 1.0]
        u5[:, 2] = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)

        state = prepare_initial(space)
        psi = state.psi.amplitudes
        for step, u in ((stern_gerlach, lifted_stern_gerlach(space)),
                        (observer_coupling, lifted_observer_coupling(space)),
                        (write_message, lift(u5, 8 * d4, 1))):
            state = step(state)
            psi = u @ psi
            assert_allclose(state.psi.amplitudes, psi, rtol=0, atol=1e-15)

    def test_reduced_states(self, space):
        # a random state entangles the message with systems 1-4, unlike the pipeline
        rng = np.random.default_rng(5)
        amps = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
        state = LabState(space=space, psi=StateVector(amps, normalize=True),
                         stage="post-message")
        rho = state.psi.density()
        rho5 = partial_trace(rho, space.factor_dims, [4]).entries
        rho14 = partial_trace(rho, space.factor_dims, [0, 1, 2, 3]).entries
        assert_allclose(message_reduced_state(state).entries, rho5, rtol=0, atol=1e-15)

        def entropy(r):
            evals = np.linalg.eigvalsh(r)
            evals = evals[evals > 1e-15]
            return -np.sum(evals * np.log(evals))

        mutual = entropy(rho5) + entropy(rho14)
        assert mutual > 0.1
        assert message_mutual_information(state) == pytest.approx(mutual, abs=1e-12)
