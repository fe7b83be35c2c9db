import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from fapplab.errors import ToleranceError
from fapplab.qcore import (OperatorMatrix, ProductSpace, StateVector, evolve,
                           expectation, partial_trace, tensor, tensor_all)

from conftest import SIGMA_X, SIGMA_Z, random_hermitian, random_state


def sv(*amps):
    return StateVector(np.array(amps, dtype=complex), normalize=True)


X_PLUS = sv(1, 1)
X_MINUS = sv(1, -1)
Y_PLUS = sv(1, 1j)
Y_MINUS = sv(1, -1j)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ToleranceError):
            StateVector([1.0, 1.0])

    def test_normalize_flag(self):
        s = StateVector([3.0, 4.0], normalize=True)
        assert_allclose(np.linalg.norm(s.amplitudes), 1.0, atol=1e-15)

    def test_immutable(self):
        s = StateVector.basis(2, 0)
        with pytest.raises((AttributeError, ValueError)):
            s.amplitudes[0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_non_finite_rejected(self, bad, normalize):
        # abs(nan - 1) > NORM_TOL is False, so the norm check alone lets NaN in
        with pytest.raises(ValueError, match="finite"):
            StateVector(np.array([bad, 0, 0]), normalize=normalize)


class TestOperatorMatrix:
    def test_kind_checks(self):
        with pytest.raises(ToleranceError):
            OperatorMatrix([[0, 1], [0, 0]], kind="hermitian")
        with pytest.raises(ToleranceError):
            OperatorMatrix([[1, 0], [0, 2]], kind="unitary")
        with pytest.raises(ToleranceError):
            OperatorMatrix([[0.5, 0], [0, 0]], kind="projector")
        OperatorMatrix(SIGMA_Z, kind="hermitian")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0)])
    @pytest.mark.parametrize("kind", ["generic", "hermitian", "unitary", "projector"])
    def test_non_finite_rejected(self, kind, bad):
        # every kind check compares a deviation `> tol`, which is False for NaN
        m = np.eye(2, dtype=complex)
        m[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            OperatorMatrix(m, kind=kind)


class TestProductSpace:
    def test_index_bijection(self):
        space = ProductSpace((2, 3, 4))
        assert space.total_dim == 24
        for flat in range(space.total_dim):
            assert space.flat_index(space.multi_index(flat)) == flat

    def test_leftmost_most_significant(self):
        space = ProductSpace((2, 3))
        assert space.flat_index((1, 0)) == 3
        assert space.flat_index((0, 2)) == 2


class TestTensor:
    def test_basis_composition(self):
        out = tensor(sv(1, 0), sv(0, 1))
        assert_allclose(out.amplitudes, [0, 1, 0, 0])

    def test_identity_product(self):
        i2 = OperatorMatrix.identity(2)
        out = tensor(i2, i2)
        assert_allclose(out.entries, np.eye(4))

    def test_hand_expansion(self):
        # (|0> + |1>)/sqrt2 tensor |1>
        out = tensor(X_PLUS, sv(0, 1))
        assert_allclose(out.amplitudes, [0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2)], atol=1e-15)

    def test_associativity_exact_on_basis(self):
        a, b, c = sv(1, 0), sv(0, 1), sv(1, 0, 0)
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.array_equal(left.amplitudes, right.amplitudes)

    def test_associativity_random(self, rng):
        a = StateVector(random_state(rng, 2))
        b = StateVector(random_state(rng, 3))
        c = StateVector(random_state(rng, 2))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert_allclose(left.amplitudes, right.amplitudes, atol=1e-15)

    def test_kind_propagation(self):
        h = OperatorMatrix(SIGMA_Z, kind="hermitian")
        u = OperatorMatrix(SIGMA_X, kind="unitary")
        assert tensor(h, h).kind == "hermitian"
        assert tensor(u, u).kind == "unitary"
        assert tensor(h, u).kind == "generic"


class TestPartialTrace:
    def test_product_basis(self):
        space = ProductSpace((2, 2))
        rho = tensor(sv(1, 0), sv(1, 0)).density()
        out = partial_trace(rho, space, keep=[0])
        assert_allclose(out.entries, [[1, 0], [0, 0]], atol=1e-15)

    def test_maximally_entangled(self):
        space = ProductSpace((2, 2))
        bell = sv(1, 0, 0, 1)
        for keep in ([0], [1]):
            out = partial_trace(bell.density(), space, keep=keep)
            assert_allclose(out.entries, np.eye(2) / 2, atol=1e-12)

    def test_keep_all_identity(self, rng):
        space = ProductSpace((2, 3))
        psi = StateVector(random_state(rng, 6))
        out = partial_trace(psi.density(), space, keep=[0, 1])
        assert_allclose(out.entries, psi.density().entries, atol=1e-15)

    def test_product_state_factors(self, rng):
        space = ProductSpace((3, 4))
        a = StateVector(random_state(rng, 3))
        b = StateVector(random_state(rng, 4))
        rho = tensor(a, b).density()
        assert_allclose(partial_trace(rho, space, [0]).entries, a.density().entries,
                        atol=1e-12)
        assert_allclose(partial_trace(rho, space, [1]).entries, b.density().entries,
                        atol=1e-12)

    def test_rejects_non_density(self):
        space = ProductSpace((2, 2))
        bad = OperatorMatrix(np.eye(4))  # trace 4
        with pytest.raises(ValueError):
            partial_trace(bad, space, keep=[0])

    def test_rejects_dim_mismatch(self):
        space = ProductSpace((2, 2))
        rho = sv(1, 0).density()
        with pytest.raises(ValueError):
            partial_trace(rho, space, keep=[0])


class TestExpectation:
    def test_pauli_values(self):
        sz = OperatorMatrix(SIGMA_Z, kind="hermitian")
        sx = OperatorMatrix(SIGMA_X, kind="hermitian")
        assert_allclose(expectation(sz, sv(1, 0)), 1.0, atol=1e-14)
        assert_allclose(expectation(sz, X_PLUS), 0.0, atol=1e-14)
        assert_allclose(expectation(sx, X_PLUS), 1.0, atol=1e-14)

    def test_non_hermitian_rejected(self):
        bad = OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ToleranceError):
            expectation(bad, sv(1, 0))


class TestEvolve:
    def test_zero_time(self, rng):
        psi = StateVector(random_state(rng, 4))
        h = OperatorMatrix(random_hermitian(rng, 4), kind="hermitian")
        assert evolve(psi, h, 0.0).fidelity(psi) == pytest.approx(1.0, abs=1e-14)

    def test_eigenstate_phase(self):
        sz = OperatorMatrix(SIGMA_Z, kind="hermitian")
        out = evolve(sv(1, 0), sz, np.pi)
        assert out.fidelity(sv(1, 0)) == pytest.approx(1.0, abs=1e-14)
        # the phase itself is e^{-i pi} = -1
        assert_allclose(out.amplitudes[0], -1.0, atol=1e-14)

    def test_half_turn_about_z(self):
        # exp(-i sigma_z t) rotates the Bloch vector by 2t about z, so
        # t = pi/2 carries |x+> to |x-> and leaves equal weight on |y+->.
        sz = OperatorMatrix(SIGMA_Z, kind="hermitian")
        out = evolve(X_PLUS, sz, np.pi / 2)
        oracle = StateVector(expm(-1j * SIGMA_Z * np.pi / 2) @ X_PLUS.amplitudes)
        assert out.fidelity(oracle) == pytest.approx(1.0, abs=1e-12)
        assert out.fidelity(X_MINUS) == pytest.approx(1.0, abs=1e-12)
        assert out.fidelity(Y_MINUS) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert out.fidelity(Y_PLUS) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_quarter_turn_reaches_y(self):
        sz = OperatorMatrix(SIGMA_Z, kind="hermitian")
        assert evolve(X_PLUS, sz, np.pi / 4).fidelity(Y_PLUS) == pytest.approx(1.0, abs=1e-12)
        assert evolve(X_PLUS, sz, -np.pi / 4).fidelity(Y_MINUS) == pytest.approx(1.0, abs=1e-12)

    def test_against_expm_oracle(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            h = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            t = float(rng.uniform(-5, 5))
            ours = evolve(StateVector(psi), OperatorMatrix(h, kind="hermitian"), t)
            oracle = expm(-1j * h * t) @ psi
            assert_allclose(ours.amplitudes, oracle, atol=1e-10)

    def test_norm_preservation(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 65))
            h = OperatorMatrix(random_hermitian(rng, dim), kind="hermitian")
            psi = StateVector(random_state(rng, dim))
            out = evolve(psi, h, float(rng.uniform(0, 10)))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_composition(self, rng):
        h = OperatorMatrix(random_hermitian(rng, 6), kind="hermitian")
        psi = StateVector(random_state(rng, 6))
        t1, t2 = 0.7, 1.9
        two_step = evolve(evolve(psi, h, t1), h, t2)
        one_step = evolve(psi, h, t1 + t2)
        assert_allclose(two_step.amplitudes, one_step.amplitudes, atol=1e-9)

    def test_reversal(self, rng):
        h = OperatorMatrix(random_hermitian(rng, 8), kind="hermitian")
        psi = StateVector(random_state(rng, 8))
        back = evolve(evolve(psi, h, 2.3), h, -2.3)
        assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-9)

    def test_non_hermitian_rejected(self):
        bad = OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ToleranceError):
            evolve(sv(1, 0), bad, 1.0)


def test_tensor_all_order():
    out = tensor_all([sv(1, 0), sv(0, 1), sv(1, 0)])
    expected = np.zeros(8)
    expected[2] = 1.0  # binary 010, leftmost most significant
    assert_allclose(out.amplitudes, expected)
