import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fapplab import echo as echo_mod
from fapplab import spincoarse
from fapplab.errors import ToleranceError
from fapplab.qcore import OperatorMatrix, StateVector
from fapplab.spincoarse import (SolidAngle, SphereGrid, SpinSystem,
                                coherent_kernel, coherent_state, q_function_pure)
from fapplab.echo import (EchoCurve, GaussianPerturbation, SpectralHamiltonian,
                          averaged_q_formula, echo_experiment)

from conftest import random_state, reference_node_overlaps
from oracles import combined_evolution, draw_perturbation, reversibility_measure


@pytest.fixture(scope="module")
def small_setup():
    sys_ = SpinSystem(4)
    grid = SphereGrid.for_spin(sys_)
    h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=11)
    return sys_, grid, h0


class TestSpectralHamiltonian:
    def test_default_is_nondegenerate_with_unit_mean_spacing(self):
        h0 = SpectralHamiltonian.random_dicke_diagonal(SpinSystem(10), seed=3)
        assert h0.min_spacing >= 0.5
        assert h0.mean_spacing == pytest.approx(1.0, abs=0.2)

    def test_degenerate_rejected(self):
        sys_ = SpinSystem(1)
        with pytest.raises(ValueError):
            SpectralHamiltonian(sys=sys_,
                                eigenbasis=OperatorMatrix(np.eye(3), kind="unitary"),
                                eigenvalues=np.array([0.0, 1.0, 1.0]))

    def test_seed_determinism(self):
        a = SpectralHamiltonian.random_dicke_diagonal(SpinSystem(5), seed=42)
        b = SpectralHamiltonian.random_dicke_diagonal(SpinSystem(5), seed=42)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


class TestGaussianPerturbation:
    def test_sigma_must_stay_below_spacing(self, small_setup):
        sys_, _, h0 = small_setup
        with pytest.raises(ValueError):
            GaussianPerturbation(sigma=0.5 * h0.min_spacing, means=np.zeros(sys_.dim),
                                 seed=0, h0=h0)

    def test_zero_sigma_bypass_is_exact(self, small_setup):
        sys_, _, h0 = small_setup
        means = np.linspace(-1, 1, sys_.dim) * 0.01
        pert = GaussianPerturbation(sigma=0.0, means=means, seed=0, h0=h0)
        assert np.array_equal(pert.draw_values(0), means)
        assert np.array_equal(pert.draw_values(7), means)

    def test_sample_moments(self, small_setup):
        sys_, _, h0 = small_setup
        sigma = 0.05
        means = np.full(sys_.dim, 0.3) * sigma
        pert = GaussianPerturbation(sigma=sigma, means=means, seed=5, h0=h0)
        draws = np.array([pert.draw_values(i) for i in range(10000)])
        # mean within 4 standard errors of the mean, per level
        se = sigma / np.sqrt(2) / 100
        assert np.all(np.abs(draws.mean(axis=0) - means) < 4 * se)
        # the density has variance sigma^2 / 2
        assert_allclose(draws.var(axis=0), sigma ** 2 / 2, rtol=0.10)

    def test_draws_deterministic_and_independent(self, small_setup):
        sys_, _, h0 = small_setup
        pert = GaussianPerturbation(sigma=0.05, means=np.zeros(sys_.dim), seed=9, h0=h0)
        assert np.array_equal(pert.draw_values(3), pert.draw_values(3))
        assert not np.array_equal(pert.draw_values(3), pert.draw_values(4))

    def test_operator_is_diagonal_hermitian(self, small_setup):
        sys_, _, h0 = small_setup
        pert = GaussianPerturbation(sigma=0.05, means=np.zeros(sys_.dim), seed=9, h0=h0)
        v = draw_perturbation(pert, 0)
        assert v.kind == "hermitian"
        assert np.max(np.abs(v.entries - np.diag(np.diag(v.entries)))) == 0.0


class TestCombinedEvolution:
    def test_no_perturbation_is_identity(self, small_setup, rng):
        sys_, _, h0 = small_setup
        psi = StateVector(random_state(rng, sys_.dim))
        v = OperatorMatrix(np.zeros((sys_.dim, sys_.dim)), kind="hermitian")
        out = combined_evolution(psi, h0, v, 17.3)
        assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_zero_time_is_identity(self, small_setup, rng):
        sys_, _, h0 = small_setup
        psi = StateVector(random_state(rng, sys_.dim))
        v = OperatorMatrix(np.diag(rng.uniform(-0.01, 0.01, sys_.dim)).astype(complex),
                           kind="hermitian")
        assert_allclose(combined_evolution(psi, h0, v, 0.0).amplitudes,
                        psi.amplitudes, atol=1e-14)

    def test_two_level_closed_form(self):
        # single relative phase: |<psi|out>|^2 = 1 - 4 |a|^2 |b|^2 sin^2(v t / 2)
        sys_ = SpinSystem(0.5)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=1)
        psi = StateVector(np.array([0.6, 0.8], dtype=complex))
        v = OperatorMatrix(np.diag([0.0, 0.37]).astype(complex), kind="hermitian")
        for t in (0.5, 2.0, 7.0):
            out = combined_evolution(psi, h0, v, t)
            survival = abs(np.vdot(psi.amplitudes, out.amplitudes)) ** 2
            closed = 1 - 4 * 0.36 * 0.64 * np.sin(0.37 * t / 2) ** 2
            assert survival == pytest.approx(closed, abs=1e-12)

    def test_offdiagonal_perturbation_rejected(self, small_setup, rng):
        sys_, _, h0 = small_setup
        psi = StateVector(random_state(rng, sys_.dim))
        bad = np.zeros((sys_.dim, sys_.dim), dtype=complex)
        bad[0, 1] = bad[1, 0] = 0.01
        with pytest.raises(ToleranceError):
            combined_evolution(psi, h0, OperatorMatrix(bad, kind="hermitian"), 1.0)


class TestReversibilityMeasure:
    def test_unperturbed_is_one(self, small_setup):
        sys_, grid, h0 = small_setup
        psi = coherent_state(sys_, SolidAngle(np.pi / 3, 0.0))
        v = OperatorMatrix(np.zeros((sys_.dim, sys_.dim)), kind="hermitian")
        assert reversibility_measure(psi, h0, v, 5.0, sys_, grid) == pytest.approx(
            1.0, abs=1e-8)

    def test_zero_time_is_one(self, small_setup):
        sys_, grid, h0 = small_setup
        psi = coherent_state(sys_, SolidAngle(np.pi / 3, 0.0))
        pert = GaussianPerturbation(sigma=0.05, means=np.zeros(sys_.dim), seed=2, h0=h0)
        v = draw_perturbation(pert, 0)
        assert reversibility_measure(psi, h0, v, 0.0, sys_, grid) == pytest.approx(
            1.0, abs=1e-8)

    def test_strong_dephasing_destroys_most_overlap(self):
        # j = 20 coherent state at four dephasing times: the overlap falls from 1
        # to the dephased-ring plateau (ensemble mean about 0.44, never to zero:
        # the level-population ring still intersects the initial spot).
        sys_ = SpinSystem(20)
        grid = SphereGrid.for_spin(sys_)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=7)
        sigma = 0.05 * h0.mean_spacing
        pert = GaussianPerturbation(sigma=sigma, means=np.zeros(sys_.dim), seed=8, h0=h0)
        psi = coherent_state(sys_, SolidAngle(np.pi / 3, 0.0))
        vals = [reversibility_measure(psi, h0, draw_perturbation(pert, i),
                                      4.0 / sigma, sys_, grid)
                for i in range(30)]
        assert 0.25 < np.mean(vals) < 0.60
        assert max(vals) < 0.95


def rotated_hamiltonian(sys_, rng):
    """Non-degenerate H0 whose eigenbasis is a random unitary, not the Dicke basis."""
    q, _ = np.linalg.qr(rng.standard_normal((sys_.dim, sys_.dim))
                        + 1j * rng.standard_normal((sys_.dim, sys_.dim)))
    return SpectralHamiltonian(sys=sys_, eigenbasis=OperatorMatrix(q, kind="unitary"),
                               eigenvalues=np.arange(sys_.dim, dtype=float))


@pytest.fixture(scope="module")
def echo_run():
    sys_ = SpinSystem(6)
    grid = SphereGrid.for_spin(sys_)
    h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=21)
    sigma = 0.05 * h0.mean_spacing
    pert = GaussianPerturbation(sigma=sigma, means=np.zeros(sys_.dim), seed=22, h0=h0)
    psi = coherent_state(sys_, SolidAngle(np.pi / 3, 0.0))
    times = np.array([0.0, 1 / sigma, 2 / sigma, 4 / sigma])
    curve = echo_experiment(psi, h0, pert, times, 200, sys_, grid)
    return sys_, grid, h0, pert, psi, curve


class TestEchoExperiment:
    def test_overlap_range_and_start(self, echo_run):
        *_, curve = echo_run
        assert np.all(curve.mean_overlap >= 0) and np.all(curve.mean_overlap <= 1)
        assert curve.mean_overlap[0] == pytest.approx(1.0, abs=1e-10)

    def test_bound_column_is_gaussian(self, echo_run):
        _, _, _, pert, _, curve = echo_run
        assert_allclose(curve.analytic_bound,
                        np.exp(-(pert.sigma * curve.times) ** 2 / 4), atol=1e-15)
        # spot value: at t = 2/sigma the bound is e^{-1}
        assert curve.analytic_bound[2] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_determinism(self, echo_run):
        sys_, grid, h0, pert, psi, curve = echo_run
        again = echo_experiment(psi, h0, pert, curve.times, 200, sys_, grid)
        assert np.array_equal(curve.mean_overlap, again.mean_overlap)
        assert np.array_equal(curve.std_error, again.std_error)

    def test_constant_means_equal_zero_means(self, echo_run):
        # a constant level shift is a global phase: identical member overlaps
        sys_, grid, h0, pert, psi, curve = echo_run
        shifted = GaussianPerturbation(sigma=pert.sigma,
                                       means=np.full(sys_.dim, 0.337 * pert.sigma),
                                       seed=pert.seed, h0=h0)
        other = echo_experiment(psi, h0, shifted, curve.times, 200, sys_, grid)
        assert np.max(np.abs(other.mean_overlap - curve.mean_overlap)) <= \
            2 * np.max(curve.std_error) + 1e-12

    def test_every_member_dominates_quantum_overlap(self, echo_run):
        sys_, grid, h0, pert, psi, curve = echo_run
        for member in range(200):
            v = draw_perturbation(pert, member)
            for t in curve.times:
                out = combined_evolution(psi, h0, v, t)
                macro = reversibility_measure(psi, h0, v, t, sys_, grid)
                assert macro >= abs(np.vdot(psi.amplitudes, out.amplitudes)) - 1e-10

    def test_mean_overlap_obeys_exact_jensen_bound(self, echo_run):
        # <(P,Q)> <= integral of sqrt(P <Q>) with the exact averaged Q
        sys_, grid, h0, pert, psi, curve = echo_run
        q0 = q_function_pure(psi, sys_, grid)
        for i, t in enumerate(curve.times):
            qbar = averaged_q_formula(psi, h0, pert, t, sys_, grid)
            jensen = float(np.sum(grid.weights * np.sqrt(q0.values * qbar)))
            assert curve.mean_overlap[i] <= jensen + 3 * curve.std_error[i] + 1e-12

    def test_batch_matches_member_loop(self, rng):
        # the batched ensemble against one reversibility_measure per member
        sys_ = SpinSystem(4)
        grid = SphereGrid.for_spin(sys_)
        h0 = rotated_hamiltonian(sys_, rng)
        pert = GaussianPerturbation(sigma=0.05, means=np.zeros(sys_.dim), seed=3, h0=h0)
        psi = coherent_state(sys_, SolidAngle(1.0, 0.5))
        times = np.array([0.0, 20.0, 80.0])
        curve = echo_experiment(psi, h0, pert, times, 100, sys_, grid)
        loop = np.array([[reversibility_measure(psi, h0, draw_perturbation(pert, m), t,
                                                sys_, grid) for t in times]
                         for m in range(100)])
        assert_allclose(curve.mean_overlap, loop.mean(axis=0), rtol=0, atol=1e-12)
        assert_allclose(curve.std_error, loop.std(axis=0, ddof=1) / 10, rtol=0, atol=1e-12)

    def test_sigma_zero_stays_at_one(self):
        sys_ = SpinSystem(3)
        grid = SphereGrid.for_spin(sys_)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=4)
        pert = GaussianPerturbation(sigma=0.0, means=np.zeros(sys_.dim), seed=5, h0=h0)
        psi = coherent_state(sys_, SolidAngle(1.0, 1.0))
        curve = echo_experiment(psi, h0, pert, [0.0, 5.0, 50.0], 100, sys_, grid)
        assert_allclose(curve.mean_overlap, 1.0, atol=1e-8)

    def test_minimum_ensemble(self, echo_run):
        sys_, grid, h0, pert, psi, _ = echo_run
        with pytest.raises(ValueError):
            echo_experiment(psi, h0, pert, [0.0, 1.0], 50, sys_, grid)


def reference_echo(psi, h0, pert, times, ensemble_size, sys_, grid):
    """echo_experiment's member loop as it was before the in-place reduction
    and the equal-member shortcut: every member of every time through the
    allocate-per-chunk reference kernel."""
    q_before = q_function_pure(psi, sys_, grid)
    weighted_before = grid.weights * np.sqrt(q_before.values)
    u = h0.eigenbasis.entries
    coeff = u.conj().T @ psi.amplitudes
    norm = (2 * sys_.j + 1) / (4 * np.pi)
    values = np.array([pert.draw_values(member) for member in range(ensemble_size)])
    overlaps = np.empty((ensemble_size, times.size))
    for it, t in enumerate(times):
        members = (np.exp(1j * values * t) * coeff) @ u.T
        for chunk, q_after in reference_node_overlaps(sys_, grid, members):
            overlaps[chunk, it] = np.sum(weighted_before * np.sqrt(norm * q_after), axis=1)
    np.clip(overlaps, 0.0, 1.0, out=overlaps)
    return overlaps.mean(axis=0), overlaps.std(axis=0, ddof=1) / np.sqrt(ensemble_size)


class TestEchoBuffers:
    """The in-place member reduction and the one-member shortcut keep the bits
    of the reference loop, at every chunk budget."""

    J = 12
    ENSEMBLE = 100

    @pytest.fixture(params=["identity-with-0", "identity-sparse", "rotated-with-0",
                            "rotated-without-0", "sigma-0"])
    def setup(self, request):
        sys_ = SpinSystem(self.J)
        grid = SphereGrid.for_spin(sys_)
        rng = np.random.default_rng(77)
        if request.param.startswith("rotated"):
            h0 = rotated_hamiltonian(sys_, rng)
        else:
            h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=5)
        sigma = 0.0 if request.param == "sigma-0" else 0.05 * h0.mean_spacing
        means = rng.uniform(-0.01, 0.01, sys_.dim) * h0.mean_spacing
        pert = GaussianPerturbation(sigma=sigma, means=means, seed=6, h0=h0)
        psi = coherent_state(sys_, SolidAngle(1.1, 0.4))
        if request.param == "identity-sparse":
            # members agree on every level but two, and differ on those
            psi = StateVector(np.eye(sys_.dim)[3] + np.eye(sys_.dim)[8], normalize=True)
        times = np.array([0.0, 7.0, 30.0, 90.0])
        if request.param == "rotated-without-0":
            times = times[1:]
        return psi, h0, pert, times, self.ENSEMBLE, sys_, grid

    @pytest.mark.parametrize("states_per_chunk", ["default", 1, 7, "all"])
    def test_matches_reference_loop_bits(self, setup, states_per_chunk, monkeypatch):
        # 7 states a chunk leaves the last one ragged; 64 MiB holds all in one
        grid = setup[-1]
        if states_per_chunk != "default":
            nbytes = 64 * 2**20 if states_per_chunk == "all" else \
                16 * grid.size * states_per_chunk
            monkeypatch.setattr(spincoarse, "OVERLAP_CHUNK_BYTES", nbytes)
        curve = echo_experiment(*setup)
        mean, std_error = reference_echo(*setup)
        assert np.array_equal(curve.mean_overlap, mean)
        assert np.array_equal(curve.std_error, std_error)

    def test_one_member_evaluated_when_all_are_equal(self, setup, monkeypatch):
        rows = []

        def counting(sys_, grid, states):
            rows.append(len(states))
            return spincoarse._node_overlaps(sys_, grid, states)

        monkeypatch.setattr(echo_mod, "_node_overlaps", counting)
        psi, h0, pert, times, ensemble, sys_, grid = setup
        echo_experiment(*setup)
        bypass = pert.sigma < echo_mod.SIGMA_BYPASS
        assert rows == [1 if (t == 0.0 or bypass) else ensemble for t in times]

    def test_memory_peak_bounded_by_chunk_budget(self):
        # j = 50, 300 members: the two chunk buffers (complex overlaps and
        # their real |.|^2) plus a few member-sized arrays; a kernel that
        # allocates its 8 MiB chunks afresh peaks near 29 MiB here
        sys_ = SpinSystem(50)
        grid = SphereGrid.for_spin(sys_)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=1)
        sigma = 0.05 * h0.mean_spacing
        pert = GaussianPerturbation(sigma=sigma, means=np.zeros(sys_.dim), seed=2, h0=h0)
        psi = coherent_state(sys_, SolidAngle(1.0, 0.3))
        times = np.array([0.0, 1 / sigma, 2 / sigma, 4 / sigma])
        ensemble = 300
        members_bytes = ensemble * sys_.dim * 16
        tracemalloc.start()
        try:
            echo_experiment(psi, h0, pert, times, ensemble, sys_, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 2 * spincoarse.OVERLAP_CHUNK_BYTES + 6 * members_bytes
        assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


class TestAveragedQFormula:
    def test_monte_carlo_matches_exact_average(self):
        """The ensemble mean of Q converges on the closed form in which the
        off-diagonal level pairs are damped by exp(-(sigma t)^2/2) while the
        diagonal level populations survive undamped."""
        sys_ = SpinSystem(10)
        grid = SphereGrid.for_spin(sys_)
        kernel = coherent_kernel(sys_, grid)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=31)
        sigma = 0.05 * h0.mean_spacing
        pert = GaussianPerturbation(sigma=sigma, means=np.zeros(sys_.dim), seed=32, h0=h0)
        psi = coherent_state(sys_, SolidAngle(np.pi / 3, 0.0))
        n = 400
        norm = (2 * sys_.j + 1) / (4 * np.pi)
        for t in (1 / sigma, 4 / sigma):
            qvals = np.empty((n, grid.size))
            for i in range(n):
                out = combined_evolution(psi, h0, draw_perturbation(pert, i), t)
                qvals[i] = norm * np.abs(kernel.conj() @ out.amplitudes) ** 2
            mc_mean = qvals.mean(axis=0)
            mc_se = qvals.std(axis=0, ddof=1) / np.sqrt(n)
            exact = averaged_q_formula(psi, h0, pert, t, sys_, grid)
            dev = np.abs(mc_mean - exact)
            assert np.all(dev <= 5 * mc_se + 1e-12), f"t={t}"

    def test_rotated_eigenbasis_matches_dense_oracle(self, rng):
        sys_ = SpinSystem(6)
        grid = SphereGrid.for_spin(sys_)
        kernel = coherent_kernel(sys_, grid)
        h0 = rotated_hamiltonian(sys_, rng)
        pert = GaussianPerturbation(sigma=0.1, means=rng.uniform(-0.01, 0.01, sys_.dim),
                                    seed=4, h0=h0)
        psi = coherent_state(sys_, SolidAngle(2.0, 1.0))
        u = h0.eigenbasis.entries
        coeff = u.conj().T @ psi.amplitudes
        ku = kernel.conj() @ u
        norm = (2 * sys_.j + 1) / (4 * np.pi)
        for t in (0.0, 7.0, 30.0):
            damping = np.exp(-(pert.sigma * t) ** 2 / 2)
            coherent = np.abs(ku @ (np.exp(1j * pert.means * t) * coeff)) ** 2
            dephased = np.abs(ku) ** 2 @ np.abs(coeff) ** 2
            oracle = norm * (damping * coherent + (1 - damping) * dephased)
            got = averaged_q_formula(psi, h0, pert, t, sys_, grid)
            assert np.max(np.abs(got - oracle)) <= 1e-12 * oracle.max()

    def test_reduces_to_plain_q_at_t0(self):
        sys_ = SpinSystem(5)
        grid = SphereGrid.for_spin(sys_)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=1)
        pert = GaussianPerturbation(sigma=0.05, means=np.zeros(sys_.dim), seed=2, h0=h0)
        psi = coherent_state(sys_, SolidAngle(0.9, 0.2))
        formula = averaged_q_formula(psi, h0, pert, 0.0, sys_, grid)
        direct = q_function_pure(psi, sys_, grid).values
        assert_allclose(formula, direct, atol=1e-12)


class TestEchoCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            EchoCurve(times=[0.0, 1.0], mean_overlap=[1.0], std_error=[0.0, 0.0],
                      analytic_bound=[1.0, 0.9])
        with pytest.raises(ToleranceError):
            EchoCurve(times=[0.0, 1.0], mean_overlap=[0.5, 0.4],
                      std_error=[0.0, 0.0], analytic_bound=[1.0, 0.9])
