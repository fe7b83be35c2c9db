import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fapplab import echo as echo_mod
from fapplab import parallel, spincoarse
from fapplab.errors import ToleranceError
from fapplab.qcore import OperatorMatrix, StateVector
from fapplab.spincoarse import (SolidAngle, SphereGrid, SpinSystem,
                                coherent_kernel, coherent_state, q_function_pure)
from fapplab.echo import (MAX_ENSEMBLE, MAX_RUN_EVALS, MAX_RUN_OVERLAPS, EchoCurve,
                          GaussianPerturbation, SpectralHamiltonian, averaged_q_formula,
                          echo_experiment)

from conftest import random_state, reference_node_overlaps
from oracles import (combined_evolution, draw_perturbation, reversibility_measure,
                     seeded_values, spin_half_overlap_moments)


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
            SpectralHamiltonian(sys=sys_, eigenvalues=np.array([0.0, 1.0, 1.0]))

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

    def test_zero_sigma_draws_the_means(self, small_setup):
        sys_, _, h0 = small_setup
        means = np.linspace(-1, 1, sys_.dim) * 0.01
        pert = GaussianPerturbation(sigma=0.0, means=means, seed=0, h0=h0)
        draws = pert.draw_values(range(8))
        assert draws.shape == (8, sys_.dim)
        assert all(np.array_equal(row, means) for row in draws)

    def test_sample_moments(self, small_setup):
        sys_, _, h0 = small_setup
        sigma = 0.05
        means = np.full(sys_.dim, 0.3) * sigma
        pert = GaussianPerturbation(sigma=sigma, means=means, seed=5, h0=h0)
        draws = pert.draw_values(range(10000))
        # mean within 4 standard errors of the mean, per level
        se = sigma / np.sqrt(2) / 100
        assert np.all(np.abs(draws.mean(axis=0) - means) < 4 * se)
        # the density has variance sigma^2 / 2
        assert_allclose(draws.var(axis=0), sigma ** 2 / 2, rtol=0.10)

    def test_draws_deterministic_and_independent(self, small_setup):
        sys_, _, h0 = small_setup
        pert = GaussianPerturbation(sigma=0.05, means=np.zeros(sys_.dim), seed=9, h0=h0)
        assert np.array_equal(pert.draw_values(range(3, 4)), pert.draw_values(range(3, 4)))
        # a member's row does not depend on the range it is drawn in
        assert np.array_equal(pert.draw_values(range(3, 4))[0],
                              pert.draw_values(range(1, 5))[2])
        assert not np.array_equal(pert.draw_values(range(3, 4))[0],
                                  pert.draw_values(range(4, 5))[0])

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None, True])
    def test_seed_must_be_non_negative_integer(self, small_setup, seed):
        sys_, _, h0 = small_setup
        with pytest.raises(ValueError, match="seed"):
            GaussianPerturbation(sigma=0.05, means=np.zeros(sys_.dim), seed=seed, h0=h0)

    def test_numpy_integer_seed_is_stored_as_int(self, small_setup):
        sys_, _, h0 = small_setup
        pert = GaussianPerturbation(sigma=0.05, means=np.zeros(sys_.dim), seed=np.int64(9),
                                    h0=h0)
        assert type(pert.seed) is int and pert.seed == 9

    def test_negative_member_rejected(self, small_setup):
        sys_, _, h0 = small_setup
        pert = GaussianPerturbation(sigma=0.05, means=np.zeros(sys_.dim), seed=9, h0=h0)
        with pytest.raises(ValueError, match="indices"):
            pert.draw_values(range(-1, 2))

    # one-word, multi-word and >= 2**128 entropies, and sigma = 0
    @pytest.mark.parametrize("seed, sigma", [
        (seed, 0.05) for seed in (0, 1, 7, 2**31 - 1, 2**32, 2**32 + 5, 2**64 + 3,
                                  2**127 + 11, 2**140 + 9, 12345678901234567890)
    ] + [(3, 0.0)])
    def test_block_draw_is_numpys_per_member_stream(self, small_setup, seed, sigma):
        """Every row keeps the bits of the member's own SeedSequence route."""
        sys_, _, h0 = small_setup
        means = np.linspace(-1, 1, sys_.dim) * 0.01
        pert = GaussianPerturbation(sigma=sigma, means=means, seed=seed, h0=h0)
        starts = np.random.default_rng(seed % 2**32).integers(2, MAX_ENSEMBLE - 1, 6)
        ranges = ([range(0, 2), range(MAX_ENSEMBLE - 1, MAX_ENSEMBLE), range(5, 3000, 331)]
                  + [range(k, k + 2) for k in starts])
        for members in ranges:
            block = pert.draw_values(members)
            oracle = np.array([seeded_values(pert, i) for i in members])
            assert np.array_equal(block.view(np.int64), oracle.view(np.int64)), members

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

    def test_batch_matches_member_loop(self):
        # the batched ensemble against one reversibility_measure per member
        sys_ = SpinSystem(4)
        grid = SphereGrid.for_spin(sys_)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=12)
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

    def test_overlap_depends_on_sigma_t_alone(self):
        # with zero means a member's phases are N sigma t / sqrt(2): (sigma, t)
        # and (sigma / 100, 100 t) give one curve down to the smallest sigma
        sys_ = SpinSystem(3)
        grid = SphereGrid.for_spin(sys_)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=1)
        psi = coherent_state(sys_, SolidAngle(1.0, 0.3))
        for scale in (1e-13, 1e-14, 1e-15, 1e-16, 1e-17):
            s = scale * h0.mean_spacing
            curves = []
            for sigma, t in ((s, 1 / s), (s / 100, 100 / s)):
                pert = GaussianPerturbation(sigma=sigma, means=np.zeros(sys_.dim), seed=2, h0=h0)
                curves.append(echo_experiment(psi, h0, pert, [0.0, t], 100,
                                              sys_, grid).mean_overlap)
            assert_allclose(curves[0], curves[1], rtol=0, atol=1e-9, err_msg=f"{scale}")
            assert curves[0][1] < 0.99, scale  # the curve has decayed at sigma t = 1

    def test_run_caps_checked_before_any_draw(self, monkeypatch):
        def must_not_run(self, members):
            raise AssertionError("a member was drawn before the run size was checked")

        # the default four times at MAX_J with 500 members stay admitted
        assert 500 * 4 * spincoarse.MAX_GRID_AXIS ** 2 <= MAX_RUN_EVALS
        monkeypatch.setattr(GaussianPerturbation, "draw_values", must_not_run)
        # at j = 1/2 the member-times cap fires: 9 nodes each, 8 B of overlaps
        # per member-time; at j = 50 the evaluation cap, on few times
        for j, times, cap in ((0.5, MAX_RUN_OVERLAPS // MAX_ENSEMBLE + 1, "member-times"),
                              (50, 7, "evaluations")):
            sys_ = SpinSystem(j)
            grid = SphereGrid.for_spin(sys_)
            h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=1)
            pert = GaussianPerturbation(sigma=0.01 * h0.min_spacing, means=np.zeros(sys_.dim),
                                        seed=2, h0=h0)
            psi = coherent_state(sys_, SolidAngle(0.9, 0.2))
            with pytest.raises(ValueError, match=cap):
                echo_experiment(psi, h0, pert, np.arange(times, dtype=float), MAX_ENSEMBLE,
                                sys_, grid)

    def test_empty_times_rejected(self, echo_run):
        sys_, grid, h0, pert, psi, _ = echo_run
        with pytest.raises(ValueError, match="at least one time"):
            echo_experiment(psi, h0, pert, [], 100, sys_, grid)

    def test_minimum_ensemble(self, echo_run):
        sys_, grid, h0, pert, psi, _ = echo_run
        with pytest.raises(ValueError):
            echo_experiment(psi, h0, pert, [0.0, 1.0], 50, sys_, grid)

    def test_mismatched_hamiltonian_rejected(self, echo_run):
        sys_, grid, _, pert, psi, _ = echo_run
        other = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=99)
        with pytest.raises(ValueError, match="different Hamiltonian"):
            echo_experiment(psi, other, pert, [0.0, 1.0], 100, sys_, grid)
        with pytest.raises(ValueError, match="different Hamiltonian"):
            averaged_q_formula(psi, other, pert, 1.0, sys_, grid)
        # another object with the same spectrum is the same Hamiltonian
        twin = SpectralHamiltonian(sys=sys_, eigenvalues=pert.h0.eigenvalues)
        assert np.array_equal(averaged_q_formula(psi, twin, pert, 1.0, sys_, grid),
                              averaged_q_formula(psi, pert.h0, pert, 1.0, sys_, grid))


def reference_echo(psi, h0, pert, times, ensemble_size, sys_, grid):
    """echo_experiment's member loop as it was before the in-place reduction
    and the t = 0 column read from psi's Q: every member of every time through
    the allocate-per-chunk reference kernel."""
    q_before = q_function_pure(psi, sys_, grid)
    weighted_before = grid.weights * np.sqrt(q_before.values)
    norm = (2 * sys_.j + 1) / (4 * np.pi)
    values = np.array([seeded_values(pert, member) for member in range(ensemble_size)])
    overlaps = np.empty((ensemble_size, times.size))
    for it, t in enumerate(times):
        members = np.exp(1j * values * t) * psi.amplitudes
        for chunk, q_after in reference_node_overlaps(sys_, grid, members):
            overlaps[chunk, it] = np.sum(weighted_before * np.sqrt(norm * q_after), axis=1)
    np.clip(overlaps, 0.0, 1.0, out=overlaps)
    return overlaps.mean(axis=0), overlaps.std(axis=0, ddof=1) / np.sqrt(ensemble_size)


class TestEchoBuffers:
    """The in-place member reduction and the t = 0 column read from psi's Q
    keep the bits of the reference loop, at every chunk budget."""

    J = 12
    ENSEMBLE = 100

    @pytest.fixture(params=["identity-with-0", "identity-sparse", "rotated-with-0",
                            "rotated-without-0", "sigma-0"])
    def setup(self, request):
        sys_ = SpinSystem(self.J)
        grid = SphereGrid.for_spin(sys_)
        rng = np.random.default_rng(77)
        rotation = None
        if request.param.startswith("rotated"):
            rotation, _ = np.linalg.qr(rng.standard_normal((sys_.dim, sys_.dim))
                                       + 1j * rng.standard_normal((sys_.dim, sys_.dim)))
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=5)
        sigma = 0.0 if request.param == "sigma-0" else 0.05 * h0.mean_spacing
        means = rng.uniform(-0.01, 0.01, sys_.dim) * h0.mean_spacing
        pert = GaussianPerturbation(sigma=sigma, means=means, seed=6, h0=h0)
        psi = coherent_state(sys_, SolidAngle(1.1, 0.4))
        if request.param == "identity-sparse":
            # members agree on every level but two, and differ on those
            psi = StateVector(np.eye(sys_.dim)[3] + np.eye(sys_.dim)[8], normalize=True)
        if rotation is not None:
            # a coherent state under a random unitary: a dense random psi, so no
            # member is a coherent state
            psi = StateVector(rotation.conj().T @ psi.amplitudes, normalize=True)
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

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_any_cpu_count_matches_reference_loop_bits(self, setup, cpus, monkeypatch):
        # 96 states fit the budget at j = 12: 32 a chunk on 3 threads and 12
        # on 8, so each time's 100 members end in a chunk of 4
        monkeypatch.setattr(parallel, "CPUS", cpus)
        curve = echo_experiment(*setup)
        mean, std_error = reference_echo(*setup)
        assert np.array_equal(curve.mean_overlap, mean)
        assert np.array_equal(curve.std_error, std_error)

    @pytest.mark.parametrize("per_chunk", [1, 7])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_chunks_ending_inside_a_member_match_reference_loop_bits(self, setup, cpus,
                                                                     per_chunk, monkeypatch):
        # 7 states a chunk on every thread, against 3 evaluated times per
        # member: most chunks start and end partway through a member's times;
        # one state a chunk takes the one-pair slices on every thread
        grid = setup[-1]
        monkeypatch.setattr(parallel, "CPUS", cpus)
        monkeypatch.setattr(spincoarse, "OVERLAP_CHUNK_BYTES",
                            16 * grid.size * per_chunk * cpus)
        sizes = []

        def sizing(sys_, grid_, count, group, states, most, reduce):
            def sized(chunk):
                sizes.append(len(range(count)[chunk]))
                return states(chunk)
            return spincoarse._node_overlaps(sys_, grid_, count, group, sized, most, reduce)

        monkeypatch.setattr(echo_mod, "_node_overlaps", sizing)
        curve = echo_experiment(*setup)
        mean, std_error = reference_echo(*setup)
        assert sum(sizes) == 300  # 100 members at the three times after t = 0
        assert max(sizes) == per_chunk
        assert np.array_equal(curve.mean_overlap, mean)
        assert np.array_equal(curve.std_error, std_error)

    @pytest.mark.parametrize("ensemble", [100, 150])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_chunks_crossing_a_time_match_reference_loop_bits(self, setup, cpus, ensemble,
                                                             monkeypatch):
        # 7 states a chunk on every thread, against 100 and 150 members a
        # time after t = 0: a time's members end partway through a chunk of
        # 7, so the kernel ends that chunk there, and no chunk crosses a time
        psi, h0, pert, times, _, sys_, grid = setup
        args = psi, h0, pert, times, ensemble, sys_, grid
        monkeypatch.setattr(parallel, "CPUS", cpus)
        monkeypatch.setattr(spincoarse, "OVERLAP_CHUNK_BYTES", 16 * grid.size * 7 * cpus)
        chunks = []

        def recording(sys_, grid_, count, group, states, most, reduce):
            def recorded(chunk):
                chunks.append(chunk)
                return states(chunk)
            return spincoarse._node_overlaps(sys_, grid_, count, group, recorded, most, reduce)

        monkeypatch.setattr(echo_mod, "_node_overlaps", recording)
        curve = echo_experiment(*args)
        mean, std_error = reference_echo(*args)
        count = ensemble * int(np.sum(times > 0))  # sigma = 0 included
        starts = range(ensemble, count, ensemble)  # where each later time's members begin
        crossing = [c for c in chunks if any(c.start < b < c.stop for b in starts)]
        assert sum(c.stop - c.start for c in chunks) == count
        assert max(c.stop - c.start for c in chunks) == 7
        assert not crossing
        assert np.array_equal(curve.mean_overlap, mean)
        assert np.array_equal(curve.std_error, std_error)

    def test_zero_time_adds_no_kernel_pair(self, setup, monkeypatch):
        rows = []

        def counting(sys_, grid, count, group, states, most, reduce):
            rows.append(count)
            return spincoarse._node_overlaps(sys_, grid, count, group, states, most, reduce)

        monkeypatch.setattr(echo_mod, "_node_overlaps", counting)
        psi, h0, pert, times, ensemble, sys_, grid = setup
        echo_experiment(*setup)
        # one pass over every member at each time after t = 0, at sigma = 0 too
        assert rows == [ensemble * int(np.sum(times > 0))]

    @staticmethod
    def j50_run(ensemble):
        """echo_experiment at j = 50 on four times, 0 to 4/sigma."""
        sys_ = SpinSystem(50)
        grid = SphereGrid.for_spin(sys_)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=1)
        sigma = 0.05 * h0.mean_spacing
        pert = GaussianPerturbation(sigma=sigma, means=np.zeros(sys_.dim), seed=2, h0=h0)
        psi = coherent_state(sys_, SolidAngle(1.0, 0.3))
        times = np.array([0.0, 1 / sigma, 2 / sigma, 4 / sigma])
        return psi, h0, pert, times, ensemble, sys_, grid

    @staticmethod
    def traced_peak(args) -> int:
        echo_experiment(*args)  # untraced first, so lazy imports stay out of the peak
        tracemalloc.start()
        try:
            echo_experiment(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_memory_peak_bounded_by_chunk_budget(self, monkeypatch):
        # j = 50, 300 members: the members' level shifts (8 B a member-level),
        # the threads' chunk buffers (complex overlaps and their real |.|^2,
        # 1.5 budgets), each thread's numpy iterator buffer for the table
        # product (8192 complex entries) and five grid-sized real arrays for
        # the complex table (two), the magnitude table, psi's Q-function and
        # the run's overlaps; forming one time's member states all at once
        # adds 16 B a member-level. The bound stays below the 2 budgets +
        # 6 x 16 B per member-level that held while those states were formed
        args = self.j50_run(300)
        psi, h0, pert, times, ensemble, sys_, grid = args
        fit = spincoarse.OVERLAP_CHUNK_BYTES // (16 * grid.size)
        values_bytes = ensemble * sys_.dim * 8
        for cpus in range(1, 9):  # the threads share the chunk budget
            monkeypatch.setattr(parallel, "CPUS", cpus)
            bound = (values_bytes + 3 * spincoarse.OVERLAP_CHUNK_BYTES // 2
                     + min(cpus, fit) * 8192 * 16 + 5 * 8 * grid.size)
            assert bound < 2 * spincoarse.OVERLAP_CHUNK_BYTES + 6 * 16 * ensemble * sys_.dim
            peak = self.traced_peak(args)
            assert peak < bound, (f"{cpus} CPUs: peak {peak / 2**20:.2f} MiB, "
                                  f"bound {bound / 2**20:.2f} MiB")

    def test_memory_past_the_budget_grows_by_one_state_per_thread(self, monkeypatch):
        # j = 90, 100 members at one time after t = 0: one state's overlaps
        # (16 B a node) fill the 1 MiB budget less than twice, so each thread
        # holds one state's buffers (16 B and 8 B a node, the amplitude row
        # and the iterator buffer), on up to MAX_THREADS threads; the run's
        # arrays are the level shifts and five grid-sized real arrays, as at
        # j = 50
        sys_ = SpinSystem(90)
        grid = SphereGrid.for_spin(sys_)
        assert spincoarse.OVERLAP_CHUNK_BYTES // (16 * grid.size) < 2
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=1)
        sigma = 0.05 * h0.mean_spacing
        pert = GaussianPerturbation(sigma=sigma, means=np.zeros(sys_.dim), seed=2, h0=h0)
        psi = coherent_state(sys_, SolidAngle(1.0, 0.3))
        args = psi, h0, pert, np.array([0.0, 1 / sigma]), 100, sys_, grid
        state = 24 * grid.size + 16 * grid.n_phi + 8192 * 16
        for cpus in range(1, 9):
            monkeypatch.setattr(parallel, "CPUS", cpus)
            bound = (100 * sys_.dim * 8 + min(cpus, parallel.MAX_THREADS) * state
                     + 5 * 8 * grid.size)
            peak = self.traced_peak(args)
            assert peak < bound, (f"{cpus} CPUs: peak {peak / 2**20:.2f} MiB, "
                                  f"bound {bound / 2**20:.2f} MiB")

    def test_memory_grows_by_level_shifts_and_overlaps_alone(self, monkeypatch):
        # each further member adds its level shifts and its overlaps, 8 B a
        # level and 8 B a time, and no member states: the peak at 1200 members
        # exceeds the peak at 300 by at most that, plus one thread's iterator
        # buffer, which the two threads hold at once in some runs and not in
        # others
        monkeypatch.setattr(parallel, "CPUS", 2)
        small, large = self.j50_run(300), self.j50_run(1200)
        sys_, times = small[5], small[3]
        bound = 900 * (8 * sys_.dim + 8 * times.size) + 8192 * 16
        growth = self.traced_peak(large) - self.traced_peak(small)
        assert growth <= bound, (f"peak grows by {growth / 2**10:.0f} KiB, "
                                 f"bound {bound / 2**10:.0f} KiB")


def worst_bernstein_ratio(pert_seed: int, members: int) -> float:
    """Largest ratio of a node mean's distance from `averaged_q_formula` to
    its empirical Bernstein radius, over the 484 nodes of j = 10 at two times.

    A member's Q at a node lies in [0, b] with b = (2j+1)/(4pi), so for each
    node and side the mean misses the expectation by more than
    sqrt(2 V ln(2/d) / n) + 7 b ln(2/d) / (3 (n-1)), V the sample variance,
    with probability at most d, whatever the skew (Maurer & Pontil, COLT
    2009, Theorem 4). With d = 1e-6 / (2 x 968) the two sides of the 968
    node comparisons together false-alarm at most 1e-6 per run (Bonferroni).
    """
    sys_ = SpinSystem(10)
    grid = SphereGrid.for_spin(sys_)
    kernel = coherent_kernel(sys_, grid)
    h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=31)
    sigma = 0.05 * h0.mean_spacing
    pert = GaussianPerturbation(sigma=sigma, means=np.zeros(sys_.dim), seed=pert_seed, h0=h0)
    psi = coherent_state(sys_, SolidAngle(np.pi / 3, 0.0))
    times = (1 / sigma, 4 / sigma)
    top = (2 * sys_.j + 1) / (4 * np.pi)
    log_term = np.log(2 / (1e-6 / (2 * len(times) * grid.size)))
    shifts = pert.draw_values(range(members))  # the rows of `draw_perturbation`
    worst = 0.0
    for t in times:
        # every member's `combined_evolution`, its Q at every node
        qvals = top * np.abs((np.exp(1j * shifts * t) * psi.amplitudes) @ kernel.conj().T) ** 2
        radius = (np.sqrt(2 * qvals.var(axis=0, ddof=1) * log_term / members)
                  + 7 * top * log_term / (3 * (members - 1)))
        dev = np.abs(qvals.mean(axis=0) - averaged_q_formula(psi, h0, pert, t, sys_, grid))
        worst = max(worst, float(np.max(dev / radius)))
    return worst


class TestAveragedQFormula:
    def test_monte_carlo_matches_exact_average(self):
        """The ensemble mean of Q converges on the closed form in which the
        off-diagonal level pairs are damped by exp(-(sigma t)^2/2) while the
        diagonal level populations survive undamped: every node mean of 1000
        members lies within its Bernstein radius, a false alarm of at most
        1e-6 per run. A formula that also damps the diagonal pairs reads 1.9."""
        assert worst_bernstein_ratio(32, 1000) <= 1.0

    def test_matches_dense_oracle(self, rng):
        sys_ = SpinSystem(6)
        grid = SphereGrid.for_spin(sys_)
        kernel = coherent_kernel(sys_, grid).conj()
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=4)
        pert = GaussianPerturbation(sigma=0.1, means=rng.uniform(-0.01, 0.01, sys_.dim),
                                    seed=4, h0=h0)
        psi = StateVector(random_state(rng, sys_.dim))
        coeff = psi.amplitudes
        norm = (2 * sys_.j + 1) / (4 * np.pi)
        for t in (0.0, 7.0, 30.0):
            damping = np.exp(-(pert.sigma * t) ** 2 / 2)
            coherent = np.abs(kernel @ (np.exp(1j * pert.means * t) * coeff)) ** 2
            dephased = np.abs(kernel) ** 2 @ np.abs(coeff) ** 2
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

    def test_one_state_through_the_kernel(self, monkeypatch):
        """Only phi(t) goes through the overlap kernel (the basis-state route
        took 2j + 2 states), and at t = 0 the result is psi's Q bit for bit."""
        sys_ = SpinSystem(5)
        grid = SphereGrid.for_spin(sys_)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=1)
        pert = GaussianPerturbation(sigma=0.05, means=np.linspace(-0.01, 0.01, sys_.dim),
                                    seed=2, h0=h0)
        psi = coherent_state(sys_, SolidAngle(0.9, 0.2))
        kernel, counts = spincoarse._node_overlaps, []

        def counting(sys, grid, count, group, *rest):
            counts.append(count)
            kernel(sys, grid, count, group, *rest)

        monkeypatch.setattr(spincoarse, "_node_overlaps", counting)
        at_zero = averaged_q_formula(psi, h0, pert, 0.0, sys_, grid)
        averaged_q_formula(psi, h0, pert, 7.0, sys_, grid)
        assert counts == [1, 1]
        monkeypatch.undo()
        assert np.array_equal(at_zero, q_function_pure(psi, sys_, grid).values)

    @pytest.mark.parametrize("j", [3, 10, 50])
    def test_matches_basis_state_mixture(self, rng, j):
        """The contraction against the mixture over phi, |-j>, ..., |+j> that
        the kernel evaluates, within 1e-15 of the peak."""
        sys_ = SpinSystem(j)
        grid = SphereGrid.for_spin(sys_)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=3)
        pert = GaussianPerturbation(sigma=0.05, means=rng.uniform(-0.01, 0.01, sys_.dim),
                                    seed=4, h0=h0)
        psi = StateVector(random_state(rng, sys_.dim))
        for t in (3.0, 10.0):
            damping = np.exp(-(pert.sigma * t) ** 2 / 2)
            weights = np.concatenate([[damping], (1 - damping) * np.abs(psi.amplitudes) ** 2])
            states = np.concatenate([(np.exp(1j * pert.means * t) * psi.amplitudes)[None],
                                     np.eye(sys_.dim)])
            mixture = spincoarse._mixture_q(sys_, grid, weights, states)
            got = averaged_q_formula(psi, h0, pert, t, sys_, grid)
            assert np.max(np.abs(got - mixture)) <= 1e-15 * mixture.max()


class TestDifferenceQuadrature:
    def test_mean_overlap_matches_quadrature_at_spin_half(self):
        """At j = 1/2 a member's overlap depends on V_1 - V_0 alone, so its mean
        is a 1-D integral (`spin_half_overlap_moments`). The library's mean of
        20 000 members lies within the normal interval of the quadrature's
        exact standard error at a family-wise false-alarm rate of 1e-6 over
        the three times, widened by the change under a doubled resolution. A
        defect that draws V_1 - V_0 with variance sigma^2 / 2 misses by 37-50
        standard errors at sigma t = 1 and 2."""
        from scipy.stats import norm

        sys_ = SpinSystem(0.5)
        grid = SphereGrid.for_spin(sys_)
        h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=5)
        sigma = 0.05 * h0.mean_spacing
        pert = GaussianPerturbation(sigma=sigma, means=np.array([0.0, 0.3 * sigma]),
                                    seed=6, h0=h0)
        psi = coherent_state(sys_, SolidAngle(np.pi / 3, 0.0))
        times, members = np.array([1.0, 2.0, 4.0]) / sigma, 20_000
        curve = echo_experiment(psi, h0, pert, times, members, sys_, grid)
        z = norm.isf(1e-6 / (2 * times.size))
        for got, t in zip(curve.mean_overlap, times):
            coarse, (mean, square) = (spin_half_overlap_moments(psi, pert, t, grid, points)
                                      for points in (2001, 4001))
            limit = z * np.sqrt((square - mean ** 2) / members) + abs(mean - coarse[0])
            assert abs(got - mean) <= limit, (sigma * t, got, mean, limit)


class TestEchoCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            EchoCurve(times=[0.0, 1.0], mean_overlap=[1.0], std_error=[0.0, 0.0],
                      analytic_bound=[1.0, 0.9])
        with pytest.raises(ToleranceError):
            EchoCurve(times=[0.0, 1.0], mean_overlap=[0.5, 0.4],
                      std_error=[0.0, 0.0], analytic_bound=[1.0, 0.9])


class TestNonFiniteInputs:
    """Each of these was accepted and made `echo_experiment` return NaN: NaN
    fails every comparison, so no range check fired."""

    def test_nan_sigma_rejected(self, small_setup):
        sys_, _, h0 = small_setup
        with pytest.raises(ValueError, match="sigma"):
            GaussianPerturbation(sigma=np.nan, means=np.zeros(sys_.dim), seed=0, h0=h0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, small_setup, bad):
        sys_, _, h0 = small_setup
        means = np.zeros(sys_.dim)
        means[2] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianPerturbation(sigma=0.01, means=means, seed=0, h0=h0)

    def test_nan_eigenvalue_rejected(self):
        # min_spacing would read nan, and any sigma would pass its limit
        sys_ = SpinSystem(1)
        with pytest.raises(ValueError, match="finite"):
            SpectralHamiltonian(sys=sys_, eigenvalues=np.array([0.0, np.nan, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_time_rejected_before_any_member(self, small_setup, monkeypatch, bad):
        sys_, grid, h0 = small_setup
        pert = GaussianPerturbation(sigma=0.01, means=np.zeros(sys_.dim), seed=0, h0=h0)
        psi = coherent_state(sys_, SolidAngle(0.9, 0.2))

        def must_not_run(self, members):
            raise AssertionError("a member was drawn")

        monkeypatch.setattr(GaussianPerturbation, "draw_values", must_not_run)
        with pytest.raises(ValueError, match="finite"):
            echo_experiment(psi, h0, pert, [0.0, 1.0, bad], 100, sys_, grid)
