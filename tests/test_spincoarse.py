import io
import tracemalloc
from math import factorial, lgamma, pi

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import lpmv

from fapplab import parallel, spincoarse
from fapplab.errors import GridOrderError
from fapplab.qcore import OperatorMatrix, StateVector
from fapplab.spincoarse import (QFunction, SolidAngle, SphereGrid,
                                SpinSystem, _coherent_magnitudes, _mixture_q,
                                _node_overlaps, bhattacharyya,
                                coherent_kernel, coherent_state, q_function,
                                q_function_pure)

from conftest import random_state, reference_node_overlaps
from oracles import great_circle_angle, write_csv_by_nodes


def spherical_harmonic(l, m, theta, phi):
    """Direct associated-Legendre construction (independent quadrature oracle)."""
    am = abs(m)
    norm = np.sqrt((2 * l + 1) / (4 * pi) * factorial(l - am) / factorial(l + am))
    val = norm * lpmv(am, l, np.cos(theta)) * np.exp(1j * am * phi)
    if m < 0:
        val = (-1) ** am * val.conj()
    return val


class TestSpinSystem:
    def test_half_integers(self):
        assert SpinSystem(0.5).dim == 2
        assert SpinSystem(10).dim == 21
        assert_allclose(SpinSystem(1.5).m_values, [-1.5, -0.5, 0.5, 1.5])

    def test_invalid(self):
        with pytest.raises(ValueError):
            SpinSystem(0.3)
        with pytest.raises(ValueError):
            SpinSystem(0)


class TestSolidAngle:
    def test_ranges(self):
        with pytest.raises(ValueError):
            SolidAngle(-0.1, 0.0)
        with pytest.raises(ValueError):
            SolidAngle(1.0, 2 * pi)

    def test_angle_between(self):
        a = SolidAngle(0.0, 0.0)
        b = SolidAngle(pi / 2, 0.0)
        assert great_circle_angle(a, b) == pytest.approx(pi / 2, abs=1e-14)


class TestSphereGrid:
    def test_weights_sum_to_sphere_area(self):
        grid = SphereGrid(12, 25)
        assert abs(grid.weights.sum() - 4 * pi) < 1e-10

    def test_harmonic_orthonormality_up_to_order(self):
        grid = SphereGrid(6, 11)  # order min(11, 10) = 10
        order = grid.exactness_order
        lmax = 5  # pairs with l1 + l2 <= 10 cover all (l1, l2) up to 5
        funcs = [(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]
        table = np.array([spherical_harmonic(l, m, grid.thetas, grid.phis)
                          for l, m in funcs])
        gram = (table * grid.weights) @ table.conj().T
        for i, (l1, m1) in enumerate(funcs):
            for k, (l2, m2) in enumerate(funcs):
                if l1 + l2 <= order:
                    want = 1.0 if (l1, m1) == (l2, m2) else 0.0
                    assert abs(gram[i, k] - want) < 1e-12, (l1, m1, l2, m2)

    def test_for_spin_order(self):
        sys = SpinSystem(10)
        grid = SphereGrid.for_spin(sys)
        assert grid.n_theta == grid.n_phi == 22
        assert grid.exactness_order == 21 >= sys.dim

    def test_immutable(self):
        # a rebound n_phi would leave exactness_order stale, and the overlap
        # kernel would then truncate its m-sum silently
        grid = SphereGrid(4, 5)
        for name in SphereGrid.__slots__:
            with pytest.raises(AttributeError):
                setattr(grid, name, 2)
        assert (grid.n_theta, grid.n_phi, grid.exactness_order) == (4, 5, 4)
        with pytest.raises(ValueError):
            grid.thetas[0] = 0.0


def reference_magnitudes(sys, thetas):
    """The spin table as it was built before it used two buffers: log bases
    clamped at 1e-300, each power term through `np.where`, then one sum."""
    def power_term(exponent, log_base):
        with np.errstate(invalid="ignore"):
            return np.where(exponent == 0, 0.0, exponent * log_base)

    j, m = sys.j, sys.m_values
    c, s = np.cos(thetas / 2), np.sin(thetas / 2)
    n = sys.dim - 1
    logb = np.array([0.5 * (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1))
                     for k in range(sys.dim)])
    logc = np.where(c > 0, np.log(np.maximum(c, 1e-300)), -np.inf)
    logs = np.where(s > 0, np.log(np.maximum(s, 1e-300)), -np.inf)
    return np.exp(logb[None, :]
                  + power_term(np.broadcast_to(j + m, (c.size, m.size)), logc[:, None])
                  + power_term(np.broadcast_to(j - m, (c.size, m.size)), logs[:, None]))


class TestSpinTable:
    @pytest.mark.parametrize("j", [0.5, 1, 2.5, 10, 50, 150])
    def test_bits_equal_reference(self, j):
        sys = SpinSystem(j)
        grid = SphereGrid.for_spin(sys)
        thetas = np.concatenate([grid.thetas[::grid.n_phi], [0.0, pi, 1e-200, 3e-300]])
        got, want = _coherent_magnitudes(sys, thetas), reference_magnitudes(sys, thetas)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_tiny_angles_keep_their_own_sine(self):
        # below theta ~ 2e-300 the reference clamped sin(theta/2) at 1e-300
        got = _coherent_magnitudes(SpinSystem(0.5), np.array([1e-300, 1e-310]))
        assert got[:, 0] == pytest.approx([5e-301, 5e-311], rel=1e-12)
        assert got[:, 1].tolist() == [1.0, 1.0]

    def test_two_table_buffers(self):
        sys = SpinSystem(500)
        grid = SphereGrid.for_spin(sys)
        thetas = grid.thetas[::grid.n_phi]
        tracemalloc.start()
        try:
            table = _coherent_magnitudes(sys, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table.nbytes + 2**20  # the reference took three


class TestCoherentState:
    def test_north_pole_is_top_dicke(self):
        sys = SpinSystem(0.5)
        state = coherent_state(sys, SolidAngle(0.0, 0.0))
        assert_allclose(state.amplitudes, [0, 1], atol=1e-15)  # ascending m

    def test_equator_half_spin(self):
        sys = SpinSystem(0.5)
        state = coherent_state(sys, SolidAngle(pi / 2, 0.0))
        assert_allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_south_pole(self):
        sys = SpinSystem(3)
        state = coherent_state(sys, SolidAngle(pi, 0.0))
        expected = np.zeros(7)
        expected[0] = 1.0
        assert_allclose(np.abs(state.amplitudes), expected, atol=1e-15)

    @pytest.mark.parametrize("j", [1, 5, 20])
    def test_overlap_law(self, j, rng):
        # brute-force amplitude sums against the closed-form cos^{4j}(angle/2)
        sys = SpinSystem(j)
        for _ in range(50):
            a = SolidAngle(float(rng.uniform(0, pi)), float(rng.uniform(0, 2 * pi)))
            b = SolidAngle(float(rng.uniform(0, pi)), float(rng.uniform(0, 2 * pi)))
            brute = abs(np.vdot(coherent_state(sys, a).amplitudes,
                                coherent_state(sys, b).amplitudes)) ** 2
            closed = np.cos(great_circle_angle(a, b) / 2) ** (4 * j)
            assert_allclose(brute, closed, atol=1e-12)

    def test_norm_at_large_j(self):
        state = coherent_state(SpinSystem(400), SolidAngle(1.234, 2.345))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_hard_cap(self):
        with pytest.raises(ValueError):
            coherent_state(SpinSystem(501), SolidAngle(1.0, 0.0))


class TestCompleteness:
    @pytest.mark.parametrize("j", [2, 10, 50])
    def test_resolution_of_identity(self, j):
        sys = SpinSystem(j)
        grid = SphereGrid.for_spin(sys)
        kernel = coherent_kernel(sys, grid)
        m = (2 * j + 1) / (4 * pi) * (kernel.T @ (grid.weights[:, None] * kernel.conj()))
        assert np.max(np.abs(m - np.eye(sys.dim))) < 1e-10


class TestQFunction:
    def test_maximally_mixed_is_flat(self):
        sys = SpinSystem(4)
        grid = SphereGrid.for_spin(sys)
        rho = OperatorMatrix(np.eye(sys.dim) / sys.dim, kind="hermitian")
        qf = q_function(rho, sys, grid)
        assert_allclose(qf.values, 1 / (4 * pi), atol=1e-12)

    def test_top_dicke_matches_overlap_kernel(self):
        j = 10
        sys = SpinSystem(j)
        grid = SphereGrid.for_spin(sys)
        top = StateVector.basis(sys.dim, sys.dim - 1)  # m = +j
        qf = q_function(top.density(), sys, grid)
        expected = (2 * j + 1) / (4 * pi) * np.cos(grid.thetas / 2) ** (4 * j)
        assert_allclose(qf.values, expected, atol=1e-8)

    def test_pure_matches_density_route(self, rng):
        sys = SpinSystem(5)
        grid = SphereGrid.for_spin(sys)
        psi = StateVector(random_state(rng, sys.dim))
        a = q_function_pure(psi, sys, grid).values
        b = q_function(psi.density(), sys, grid).values
        assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("j", [10, 50])
    @pytest.mark.parametrize("theta", [1.0, pi / 3])
    def test_coherent_projector_matches_pure_route(self, j, theta):
        # the dense route left roundoff negatives where Q is exponentially small
        sys = SpinSystem(j)
        grid = SphereGrid.for_spin(sys)
        state = coherent_state(sys, SolidAngle(theta, 0.0))
        a = q_function(state.density(), sys, grid).values
        b = q_function_pure(state, sys, grid).values
        assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_mixture_of_distant_coherent_states(self):
        sys = SpinSystem(30)
        grid = SphereGrid.for_spin(sys)
        a = coherent_state(sys, SolidAngle(0.4, 1.0))
        b = coherent_state(sys, SolidAngle(2.6, 4.0))
        rho = OperatorMatrix(0.3 * a.density().entries + 0.7 * b.density().entries,
                             kind="hermitian")
        want = (0.3 * q_function_pure(a, sys, grid).values
                + 0.7 * q_function_pure(b, sys, grid).values)
        assert_allclose(q_function(rho, sys, grid).values, want, rtol=0, atol=1e-12)

    def test_normalization(self):
        sys = SpinSystem(10)
        grid = SphereGrid.for_spin(sys)
        state = coherent_state(sys, SolidAngle(pi / 3, 1.0))
        assert q_function_pure(state, sys, grid).integral() == pytest.approx(1.0, abs=1e-8)

    def test_insufficient_grid_raises(self):
        sys = SpinSystem(10)
        grid = SphereGrid(4, 4)
        with pytest.raises(GridOrderError):
            q_function_pure(coherent_state(sys, SolidAngle(1.0, 0.0)), sys, grid)

    def test_rejects_non_density(self):
        sys = SpinSystem(2)
        grid = SphereGrid.for_spin(sys)
        with pytest.raises(ValueError):
            q_function(OperatorMatrix(np.eye(sys.dim), kind="hermitian"), sys, grid)

    def test_phi_rotation_symmetry(self):
        sys = SpinSystem(6)
        grid = SphereGrid.for_spin(sys)
        state = coherent_state(sys, SolidAngle(1.1, 0.7))
        base = q_function_pure(state, sys, grid).values.reshape(grid.n_theta, grid.n_phi)
        shift = 2 * pi / grid.n_phi
        rotated = StateVector(state.amplitudes * np.exp(-1j * sys.m_values * shift))
        rot = q_function_pure(rotated, sys, grid).values.reshape(grid.n_theta, grid.n_phi)
        assert_allclose(rot, np.roll(base, 1, axis=1), atol=1e-12)

    def test_csv_export(self):
        sys = SpinSystem(1)
        grid = SphereGrid.for_spin(sys)
        qf = q_function_pure(coherent_state(sys, SolidAngle(0.5, 0.5)), sys, grid)
        buf = io.StringIO()
        qf.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "theta,phi,weight,value"
        assert len(lines) == 1 + grid.size


class TestCsvText:
    """`write_csv` writes the text of the per-node `repr` loop, byte for byte."""

    @staticmethod
    def texts(qf):
        new, old = io.StringIO(), io.StringIO()
        qf.write_csv(new)
        write_csv_by_nodes(qf, old)
        return new.getvalue(), old.getvalue()

    @pytest.mark.parametrize("j", [0.5, 2, 10, 60, 150])
    def test_default_grid(self, j):
        sys = SpinSystem(j)
        grid = SphereGrid.for_spin(sys)
        new, old = self.texts(q_function_pure(coherent_state(sys, SolidAngle(1.1, 0.4)), sys, grid))
        assert new == old

    def test_non_square_grid_and_a_ragged_last_block(self):
        # 310 nodes a theta-row: 6 rows a block, and 5 in the last of 9
        sys = SpinSystem(20)
        grid = SphereGrid(53, 310)
        assert grid.n_theta % (spincoarse.CSV_BLOCK_NODES // grid.n_phi) == 5
        new, old = self.texts(q_function_pure(coherent_state(sys, SolidAngle(2.0, 5.0)), sys, grid))
        assert new == old

    def test_underflow_to_zero_at_the_largest_spin(self):
        # the fewest nodes the order check admits at j = 500
        sys = SpinSystem(500)
        qf = q_function_pure(coherent_state(sys, SolidAngle(0.3, 1.0)), sys, SphereGrid(501, 1001))
        assert np.count_nonzero(qf.values == 0.0) > qf.values.size // 10
        new, old = self.texts(qf)
        assert new == old

    @pytest.mark.parametrize("nodes", [1, 10**6])
    def test_block_size_moves_no_byte(self, nodes, monkeypatch):
        # one theta-row a block, and the whole grid in one
        sys = SpinSystem(7.5)
        qf = q_function_pure(coherent_state(sys, SolidAngle(pi, 0.0)), sys, SphereGrid(17, 40))
        monkeypatch.setattr(spincoarse, "CSV_BLOCK_NODES", nodes)
        new, old = self.texts(qf)
        assert new == old


class TestSeparableRoute:
    """q_function_pure evaluates |<Omega|psi>|^2 by one inverse DFT per
    theta-row; the dense node x level kernel is the oracle."""

    @pytest.mark.parametrize("j, n_theta, n_phi", [
        (10, 22, 22),     # default grid
        (20.5, 43, 43),   # half-integer spin: the e^{-ij phi} phase drops out
        (7, 9, 31),       # n_theta != n_phi, n_phi > 2j + 2
        (3.5, 12, 8),     # n_phi = 2j + 1, the fewest the order check admits
    ])
    def test_matches_dense_kernel(self, j, n_theta, n_phi, rng):
        sys = SpinSystem(j)
        grid = SphereGrid(n_theta, n_phi)
        kernel = coherent_kernel(sys, grid)
        states = [StateVector(random_state(rng, sys.dim)),
                  coherent_state(sys, SolidAngle(0.0, 0.0)),
                  coherent_state(sys, SolidAngle(pi, 0.0)),
                  coherent_state(sys, SolidAngle(2.0, 4.0))]
        for psi in states:
            oracle = (2 * j + 1) / (4 * pi) * np.abs(kernel.conj() @ psi.amplitudes) ** 2
            got = q_function_pure(psi, sys, grid).values
            assert np.max(np.abs(got - oracle)) <= 1e-12 * oracle.max()


class TestOverlapBuffers:
    """The kernel reuses one pair of chunk buffers per thread and an in-place
    FFT; its overlaps and mixtures keep the bits of the allocate-per-chunk
    reference at every budget, from one state per chunk to all states in one,
    and at every thread count."""

    SYS = SpinSystem(7.5)
    GRID = SphereGrid.for_spin(SYS)
    STATES = 37
    BUDGETS = {
        "one-state": 16 * GRID.size,
        "ragged": 16 * GRID.size * 5 + 3,   # 5 states a chunk, 2 in the last
        "64MiB": 64 * 2**20,
    }

    @staticmethod
    def collect(chunks, rows, nodes):
        out = np.full((rows, nodes), np.nan)
        for chunk, overlaps in chunks:
            out[chunk] = overlaps   # copied: the kernel's array is scratch space
        return out

    def kernel_overlaps(self, states, most):
        """`_node_overlaps`' overlaps of every state, and its chunks as reduced."""
        out = np.full((len(states), self.GRID.size), np.nan)
        chunks = []

        def copy(chunk, overlaps):
            chunks.append(chunk)
            out[chunk] = overlaps   # copied: the kernel's array is scratch space

        _node_overlaps(self.SYS, self.GRID, len(states), len(states), states.__getitem__, most,
                       copy)
        return out, chunks

    @pytest.fixture
    def states(self, rng):
        return np.array([random_state(rng, self.SYS.dim) for _ in range(self.STATES)])

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_overlaps_match_reference_bits(self, budget, states, monkeypatch):
        nbytes = self.BUDGETS[budget]
        monkeypatch.setattr(spincoarse, "OVERLAP_CHUNK_BYTES", nbytes)
        got, _ = self.kernel_overlaps(states, 1)
        want = self.collect(reference_node_overlaps(self.SYS, self.GRID, states, nbytes),
                            self.STATES, self.GRID.size)
        assert np.array_equal(got, want)
        assert np.array_equal(got, self.collect(
            reference_node_overlaps(self.SYS, self.GRID, states, 1),
            self.STATES, self.GRID.size))

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_mixture_q_matches_reference_bits(self, budget, states, rng, monkeypatch):
        nbytes = self.BUDGETS[budget]
        monkeypatch.setattr(spincoarse, "OVERLAP_CHUNK_BYTES", nbytes)
        weights = rng.uniform(0.0, 1.0, self.STATES)
        got = _mixture_q(self.SYS, self.GRID, weights, states)
        want = (2 * self.SYS.j + 1) / (4 * pi) * sum(
            weights[chunk] @ overlaps
            for chunk, overlaps in reference_node_overlaps(self.SYS, self.GRID, states,
                                                           nbytes))
        assert np.array_equal(got, want)

    def test_chunks_cover_every_state_once(self, states, monkeypatch):
        monkeypatch.setattr(spincoarse, "OVERLAP_CHUNK_BYTES", self.BUDGETS["ragged"])
        _, chunks = self.kernel_overlaps(states, 1)
        assert [len(range(self.STATES)[c]) for c in chunks] == [5] * 7 + [2]

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_threads_share_the_budget(self, cpus, states, monkeypatch):
        # 5 states fit in the ragged budget: at most 5 threads, which take
        # chunks of 5, 2, 1 and 1 states at 1, 2, 3 and 8 CPUs
        nbytes = self.BUDGETS["ragged"]
        monkeypatch.setattr(spincoarse, "OVERLAP_CHUNK_BYTES", nbytes)
        monkeypatch.setattr(parallel, "CPUS", cpus)
        started = []

        def counting(work, items, most):
            started.append(parallel.workers(len(items), most))
            parallel.run_shared(work, items, most)

        monkeypatch.setattr(spincoarse, "run_shared", counting)
        got, chunks = self.kernel_overlaps(states, most=10**6)
        [threads] = started
        assert threads == min(cpus, 5)
        rows = [range(self.STATES)[c] for c in chunks]
        assert sorted(i for r in rows for i in r) == list(range(self.STATES))
        assert max(map(len, rows)) * 16 * self.GRID.size <= nbytes / threads
        want = self.collect(reference_node_overlaps(self.SYS, self.GRID, states, nbytes),
                            self.STATES, self.GRID.size)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cpus", range(1, 9))
    @pytest.mark.parametrize("budget", [1, 7, "all"])
    @pytest.mark.parametrize("group", [1, 5, 12, 37])
    def test_no_chunk_spans_two_groups(self, group, budget, cpus, rng, monkeypatch):
        # three groups of `group` states, one state's budget to all of them in
        # one chunk's budget, on every thread count: a chunk stops at its group's
        # end, and the chunks cover every state once
        count = 3 * group
        states = np.array([random_state(rng, self.SYS.dim) for _ in range(count)])
        nbytes = 64 * 2**20 if budget == "all" else 16 * self.GRID.size * budget
        monkeypatch.setattr(spincoarse, "OVERLAP_CHUNK_BYTES", nbytes)
        monkeypatch.setattr(parallel, "CPUS", cpus)
        chunks = []
        _node_overlaps(self.SYS, self.GRID, count, group, states.__getitem__, cpus,
                       lambda chunk, overlaps: chunks.append(chunk))
        rows = [range(count)[c] for c in chunks]
        assert all(r.start // group == (r.stop - 1) // group for r in rows)
        assert sum(map(len, rows)) == count
        assert sorted(i for r in rows for i in r) == list(range(count))

    @pytest.mark.parametrize("cpus", range(1, 9))
    def test_threads_past_the_budget_hold_one_state_each(self, cpus, states, monkeypatch):
        # a budget of one state: every thread the CPUs allow, up to MAX_THREADS,
        # takes chunks of one state, with the reference bits
        nbytes = self.BUDGETS["one-state"]
        monkeypatch.setattr(spincoarse, "OVERLAP_CHUNK_BYTES", nbytes)
        monkeypatch.setattr(parallel, "CPUS", cpus)
        started = []

        def counting(work, items, most):
            started.append(parallel.workers(len(items), most))
            parallel.run_shared(work, items, most)

        monkeypatch.setattr(spincoarse, "run_shared", counting)
        got, chunks = self.kernel_overlaps(states, most=10**6)
        assert started == [min(cpus, parallel.MAX_THREADS)]
        assert [len(range(self.STATES)[c]) for c in chunks] == [1] * self.STATES
        want = self.collect(reference_node_overlaps(self.SYS, self.GRID, states, nbytes),
                            self.STATES, self.GRID.size)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("per_chunk", [1, 3, 6])
    def test_one_call_allocates_its_buffers_and_one_iterator_buffer(self, per_chunk, rng,
                                                                    monkeypatch):
        # j = 50 on one thread: the chunk buffers (16 B complex and 8 B real a
        # node-state), the zero-padded amplitude rows, the complex table and
        # numpy's one 8192-entry complex iterator buffer for the table product,
        # whose amplitudes broadcast along the theta-rows, plus 8 KiB for the
        # call's array headers, views and shared chunk iterator. A product
        # that casts a real table to complex buffers three times as much
        sys_ = SpinSystem(50)
        grid = SphereGrid.for_spin(sys_)
        states = np.array([random_state(rng, sys_.dim) for _ in range(12)])
        monkeypatch.setattr(parallel, "CPUS", 1)
        monkeypatch.setattr(spincoarse, "OVERLAP_CHUNK_BYTES", 16 * grid.size * per_chunk)

        def call():
            _node_overlaps(sys_, grid, len(states), len(states), states.__getitem__, 1,
                           lambda chunk, overlaps: None)

        call()  # untraced first, so numpy's FFT plan cache stays out of the peak
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (24 * grid.size * per_chunk + 16 * grid.n_phi * per_chunk
                 + 16 * grid.size + 8192 * 16 + 8192)
        assert peak <= bound, f"peak {peak} B, bound {bound} B"


class TestLargeSpin:
    """j = 200 through the public calls: 402^2 nodes, 401 levels."""

    J = 200

    @pytest.fixture(scope="class")
    def dicke_sums(self):
        """Integral of each Dicke state's Q, and their node-wise sum."""
        sys = SpinSystem(self.J)
        grid = SphereGrid.for_spin(sys)
        integrals, total = [], np.zeros(grid.size)
        for k in range(sys.dim):
            qf = q_function_pure(StateVector.basis(sys.dim, k), sys, grid)
            integrals.append(qf.integral())
            total += qf.values
        return sys, grid, np.array(integrals), total

    def test_dicke_norms(self, dicke_sums):
        _, _, integrals, _ = dicke_sums
        assert np.max(np.abs(integrals - 1.0)) < 1e-10

    def test_completeness(self, dicke_sums):
        # sum_m |<Omega|m>|^2 = 1 at every node
        *_, total = dicke_sums
        assert_allclose(total, (2 * self.J + 1) / (4 * pi), rtol=1e-12, atol=0)

    def test_coherent_state_law(self, dicke_sums):
        sys, grid, *_ = dicke_sums
        omega = SolidAngle(1.2, 5.0)
        qf = q_function_pure(coherent_state(sys, omega), sys, grid)
        cos_gamma = (np.cos(grid.thetas) * np.cos(omega.theta) + np.sin(grid.thetas)
                     * np.sin(omega.theta) * np.cos(grid.phis - omega.phi))
        peak = (2 * self.J + 1) / (4 * pi)
        law = peak * ((1 + cos_gamma) / 2) ** (2 * self.J)
        assert np.max(np.abs(qf.values - law)) < 1e-10 * peak


class TestBhattacharyya:
    def test_self_overlap_is_one(self):
        sys = SpinSystem(10)
        grid = SphereGrid.for_spin(sys)
        qf = q_function_pure(coherent_state(sys, SolidAngle(pi / 3, 0.0)), sys, grid)
        assert bhattacharyya(qf, qf) == pytest.approx(1.0, abs=1e-8)

    def test_disjoint_supports_give_zero(self):
        grid = SphereGrid(8, 8)
        half = grid.size // 2
        a = np.zeros(grid.size)
        b = np.zeros(grid.size)
        a[:half] = 1.0
        b[half:] = 1.0
        a /= np.sum(grid.weights * a)
        b /= np.sum(grid.weights * b)
        pa = QFunction(grid=grid, values=a, j=1.0)
        pb = QFunction(grid=grid, values=b, j=1.0)
        assert bhattacharyya(pa, pb) == 0.0

    def test_dominates_quantum_overlap(self, rng):
        sys = SpinSystem(10)
        grid = SphereGrid.for_spin(sys)
        for _ in range(100):
            s1 = StateVector(random_state(rng, sys.dim))
            s2 = StateVector(random_state(rng, sys.dim))
            macro = bhattacharyya(q_function_pure(s1, sys, grid),
                                  q_function_pure(s2, sys, grid))
            assert macro >= abs(s1.overlap(s2)) - 1e-10

    def test_symmetry(self, rng):
        sys = SpinSystem(4)
        grid = SphereGrid.for_spin(sys)
        qa = q_function_pure(StateVector(random_state(rng, sys.dim)), sys, grid)
        qb = q_function_pure(StateVector(random_state(rng, sys.dim)), sys, grid)
        assert bhattacharyya(qa, qb) == pytest.approx(bhattacharyya(qb, qa), abs=1e-15)

    def test_distinct_distributions_stay_below_one(self):
        sys = SpinSystem(4)
        grid = SphereGrid.for_spin(sys)
        qa = q_function_pure(coherent_state(sys, SolidAngle(1.0, 0.0)), sys, grid)
        qb = q_function_pure(coherent_state(sys, SolidAngle(1.3, 0.0)), sys, grid)
        assert bhattacharyya(qa, qb) < 1.0 - 1e-8

    def test_grid_mismatch_rejected(self):
        sys = SpinSystem(2)
        qa = q_function_pure(coherent_state(sys, SolidAngle(1.0, 0.0)), sys,
                             SphereGrid.for_spin(sys))
        qb = q_function_pure(coherent_state(sys, SolidAngle(1.0, 0.0)), sys,
                             SphereGrid(7, 7))
        with pytest.raises(ValueError):
            bhattacharyya(qa, qb)

    def test_spin_mismatch_rejected(self):
        grid = SphereGrid(8, 8)
        flat = np.full(grid.size, 1 / (4 * pi))
        qa = QFunction(grid=grid, values=flat, j=1.0)
        qb = QFunction(grid=grid, values=flat, j=2.0)
        with pytest.raises(ValueError):
            bhattacharyya(qa, qb)


class TestMacroscopicRobustness:
    """A phase flip on one low-weight Dicke component barely moves the
    macroscopic state, while an antipodal rotation destroys it.

    Measured drop for the largest component below weight 1/j at j = 50,
    theta = pi/3: 0.031 (components below weight 1e-4 stay under 1e-3).
    """

    def test_phase_flip_versus_antipodal(self):
        j = 50
        sys = SpinSystem(j)
        grid = SphereGrid.for_spin(sys)
        state = coherent_state(sys, SolidAngle(pi / 3, 0.0))
        q_before = q_function_pure(state, sys, grid)
        weights = np.abs(state.amplitudes) ** 2

        def flip_drop(index):
            flipped = state.amplitudes.copy()
            flipped[index] *= -1.0
            q_after = q_function_pure(StateVector(flipped), sys, grid)
            return 1.0 - bhattacharyya(q_before, q_after)

        boundary = np.where(weights < 1 / j)[0]
        boundary_idx = boundary[np.argmax(weights[boundary])]
        assert flip_drop(int(boundary_idx)) < 0.05

        tail = np.where((weights < 1e-4) & (weights > 1e-12))[0]
        tail_idx = tail[np.argmax(weights[tail])]
        assert flip_drop(int(tail_idx)) < 1e-3

        antipode = coherent_state(sys, SolidAngle(pi - pi / 3, pi))
        q_anti = q_function_pure(antipode, sys, grid)
        assert bhattacharyya(q_before, q_anti) < 0.01
