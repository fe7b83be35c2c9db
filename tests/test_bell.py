import numpy as np
import pytest
from numpy.testing import assert_allclose

from fapplab.errors import ToleranceError
from fapplab.qcore import OperatorMatrix, ProductSpace, StateVector, partial_trace
from fapplab.bell import (_SHOT_CHUNK, LAB_DIM, ChshSettings, LaboratoryBasis, MacroObservable,
                          branch_projection_observable, build_bell_state, chsh_summary,
                          chsh_value, correlation, correlation_sampled,
                          interference_observable, lhv_bound, rotated_observable)

from oracles import chsh_value_sampled

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def basis():
    return LaboratoryBasis.default()


@pytest.fixture(scope="module")
def state():
    return build_bell_state()


@pytest.fixture(scope="module")
def settings():
    return ChshSettings.default()


def kron_oracle(state, obs_a, obs_b):
    """Independent dense route: build the full 256x256 operator explicitly."""
    big = np.kron(obs_a.matrix.entries, obs_b.matrix.entries)
    return float(np.real(state.amplitudes.conj() @ big @ state.amplitudes))


class TestBellState:
    def test_normalized(self, state):
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_bits_equal_kron_construction(self, basis):
        up, down = basis.up_state.amplitudes, basis.down_state.amplitudes
        want = (np.kron(up, down) - np.kron(down, up)) / np.sqrt(2.0)
        got = build_bell_state(basis, basis).amplitudes
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_reduced_laboratory_is_even_branch_mixture(self, state, basis):
        space = ProductSpace((LAB_DIM, LAB_DIM))
        rho_a = partial_trace(state.density(), space, keep=[0])
        up, down = basis.up_state.amplitudes, basis.down_state.amplitudes
        expected = 0.5 * (np.outer(up, up.conj()) + np.outer(down, down.conj()))
        assert_allclose(rho_a.entries, expected, atol=1e-12)

    def test_rotational_invariance_within_branch_span(self, state, basis):
        # the singlet is invariant under equal rotations of both branch qubits
        up, down = basis.up_state.amplitudes, basis.down_state.amplitudes
        for gamma in (0.3, 1.2, 2.9):
            c, s = np.cos(gamma / 2), np.sin(gamma / 2)
            span = np.outer(up, up.conj()) + np.outer(down, down.conj())
            rot = (c * span + s * (np.outer(down, up.conj()) - np.outer(up, down.conj()))
                   + np.eye(LAB_DIM) - span)
            both = np.kron(rot, rot)
            rotated = both @ state.amplitudes
            assert abs(np.vdot(rotated, state.amplitudes)) == pytest.approx(1.0, abs=1e-10)


class TestMacroObservable:
    def test_spectrum_in_minus_zero_plus(self, basis):
        for obs in (branch_projection_observable(basis), interference_observable(basis),
                    rotated_observable(basis, 0.7)):
            evals = np.linalg.eigvalsh(obs.matrix.entries)
            dist = np.min(np.abs(evals[:, None] - np.array([[-1.0, 0.0, 1.0]])), axis=1)
            assert np.max(dist) < 1e-10
            assert np.sum(np.abs(evals - 1) < 1e-10) == 1
            assert np.sum(np.abs(evals + 1) < 1e-10) == 1

    def test_annihilates_complement(self, basis):
        obs = rotated_observable(basis, 1.1)
        span = np.outer(basis.up_state.amplitudes, basis.up_state.amplitudes.conj()) \
            + np.outer(basis.down_state.amplitudes, basis.down_state.amplitudes.conj())
        complement = np.eye(LAB_DIM) - span
        assert np.max(np.abs(obs.matrix.entries @ complement)) < 1e-12

    def test_invalid_spectrum_rejected(self, basis):
        m = 0.5 * np.outer(basis.up_state.amplitudes, basis.up_state.amplitudes.conj())
        with pytest.raises(ToleranceError):
            MacroObservable(matrix=OperatorMatrix(m, kind="hermitian"), label="bad")

    def test_outcome_projectors_are_stored_read_only(self, basis):
        obs = rotated_observable(basis, 0.7)
        first = obs.outcome_projectors()
        first[1] = np.zeros((LAB_DIM, LAB_DIM))
        second, third = obs.outcome_projectors(), obs.outcome_projectors()
        assert sorted(second) == [-1, 0, 1]
        for value, proj in second.items():
            assert np.array_equal(proj, third[value])
            assert not proj.flags.writeable
            with pytest.raises(ValueError):
                proj[0, 0] = 1.0
        assert np.max(np.abs(sum(second.values()) - np.eye(LAB_DIM))) < 1e-12
        assert np.max(np.abs(second[1] - second[-1] - obs.matrix.entries)) < 1e-12

    def test_anticommutator_vanishes_on_span(self, basis):
        z = branch_projection_observable(basis).matrix.entries
        x = interference_observable(basis).matrix.entries
        span = np.outer(basis.up_state.amplitudes, basis.up_state.amplitudes.conj()) \
            + np.outer(basis.down_state.amplitudes, basis.down_state.amplitudes.conj())
        assert np.max(np.abs((z @ x + x @ z) @ span)) < 1e-12


class TestCorrelations:
    def test_singlet_table_against_kron_oracle(self, state, basis, settings):
        z = branch_projection_observable(basis)
        x = interference_observable(basis)
        cases = [
            (z, z, -1.0),
            (z, x, 0.0),
            (x, x, -1.0),
            (settings.a1, settings.b1, -1 / SQRT2),
            (settings.a1, settings.b2, -1 / SQRT2),
            (settings.a2, settings.b1, -1 / SQRT2),
            (settings.a2, settings.b2, +1 / SQRT2),
        ]
        for obs_a, obs_b, expected in cases:
            fast = correlation(state, obs_a, obs_b)
            oracle = kron_oracle(state, obs_a, obs_b)
            assert fast == pytest.approx(oracle, abs=1e-12)
            assert fast == pytest.approx(expected, abs=1e-9)

    def test_dimension_check(self, settings):
        with pytest.raises(ValueError):
            correlation(StateVector.basis(16, 0), settings.a1, settings.b1)


class TestChsh:
    def test_maximal_violation(self, state, settings):
        assert chsh_value(state, settings) == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_product_state_respects_classical_ceiling(self, basis, settings):
        product = StateVector(np.kron(basis.up_state.amplitudes,
                                      basis.up_state.amplitudes))
        assert chsh_value(product, settings) <= 2.0 + 1e-9

    def test_degenerate_settings_cannot_violate(self, state, basis, settings):
        z = branch_projection_observable(basis)
        degenerate = ChshSettings(a1=z, a2=z, b1=settings.b1, b2=settings.b2)
        assert chsh_value(state, degenerate) <= 2.0 + 1e-9

    def test_tsirelson_ceiling_over_random_settings(self, state, basis, rng):
        for _ in range(1000):
            ga1, ga2, gb1, gb2 = rng.uniform(0, 2 * np.pi, 4)
            s = ChshSettings(a1=rotated_observable(basis, ga1),
                             a2=rotated_observable(basis, ga2),
                             b1=rotated_observable(basis, gb1),
                             b2=rotated_observable(basis, gb2))
            assert chsh_value(state, s) <= 2 * SQRT2 + 1e-9


class TestLhvBound:
    def test_exhaustive_enumeration_gives_two(self):
        assert lhv_bound() == 2.0

    def test_single_assignment_arithmetic(self):
        a1 = a2 = b1 = b2 = 1
        assert abs(a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2) == 2

    def test_convex_mixtures_cannot_beat_deterministic(self, rng):
        strategies = [(a1, a2, b1, b2)
                      for a1 in (-1, 1) for a2 in (-1, 1)
                      for b1 in (-1, 1) for b2 in (-1, 1)]
        values = np.array([a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2
                           for a1, a2, b1, b2 in strategies], dtype=float)
        for _ in range(1000):
            w = rng.dirichlet(np.ones(16))
            assert abs(np.dot(w, values)) <= 2.0 + 1e-12


class TestNoSignaling:
    def test_alice_marginals_independent_of_bob_setting(self, state, settings):
        for alice in (settings.a1, settings.a2):
            marginals = []
            for bob in (settings.b1, settings.b2):
                proj_b = bob.outcome_projectors()
                m = state.amplitudes.reshape(LAB_DIM, LAB_DIM)
                pa = {}
                for va, p_a in alice.outcome_projectors().items():
                    pa[va] = sum(
                        float(np.real(np.einsum("ab,ac,bd,cd->", m.conj(), p_a, p_b, m)))
                        for p_b in proj_b.values())
                marginals.append(pa)
            for outcome in (-1, 0, 1):
                assert marginals[0][outcome] == pytest.approx(marginals[1][outcome],
                                                              abs=1e-12)


class TestSampledMode:
    def test_deterministic_given_seed(self, state, settings):
        r1 = chsh_value_sampled(state, settings, 2000, np.random.default_rng(5))
        r2 = chsh_value_sampled(state, settings, 2000, np.random.default_rng(5))
        assert r1 == r2

    def test_converges_to_exact(self, state, settings):
        rng = np.random.default_rng(12)
        approx = correlation_sampled(state, settings.a1, settings.b1, 200000, rng)
        assert approx == pytest.approx(-1 / SQRT2, abs=0.01)

    def test_shot_validation(self, state, settings):
        with pytest.raises(ValueError):
            correlation_sampled(state, settings.a1, settings.b1, 0,
                                np.random.default_rng(0))

    def test_nan_state_rejected(self, state, settings):
        with pytest.raises(ValueError):
            StateVector(np.full(LAB_DIM * LAB_DIM, np.nan))
        # a NaN amplitude forced past the constructor still stops the sampler
        amps = state.amplitudes.copy()
        amps[0] = np.nan
        bad = object.__new__(StateVector)
        object.__setattr__(bad, "dim", amps.size)
        object.__setattr__(bad, "amplitudes", amps)
        with pytest.raises(ValueError):
            correlation_sampled(bad, settings.a1, settings.b1, 10, np.random.default_rng(0))


def outcome_distribution(state, obs_a, obs_b):
    """Outcome products and normalized Born probabilities of the nine pairs."""
    m = state.amplitudes.reshape(LAB_DIM, LAB_DIM)
    outcomes, probs = [], []
    for va, pa in obs_a.outcome_projectors().items():
        for vb, pb in obs_b.outcome_projectors().items():
            outcomes.append(va * vb)
            probs.append(max(np.vdot(m, pa @ m @ pb.T).real, 0.0))
    probs = np.array(probs)
    return np.array(outcomes), probs / probs.sum()


def choice_route(state, obs_a, obs_b, shots, rng):
    """The earlier sampler: `Generator.choice` over the nine outcome pairs."""
    outcomes, probs = outcome_distribution(state, obs_a, obs_b)
    draws = rng.choice(len(outcomes), size=shots, p=probs)
    return float(outcomes[draws].mean())


class FixedUniforms:
    """Stands in for a Generator whose `random` returns chosen values."""

    def __init__(self, values):
        self.values = values

    def random(self, size):
        assert size == self.values.size
        return self.values


class TestSamplingBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    # one chunk of uniforms and its neighbours, several chunks with a ragged end
    @pytest.mark.parametrize("shots", [1, 2, 17, 2000, _SHOT_CHUNK - 1, _SHOT_CHUNK,
                                       _SHOT_CHUNK + 1, 100000, 3 * _SHOT_CHUNK + 5])
    def test_equals_choice_route(self, state, settings, basis, seed, shots):
        pairs = [(a, b) for _, a, b in settings.pairs()]
        pairs.append((rotated_observable(basis, 0.37), rotated_observable(basis, -1.1)))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for a, b in pairs:
            got = correlation_sampled(state, a, b, shots, rng)
            want = choice_route(state, a, b, shots, ref_rng)
            assert type(got) is float
            assert got.hex() == want.hex()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_uniforms_on_bin_edges(self, state, settings, basis):
        # choice's bin is cdf.searchsorted(u, side="right"): a uniform equal to
        # cdf[k] belongs to the bin after k
        for a, b in [(settings.a2, settings.b1),
                     (rotated_observable(basis, 0.37), rotated_observable(basis, -1.1))]:
            outcomes, probs = outcome_distribution(state, a, b)
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            edges = cdf[cdf < 1.0]
            for u in np.concatenate([edges, np.nextafter(edges, 0.0),
                                     [0.0, np.nextafter(1.0, 0.0)]]):
                want = float(outcomes[cdf.searchsorted(u, side="right")])
                got = correlation_sampled(state, a, b, 1, FixedUniforms(np.array([u])))
                assert got.hex() == want.hex()


class TestDistinctBinEdges:
    """Only the distinct cdf edges below 1 are counted; the value and the
    generator state must still be those of `Generator.choice`.
    """

    @pytest.fixture(scope="class")
    def cases(self, state, settings, basis):
        up, down = basis.up_state.amplitudes, basis.down_state.amplitudes
        z = branch_projection_observable(basis)
        half = StateVector(np.kron(up, (up + down) / SQRT2))  # Z(x)Z bins: 1/2, 1/2, 0...
        pure = StateVector(np.kron(up, up))  # one certain bin: every edge is 1
        return [(state, a, b) for _, a, b in settings.pairs()] + [(half, z, z), (pure, z, z)]

    def test_cases_have_repeated_edges_and_early_ones(self, cases):
        distinct_below_one = []
        for psi, a, b in cases:
            _, probs = outcome_distribution(psi, a, b)
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            assert cdf[-2] == 1.0  # an edge of 1.0 before the end
            distinct_below_one.append(np.unique(cdf[cdf < 1.0]).size)
        # the singlet's 0.5 edge repeats: 3 edges of 9 on every default pair
        assert distinct_below_one == [3, 3, 3, 3, 1, 0]

    @pytest.mark.parametrize("shots", [_SHOT_CHUNK - 1, _SHOT_CHUNK + 1, 2 * _SHOT_CHUNK + 7])
    def test_equals_choice_route(self, cases, shots):
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        for psi, a, b in cases:
            got = correlation_sampled(psi, a, b, shots, rng)
            want = choice_route(psi, a, b, shots, ref_rng)
            assert got.hex() == want.hex()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def exact_summary(state, settings):
    return chsh_summary({name: correlation(state, a, b) for name, a, b in settings.pairs()})


class TestFactsReport:
    def test_default_run_excludes_coexistence(self, state, settings):
        report = exact_summary(state, settings)
        assert report["coexistence_excluded"] is True
        assert report["chsh_value"] == pytest.approx(2 * SQRT2, abs=1e-9)
        assert report["lhv_bound"] == 2.0
        assert report["margin"] == pytest.approx(2 * SQRT2 - 2, abs=1e-9)

    def test_product_state_not_excluded(self, basis, settings):
        product = StateVector(np.kron(basis.up_state.amplitudes,
                                      basis.down_state.amplitudes))
        report = exact_summary(product, settings)
        assert report["coexistence_excluded"] is False

    def test_summary_of_sampled_correlations(self, state, settings):
        rng = np.random.default_rng(4)
        corr = {name: correlation_sampled(state, a, b, 5000, rng)
                for name, a, b in settings.pairs()}
        report = chsh_summary(corr)
        assert report["correlations"] is corr
        assert report["chsh_value"] == chsh_value_sampled(state, settings, 5000,
                                                          np.random.default_rng(4))
        assert report["margin"] == report["chsh_value"] - 2.0
        assert report["coexistence_excluded"] is True

    def test_commuting_settings_not_excluded(self, state, basis, settings):
        z = branch_projection_observable(basis)
        degenerate = ChshSettings(a1=z, a2=z, b1=settings.b1, b2=settings.b1)
        report = exact_summary(state, degenerate)
        assert report["coexistence_excluded"] is False
