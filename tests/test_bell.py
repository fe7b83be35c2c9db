import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from fapplab import cli
from fapplab.errors import ToleranceError
from fapplab.qcore import OperatorMatrix, StateVector, partial_trace
from fapplab.bell import (_SHOT_CHUNK, EIGENVALUE_TOL, LAB_DIM, ChshSettings, MacroObservable,
                          build_bell_state, chsh_summary, chsh_value, correlation,
                          correlation_sampled, default_branches, lhv_bound)

from oracles import (branch_projection_observable, chsh_value_sampled,
                     interference_observable, rotated_observable)

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def basis():
    return default_branches()


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
        up, down = (s.amplitudes for s in basis)
        want = (np.kron(up, down) - np.kron(down, up)) / np.sqrt(2.0)
        got = build_bell_state(basis).amplitudes
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_reduced_laboratory_is_even_branch_mixture(self, state, basis):
        space = (LAB_DIM, LAB_DIM)
        rho_a = partial_trace(state.density(), space, keep=[0])
        up, down = (s.amplitudes for s in basis)
        expected = 0.5 * (np.outer(up, up.conj()) + np.outer(down, down.conj()))
        assert_allclose(rho_a.entries, expected, atol=1e-12)

    def test_rotational_invariance_within_branch_span(self, state, basis):
        # the singlet is invariant under equal rotations of both branch qubits
        up, down = (s.amplitudes for s in basis)
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
        span = np.outer(basis[0].amplitudes, basis[0].amplitudes.conj()) \
            + np.outer(basis[1].amplitudes, basis[1].amplitudes.conj())
        complement = np.eye(LAB_DIM) - span
        assert np.max(np.abs(obs.matrix.entries @ complement)) < 1e-12

    def test_invalid_spectrum_rejected(self, basis):
        up, down = (s.amplitudes for s in basis)
        z = np.outer(up, up.conj()) - np.outer(down, down.conj())
        e = StateVector.basis(LAB_DIM, 0).amplitudes
        assert np.vdot(e, up) == np.vdot(e, down) == 0
        bad = [OperatorMatrix(0.5 * np.outer(up, up.conj()), kind="hermitian"),
               # A^3 = A, but +1 twice
               OperatorMatrix(z + np.outer(e, e), kind="hermitian"),
               # +1 moved to 1 + 3 EIGENVALUE_TOL
               OperatorMatrix(z + 3 * EIGENVALUE_TOL * np.outer(up, up.conj()), kind="hermitian"),
               basis[0].density()]  # kind "projector"
        for matrix in bad:
            with pytest.raises(ToleranceError):
                MacroObservable(matrix=matrix)

    def test_projectors_equal_eigenprojectors(self, basis, settings):
        # the functional-calculus projectors against an eigendecomposition
        observables = [settings.a1, settings.a2, settings.b1, settings.b2]
        observables += [rotated_observable(basis, angle)
                        for angle in np.linspace(-np.pi, np.pi, 24)]
        for obs in observables:
            evals, vecs = np.linalg.eigh(obs.matrix.entries)
            got = obs.outcome_projectors()
            for value in (1, -1, 0):
                cols = vecs[:, np.abs(evals - value) < 1e-10]
                assert np.max(np.abs(got[value] - cols @ cols.conj().T)) < 1e-12

    def test_bell_runs_need_no_eigendecomposition(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called in a bell run")
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for name, lines in (("exact", []), ("sampled", ["sampled=true", "shots=2000"])):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text("\n".join(["experiment=bell"] + lines) + "\n", encoding="utf-8")
            out = tmp_path / f"{name}.out"
            assert cli.main(["--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
            assert out.exists()

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
        span = np.outer(basis[0].amplitudes, basis[0].amplitudes.conj()) \
            + np.outer(basis[1].amplitudes, basis[1].amplitudes.conj())
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
        product = StateVector(np.kron(basis[0].amplitudes,
                                      basis[0].amplitudes))
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
        up, down = (s.amplitudes for s in basis)
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
        product = StateVector(np.kron(basis[0].amplitudes,
                                      basis[1].amplitudes))
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


#: the default angles of a1, a2, b1, b2 within the branch span
DEFAULT_ANGLES = (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)
#: the 16 deterministic assignments (a1, a2, b1, b2) of +/-1 values
ASSIGNMENTS = np.array(list(itertools.product((-1, 1), repeat=4)))


def rotated_settings(basis, angles):
    return ChshSettings(*(rotated_observable(basis, angle) for angle in angles))


def has_joint_distribution(corr):
    """Whether some mixture of the 16 deterministic assignments reproduces the
    four correlations: a feasibility LP over the assignment weights."""
    a1, a2, b1, b2 = ASSIGNMENTS.T
    rows = [np.ones(16), a1 * b1, a1 * b2, a2 * b1, a2 * b2]
    target = [1.0] + [corr[name] for name in ("a1b1", "a1b2", "a2b1", "a2b2")]
    result = linprog(np.zeros(16), A_eq=np.array(rows), b_eq=target, bounds=(0, None),
                     method="highs")
    assert result.status in (0, 2), result.message  # solved, or proven infeasible
    return result.status == 0


class TestEveryChshForm:
    def test_verdict_equals_joint_distribution_lp(self, state, basis):
        # Fine, PRL 48, 291 (1982): a joint distribution exists iff all eight
        # CHSH inequalities hold
        rng = np.random.default_rng(0)
        forms = []
        for _ in range(300):
            settings = rotated_settings(basis, rng.uniform(0, 2 * np.pi, 4))
            report = exact_summary(state, settings)
            assert report["coexistence_excluded"] is not has_joint_distribution(
                report["correlations"])
            if report["coexistence_excluded"]:
                forms.append(report["chsh_form"])
        # both verdicts occur, and violations show up in every form
        assert 0 < len(forms) < 300
        assert set(forms) == {"a1b1+a1b2+a2b1-a2b2", "a1b1+a1b2-a2b1+a2b2",
                              "a1b1-a1b2+a2b1+a2b2", "-a1b1+a1b2+a2b1+a2b2"}

    @pytest.mark.parametrize("angles, form", [
        (DEFAULT_ANGLES, "a1b1+a1b2+a2b1-a2b2"),
        ((0.0, np.pi / 2, -np.pi / 4, np.pi / 4), "a1b1+a1b2-a2b1+a2b2"),
        ((np.pi / 2, 0.0, np.pi / 4, -np.pi / 4), "a1b1-a1b2+a2b1+a2b2"),
        ((np.pi / 2, 0.0, -np.pi / 4, np.pi / 4), "-a1b1+a1b2+a2b1+a2b2"),
        ((np.pi, np.pi / 2, np.pi / 4, -np.pi / 4), "a1b1+a1b2-a2b1+a2b2"),
        ((0.0, np.pi / 2, 5 * np.pi / 4, -np.pi / 4), "a1b1-a1b2+a2b1+a2b2"),
    ], ids=["default", "swap-b", "swap-a", "swap-both", "negate-a1", "negate-b1"])
    def test_relabelled_settings_keep_maximal_violation(self, state, basis, angles, form):
        # a pi rotation negates an observable
        settings = rotated_settings(basis, angles)
        assert chsh_value(state, settings) == pytest.approx(2 * SQRT2, abs=1e-12)
        report = exact_summary(state, settings)
        assert report["chsh_form"] == form
        assert report["coexistence_excluded"] is True

    def test_default_value_is_the_first_form(self, state, settings):
        corr = {name: correlation(state, a, b) for name, a, b in settings.pairs()}
        first = abs(corr["a1b1"] + corr["a1b2"] + corr["a2b1"] - corr["a2b2"])
        assert chsh_summary(corr)["chsh_value"].hex() == first.hex()
