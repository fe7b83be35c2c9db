import tracemalloc

import numpy as np
import pytest

from fapplab import reversal
from fapplab.reversal import (_CHUNK, MAX_SAMPLE_STEPS, MAX_SAMPLES, TWO_PI, CellRegion,
                              PhasePoint, ReversalConfig, ReversibleMap, _wrap, bound,
                              lyapunov, lyapunov_rows, reversal_probabilities,
                              reversal_probability)


def make_config(**overrides):
    defaults = dict(
        map=ReversibleMap(6.0),
        perturbed_kick=6.0,
        steps=10,
        region=CellRegion(center=PhasePoint(3.0, 2.0), half_width=0.025),
        samples=10000,
        seed=1234,
    )
    defaults.update(overrides)
    return ReversalConfig(**defaults)


def backward_step(kick, q, p):
    """Closed-form inverse of one kick-drift-kick step (test oracle)."""
    p = (p - 0.5 * kick * np.sin(q)) % TWO_PI
    q = (q - p) % TWO_PI
    p = (p - 0.5 * kick * np.sin(q)) % TWO_PI
    return q, p


def unfused_step(kick, q, p):
    """One kick-drift-kick step with two sine evaluations (test oracle)."""
    p = (p + 0.5 * kick * np.sin(q)) % TWO_PI
    q = (q + p) % TWO_PI
    p = (p + 0.5 * kick * np.sin(q)) % TWO_PI
    return q, p


def reference_lyapunov(kick, steps, seed, transient=100, n_init=32):
    """`lyapunov` as it was before the in-place kernel: unfused np.remainder
    steps and a tangent update that builds new arrays (test oracle)."""
    rng = np.random.default_rng(seed)
    half_kick = 0.5 * kick
    start = rng.uniform(0.0, TWO_PI, (n_init, 2))
    q, p = start[:, 0], start[:, 1]
    for _ in range(transient):
        q, p = unfused_step(kick, q, p)
    v0, v1 = np.ones(n_init), np.zeros(n_init)
    acc = np.zeros(n_init)
    c2 = half_kick * np.cos(q)
    for _ in range(steps):
        c1 = c2
        q, p = unfused_step(kick, q, p)
        c2 = half_kick * np.cos(q)
        v0, v1 = (v0 + v1 + c1 * v0,
                  c2 * (v0 + v1 + c1 * v0) + c1 * v0 + v1)
        norm = np.hypot(v0, v1)
        acc += np.log(norm)
        v0, v1 = v0 / norm, v1 / norm
    total = 0.0
    for a in acc:
        total += a / steps
    return total / n_init


def all_at_once_reversal(cfg):
    """`reversal_probability`'s Monte-Carlo before it was streamed: every
    sample drawn, stepped, flipped and counted at once (test oracle). Returns
    the (q, p) given to the forward and to the perturbed stepping, the
    probability and its standard error."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
    center, half_width = cfg.region.center, cfg.region.half_width
    q0 = (center.q + rng.uniform(-half_width, half_width, cfg.samples)) % TWO_PI
    p0 = (center.p + rng.uniform(-half_width, half_width, cfg.samples)) % TWO_PI
    q1, p1 = cfg.map.evolve_arrays(q0, p0, cfg.steps)
    p1 = (-p1) % TWO_PI
    q, p = ReversibleMap(cfg.perturbed_kick).evolve_arrays(q1, p1, cfg.steps)
    p = (-p) % TWO_PI
    prob = int(np.count_nonzero(cfg.region.contains(q, p))) / cfg.samples
    return [(q0, p0), (q1, p1)], prob, float(np.sqrt(prob * (1 - prob) / cfg.samples))


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestWrap:
    """`_wrap` must give exactly the bits of np.remainder on [-2pi, 4pi]."""

    def wrapped(self, x):
        x = np.array(x, dtype=float)
        _wrap(x)
        return x

    def test_edge_values(self):
        pi = np.pi
        points = [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17]
        for v in (-TWO_PI, pi, TWO_PI, 3 * pi, 2 * TWO_PI):
            points += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
        x = np.array(points)
        x = x[(x >= -TWO_PI) & (x <= 2 * TWO_PI)]  # the outer neighbours of -2pi and 4pi
        assert x.size == len(points) - 2
        assert_same_bits(self.wrapped(x), np.remainder(x, TWO_PI))

    def test_special_results(self):
        # -0.0 becomes +0.0, 4pi becomes +0, tiny negatives round up to 2pi
        assert_same_bits(self.wrapped([-0.0, 2 * TWO_PI, -1e-17]), [0.0, 0.0, TWO_PI])

    def test_uniform_draws(self, rng):
        x = rng.uniform(-TWO_PI, 2 * TWO_PI, 1_000_000)
        assert_same_bits(self.wrapped(x), np.remainder(x, TWO_PI))

    def test_domain_is_needed(self):
        # just below -2pi one add is not enough: the map kernel must not wrap there
        x = np.nextafter(-TWO_PI, -np.inf)
        assert self.wrapped(x) != np.remainder(x, TWO_PI)


class TestEvolveArrays:
    """The in-place chunked kernel against unfused np.remainder steps."""

    @pytest.fixture
    def wrap_calls(self, monkeypatch):
        calls = []

        def counting_wrap(x):
            calls.append(x.size)
            _wrap(x)

        monkeypatch.setattr(reversal, "_wrap", counting_wrap)
        return calls

    @pytest.mark.parametrize("kick", [0.0, 0.3, 6.0, 12.5, 2 * TWO_PI, 20.0])
    def test_chunks_equal_unfused_steps(self, rng, wrap_calls, kick):
        # 40000 points make three chunks, the last one ragged; 0 and exactly
        # 2pi are legal inputs
        q = rng.uniform(0, TWO_PI, 40000)
        p = rng.uniform(0, TWO_PI, 40000)
        q[:3], p[:3] = [0.0, TWO_PI, 0.0], [TWO_PI, 0.0, 0.0]
        q_in, p_in = q.copy(), p.copy()
        qf, pf = ReversibleMap(kick).evolve_arrays(q, p, 7)
        assert_same_bits(q, q_in)  # the caller's arrays are untouched
        assert_same_bits(p, p_in)
        for _ in range(7):
            q, p = unfused_step(kick, q, p)
        assert_same_bits(qf, q)
        assert_same_bits(pf, p)
        assert bool(wrap_calls) == (kick < 2 * TWO_PI)  # K >= 4pi falls back

    def test_out_of_range_inputs_fall_back(self, rng, wrap_calls):
        q = rng.uniform(0, TWO_PI, 1000)
        p = rng.uniform(0, TWO_PI, 1000)
        q[10], p[20] = 7.0, -1.0
        qf, pf = ReversibleMap(6.0).evolve_arrays(q, p, 5)
        assert q[10] == 7.0 and p[20] == -1.0
        for _ in range(5):
            q, p = unfused_step(6.0, q, p)
        assert_same_bits(qf, q)
        assert_same_bits(pf, p)
        assert not wrap_calls

    def test_nan_falls_back(self, wrap_calls):
        qf, pf = ReversibleMap(6.0).evolve_arrays(np.array([1.0, 2.0]),
                                                  np.array([np.nan, 3.0]), 2)
        assert np.isnan(qf[0]) and np.isnan(pf[0])
        assert not wrap_calls

    def test_zero_d_inputs(self):
        qf, pf = ReversibleMap(6.0).evolve_arrays(np.float64(1.0), np.float64(2.0), 3)
        q, p = np.float64(1.0), np.float64(2.0)
        for _ in range(3):
            q, p = unfused_step(6.0, q, p)
        assert qf.shape == () and pf.shape == ()
        assert (float(qf), float(pf)) == (q, p)

    def test_empty_inputs(self):
        qf, pf = ReversibleMap(6.0).evolve_arrays(np.empty(0), np.empty(0), 3)
        assert qf.shape == (0,) and pf.shape == (0,)

    def test_zero_steps_copies(self, rng):
        q = rng.uniform(0, TWO_PI, 10)
        p = rng.uniform(0, TWO_PI, 10)
        qf, pf = ReversibleMap(6.0).evolve_arrays(q, p, 0)
        assert_same_bits(qf, q)
        assert qf is not q and pf is not p


class TestNonFiniteParameters:
    @pytest.mark.parametrize("kick", [np.nan, np.inf])
    def test_map(self, kick):
        with pytest.raises(ValueError):
            ReversibleMap(kick)

    @pytest.mark.parametrize("kick", [np.nan, np.inf])
    def test_perturbed_kick(self, kick):
        with pytest.raises(ValueError):
            make_config(perturbed_kick=kick)

    def test_cell_half_width(self):
        with pytest.raises(ValueError):
            CellRegion(center=PhasePoint(3.0, 2.0), half_width=np.nan)


class TestPhasePoint:
    def test_modular_reduction(self):
        pt = PhasePoint(7.0, -1.0)
        assert 0 <= pt.q < TWO_PI
        assert 0 <= pt.p < TWO_PI
        assert pt.q == pytest.approx(7.0 - TWO_PI)


class TestStep:
    def test_integrable_limit_is_rotation(self):
        q, p = ReversibleMap(0.0).evolve_arrays(np.float64(1.0), np.float64(0.5), 1)
        assert float(q) == pytest.approx(1.5, abs=1e-15)
        assert float(p) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("kick", [6.0, 0.3])
    @pytest.mark.parametrize("steps", [1, 50])
    def test_evolve_equals_unfused_steps(self, rng, kick, steps):
        # sharing one sine between adjacent half-kicks must not move a bit
        q = rng.uniform(0, TWO_PI, 10000)
        p = rng.uniform(0, TWO_PI, 10000)
        qf, pf = ReversibleMap(kick).evolve_arrays(q, p, steps)
        for _ in range(steps):
            q, p = unfused_step(kick, q, p)
        assert np.array_equal(qf, q)
        assert np.array_equal(pf, p)

    def test_backward_inverts_forward(self, rng):
        m = ReversibleMap(6.0)
        q = rng.uniform(0, TWO_PI, 10000)
        p = rng.uniform(0, TWO_PI, 10000)
        q1, p1 = m.evolve_arrays(q, p, 1)
        q2, p2 = backward_step(6.0, q1, p1)
        assert np.max(np.abs(q2 - q)) < 1e-12
        assert np.max(np.abs(p2 - p)) < 1e-12

    def test_momentum_flip_conjugation_is_inverse(self, rng):
        # flip, one forward step, flip again == one backward step
        m = ReversibleMap(6.0)
        q = rng.uniform(0, TWO_PI, 10000)
        p = rng.uniform(0, TWO_PI, 10000)
        qc, pc = m.evolve_arrays(q, (-p) % TWO_PI, 1)
        pc = (-pc) % TWO_PI
        qb, pb = backward_step(6.0, q, p)
        dq = np.abs((qc - qb + np.pi) % TWO_PI - np.pi)
        dp = np.abs((pc - pb + np.pi) % TWO_PI - np.pi)
        assert np.max(dq) < 1e-12
        assert np.max(dp) < 1e-12


class TestAreaPreservation:
    def test_unit_jacobian_everywhere(self, rng):
        # product of the analytic one-step tangent maps has determinant one
        m = ReversibleMap(6.0)
        half = 3.0
        for _ in range(200):
            q = float(rng.uniform(0, TWO_PI))
            p = float(rng.uniform(0, TWO_PI))
            c1 = half * np.cos(q)
            p1 = (p + half * np.sin(q)) % TWO_PI
            qn = (q + p1) % TWO_PI
            c2 = half * np.cos(qn)
            j = (np.array([[1, 0], [c2, 1]]) @ np.array([[1, 1], [0, 1]])
                 @ np.array([[1, 0], [c1, 1]]))
            assert abs(np.linalg.det(j) - 1.0) < 1e-12

    def test_covariance_volume_short_time(self, rng):
        # one chaotic step of a small cell is linear to good accuracy;
        # evaluated on the unwrapped lift so the torus seam cannot split the cloud
        region = CellRegion(center=PhasePoint(3.0, 2.0), half_width=0.025)
        q, p = region.sample(rng, rng, 100000)
        vol_in = np.linalg.det(np.cov(np.vstack([q, p])))
        p = p + 3.0 * np.sin(q)
        q = q + p
        p = p + 3.0 * np.sin(q)
        vol_out = np.linalg.det(np.cov(np.vstack([q, p])))
        assert vol_out == pytest.approx(vol_in, rel=0.05)

    def test_shear_preserves_covariance_20_steps(self, rng):
        # integrable limit on the unwrapped plane: exact unimodular shear
        region = CellRegion(center=PhasePoint(3.0, 0.1), half_width=0.025)
        q, p = region.sample(rng, rng, 100000)
        vol_in = np.linalg.det(np.cov(np.vstack([q, p])))
        for _ in range(20):
            q = q + p  # no wrap: lift to the plane
        vol_out = np.linalg.det(np.cov(np.vstack([q, p])))
        assert vol_out == pytest.approx(vol_in, rel=0.05)


class TestReversalProbability:
    def test_unperturbed_reversal_is_exact(self):
        result = reversal_probability(make_config(perturbed_kick=6.0, steps=10))
        assert result.probability == 1.0

    def test_zero_steps(self):
        result = reversal_probability(make_config(steps=0, perturbed_kick=6.5))
        assert result.probability == 1.0

    def test_small_perturbation_long_time_decays(self):
        cfg = make_config(perturbed_kick=6.0 + 1e-3, steps=20, samples=100000)
        result = reversal_probability(cfg)
        assert result.probability < 0.05

    def test_std_error_formula(self):
        result = reversal_probability(make_config(perturbed_kick=6.01, steps=5))
        p = result.probability
        assert result.std_error == pytest.approx(np.sqrt(p * (1 - p) / 10000), abs=1e-15)

    def test_seed_determinism(self):
        a = reversal_probability(make_config(perturbed_kick=6.02, steps=8))
        b = reversal_probability(make_config(perturbed_kick=6.02, steps=8))
        assert a == b  # bit-identical dataclasses

    def test_monotone_decay_within_noise(self):
        prev, prev_se = 1.1, 0.0
        steps = range(2, 21, 2)
        results = reversal_probabilities(
            make_config(perturbed_kick=6.01, steps=t, samples=30000, seed=77) for t in steps)
        for t, r in zip(steps, results):
            assert r.probability <= prev + 2 * max(r.std_error, prev_se), f"t={t}"
            prev, prev_se = r.probability, r.std_error

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_config(samples=50)
        with pytest.raises(ValueError):
            make_config(steps=-1)
        with pytest.raises(ValueError):
            CellRegion(center=PhasePoint(0, 0), half_width=4.0)

    def test_sample_steps_cap(self):
        # construction runs no row, so the configs at the cap are only built
        make_config(samples=MAX_SAMPLES, steps=15)
        make_config(samples=100, steps=MAX_SAMPLE_STEPS // 100)
        with pytest.raises(ValueError, match="sample-steps"):
            make_config(samples=MAX_SAMPLES, steps=16)
        with pytest.raises(ValueError, match="sample-steps"):
            make_config(samples=100, steps=MAX_SAMPLE_STEPS // 100 + 1)


class TestStreamedMonteCarlo:
    @pytest.mark.parametrize("samples", [100, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_chunks_equal_all_at_once_route(self, monkeypatch, samples):
        cfg = make_config(perturbed_kick=6.01, steps=2, samples=samples)
        want_inputs, prob, std_error = all_at_once_reversal(cfg)
        inputs = []
        evolve = ReversibleMap.evolve_arrays

        def recording_evolve(self, q, p, steps):
            inputs.append((q.copy(), p.copy()))
            return evolve(self, q, p, steps)

        monkeypatch.setattr(ReversibleMap, "evolve_arrays", recording_evolve)
        got = reversal_probability(cfg, lyapunov_estimate=1.0)
        assert 0 < prob < 1  # the count is neither empty nor full
        # each chunk is stepped forward, flipped and stepped by the perturbed map
        forward, perturbed = inputs[0::2], inputs[1::2]
        assert [len(q) for q, _ in forward] == [
            min(_CHUNK, samples - start) for start in range(0, samples, _CHUNK)]
        for chunks, (q, p) in zip((forward, perturbed), want_inputs):
            assert_same_bits(np.concatenate([q_chunk for q_chunk, _ in chunks]), q)
            assert_same_bits(np.concatenate([p_chunk for _, p_chunk in chunks]), p)
        assert got.probability.hex() == prob.hex()
        assert got.std_error.hex() == std_error.hex()

    def test_memory_is_bounded_by_chunks(self):
        # 1e6 samples held at once took 38 MiB
        cfg = make_config(perturbed_kick=6.01, steps=1, samples=1_000_000)
        tracemalloc.start()
        try:
            reversal_probability(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_one_sample_stream_for_one_generator(self):
        # passing one generator twice draws all q, then all p from it
        region = CellRegion(center=PhasePoint(3.0, 2.0), half_width=0.025)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        q, p = region.sample(rng, rng, 1000)
        q_ref = (3.0 + twin.uniform(-0.025, 0.025, 1000)) % TWO_PI
        p_ref = (2.0 + twin.uniform(-0.025, 0.025, 1000)) % TWO_PI
        assert_same_bits(q, q_ref)
        assert_same_bits(p, p_ref)


class TestBatchedRows:
    def test_batch_equals_one_row_at_a_time(self, monkeypatch):
        configs = [make_config(perturbed_kick=6.01, steps=5, samples=200, seed=1),
                   make_config(perturbed_kick=6.01, steps=3, samples=200, seed=2),
                   make_config(perturbed_kick=6.0, steps=4, samples=300, seed=1),
                   make_config(map=ReversibleMap(0.3), perturbed_kick=0.31, steps=5,
                               samples=200, seed=1)]
        want = [reversal_probability(cfg) for cfg in configs]
        passes = []
        rows = reversal.lyapunov_rows

        def counting_rows(mapping, seeds, *args, **kwargs):
            passes.append((mapping.kick_strength, len(seeds)))
            return rows(mapping, seeds, *args, **kwargs)

        monkeypatch.setattr(reversal, "lyapunov_rows", counting_rows)
        assert reversal_probabilities(configs) == want
        # one pass per map; the two rows of kick 6 at seed 1 share one estimate
        assert passes == [(6.0, 2), (0.3, 1)]


class TestLyapunov:
    def test_integrable_limit(self):
        assert abs(lyapunov(ReversibleMap(0.0), steps=2000, seed=3)) < 0.01

    def test_strong_chaos_matches_large_kick_asymptote(self):
        # large-kick growth rate of the kicked rotor approaches ln(K/2)
        lam6 = lyapunov(ReversibleMap(6.0), steps=3000, seed=5)
        assert lam6 == pytest.approx(np.log(3.0), abs=0.15)
        lam10 = lyapunov(ReversibleMap(10.0), steps=3000, seed=5)
        assert lam10 == pytest.approx(np.log(5.0), abs=0.10)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_int_seed_equals_its_seed_sequence(self, seed):
        m = ReversibleMap(6.0)
        assert (lyapunov(m, steps=1000, seed=seed)
                == lyapunov(m, steps=1000, seed=np.random.SeedSequence(entropy=seed)))

    @pytest.mark.parametrize("kick", [0.3, 6.0, 14.0])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_reference_loop(self, kick, seed):
        # the in-place kernel and tangent update must not move a bit
        assert lyapunov(ReversibleMap(kick), steps=1000, seed=seed) == \
            reference_lyapunov(kick, 1000, seed)

    @pytest.mark.parametrize("kick", [0.3, 6.0, 14.0])
    def test_stacked_rows_equal_reference_loop(self, kick):
        # stacking rows must not move a bit of any row's estimate, in any order
        # and with a seed repeated
        want = {seed: reference_lyapunov(kick, 1000, seed).hex() for seed in (0, 7, 11)}
        seeds = [0, 7, 11, 7]
        for order in (seeds, seeds[::-1]):
            got = lyapunov_rows(ReversibleMap(kick), order, steps=1000)
            assert [lam.hex() for lam in got] == [want[seed] for seed in order]

    def test_minimum_effort_enforced(self):
        with pytest.raises(ValueError):
            lyapunov(ReversibleMap(6.0), steps=100)


class TestBound:
    def test_zero_time(self):
        assert bound(1.1, 0) == 1.0

    def test_arithmetic(self):
        assert bound(1.1, 10) == pytest.approx(np.exp(-11.0), rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            bound(1.0, -1)
