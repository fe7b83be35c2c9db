import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import beta, binom

from fapplab import parallel, reversal
from fapplab.reversal import (_CHUNK, MAX_KICK, MAX_ROWS, MAX_RUN_SAMPLE_STEPS,
                              MAX_SAMPLE_STEPS, MAX_SAMPLES, N_INIT, STEPS, TRANSIENT,
                              TWO_PI, CellRegion, PhasePoint, ReversalConfig, ReversibleMap,
                              _flip, _wrap_down, _wrap_once, bound, lyapunov,
                              reversal_probabilities, reversal_probability)

from oracles import lattice_reversal_probability


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


def reference_lyapunov(kick, seed):
    """`lyapunov` as it was before the in-place kernel: unfused np.remainder
    steps and a tangent update that builds new arrays (test oracle)."""
    rng = np.random.default_rng(seed)
    half_kick = 0.5 * kick
    start = rng.uniform(0.0, TWO_PI, (N_INIT, 2))
    q, p = start[:, 0], start[:, 1]
    for _ in range(TRANSIENT):
        q, p = unfused_step(kick, q, p)
    v0, v1 = np.ones(N_INIT), np.zeros(N_INIT)
    acc = np.zeros(N_INIT)
    c2 = half_kick * np.cos(q)
    for _ in range(STEPS):
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
        total += a / STEPS
    return total / N_INIT


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


def flip_add(x):
    """`_flip` of -x: the add line alone, which the flip applies to -p."""
    np.negative(x, out=x)
    _flip(x)


def reference_contains(region, q, p):
    """`CellRegion.contains` by np.remainder alone (test oracle)."""
    dq = np.abs((q - region.center.q + np.pi) % TWO_PI - np.pi)
    dp = np.abs((p - region.center.p + np.pi) % TWO_PI - np.pi)
    return (dq <= region.half_width) & (dp <= region.half_width)


FOUR_PI = 2 * TWO_PI
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17] + [
    x for v in (-TWO_PI, np.pi, TWO_PI, 3 * np.pi, FOUR_PI)
    for x in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]
#: each wrap, the domain on which it must give np.remainder's bits, that
#: domain's bounds for a uniform sweep, how many of `EDGES` lie
#: outside it, and an input just outside it where the wrap must differ
WRAPS = [
    pytest.param(_wrap_once, lambda x: (x >= -TWO_PI) & (x < FOUR_PI), -TWO_PI, FOUR_PI, 3,
                 FOUR_PI, id="wrap_once"),  # 4pi needs the second subtraction
    pytest.param(_wrap_down, lambda x: ~np.signbit(x) & (x <= FOUR_PI), 0.0, FOUR_PI, 7,
                 -1.0, id="wrap_down"),  # a negative needs the add
    pytest.param(flip_add, lambda x: (x >= -TWO_PI) & (x <= 0), -TWO_PI, 0.0, 15,
                 np.nextafter(-TWO_PI, -np.inf), id="flip"),
]


class TestWrap:
    """Each wrap must give exactly the bits of np.remainder on its domain."""

    def wrapped(self, wrap, x):
        x = np.array(x, dtype=float)
        wrap(x)
        return x

    @pytest.mark.parametrize("wrap, domain, lo, hi, outside, beyond", WRAPS)
    def test_edge_values(self, wrap, domain, lo, hi, outside, beyond):
        x = np.array(EDGES)
        x = x[domain(x)]
        assert x.size == len(EDGES) - outside
        assert_same_bits(self.wrapped(wrap, x), np.remainder(x, TWO_PI))

    @pytest.mark.parametrize("wrap, domain, lo, hi, outside, beyond", WRAPS)
    def test_uniform_draws(self, rng, wrap, domain, lo, hi, outside, beyond):
        x = rng.uniform(lo, hi, 1_000_000)
        assert domain(x).all()
        assert_same_bits(self.wrapped(wrap, x), np.remainder(x, TWO_PI))

    @pytest.mark.parametrize("wrap, domain, lo, hi, outside, beyond", WRAPS)
    def test_domain_is_needed(self, wrap, domain, lo, hi, outside, beyond):
        # just outside its domain a wrap misses np.remainder: no call site may
        # hand it such a value
        assert not domain(np.array(beyond))
        assert self.wrapped(wrap, beyond) != np.remainder(beyond, TWO_PI)

    def test_special_results(self):
        # -0.0 becomes +0.0, 4pi becomes +0, tiny negatives round up to 2pi
        assert_same_bits(self.wrapped(_wrap_once, [-0.0, -TWO_PI, -1e-17, -5e-324]),
                         [0.0, 0.0, TWO_PI, TWO_PI])
        assert_same_bits(self.wrapped(_wrap_down, [TWO_PI, FOUR_PI]), [0.0, 0.0])
        assert_same_bits(self.wrapped(flip_add, [-0.0, 0.0, -5e-324]), [0.0, 0.0, TWO_PI])


class TestCellTest:
    """`CellRegion.contains` against its np.remainder form, bit for bit."""

    @pytest.mark.parametrize("center", [(3.0, 2.0), (0.01, TWO_PI - 0.01)],
                             ids=["inside", "seam"])
    def test_edges(self, center):
        # each coordinate at the center, at center +- half_width wrapped onto
        # the torus and at their neighbours, all in [0, 2pi] where `contains`
        # takes `_wrap_once`; the seam cell's edges lie on both sides of 0 = 2pi
        region = CellRegion(center=PhasePoint(*center), half_width=0.025)
        axes = []
        for c in center:
            x = [c, 0.0, TWO_PI]
            for edge in ((c - 0.025) % TWO_PI, (c + 0.025) % TWO_PI):
                x += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
            axes.append(np.array(x))
        q, p = (a.ravel() for a in np.meshgrid(*axes))
        assert ((q >= 0) & (q <= TWO_PI) & (p >= 0) & (p <= TWO_PI)).all()
        got, want = region.contains(q, p), reference_contains(region, q, p)
        assert 0 < np.count_nonzero(got) == np.count_nonzero(want) < q.size
        assert np.array_equal(got, want)
        assert region.contains(*center)  # scalars are tested as 0-d arrays

    def test_off_torus_inputs_fall_back(self, rng):
        # outside [0, 2pi] the shifted distance may leave `_wrap_once`'s
        # domain, so `contains` takes np.remainder like `_step`
        region = CellRegion(center=PhasePoint(3.0, 2.0), half_width=0.025)
        q = 3.0 + rng.uniform(-0.05, 0.05, 1000) + TWO_PI * rng.integers(-3, 6, 1000)
        p = 2.0 + rng.uniform(-0.05, 0.05, 1000) + TWO_PI * rng.integers(-3, 6, 1000)
        got = region.contains(q, p)
        assert 0 < np.count_nonzero(got) < q.size
        assert np.array_equal(got, reference_contains(region, q, p))


class TestEvolveArrays:
    """The in-place chunked kernel against unfused np.remainder steps."""

    @pytest.fixture
    def wrap_calls(self, monkeypatch):
        """(name, size) of each call of the narrowed wraps, which only the fast
        path makes."""
        calls = []
        for name in ("_wrap_once", "_wrap_down"):
            def counting_wrap(x, name=name, wrap=getattr(reversal, name)):
                calls.append((name, x.size))
                wrap(x)

            monkeypatch.setattr(reversal, name, counting_wrap)
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

    def test_kick_rounding_up_to_4pi_falls_back(self, wrap_calls):
        # 2pi + K/2 rounds to 4pi, so the half-kick from p = 2pi at sin q = 1
        # lands on 4pi, which `_wrap_once` would leave at 2pi
        kick = np.nextafter(FOUR_PI, 0)
        q, p = np.array([np.pi / 2]), np.array([TWO_PI])
        assert p + 0.5 * kick * np.sin(q) == FOUR_PI
        qf, pf = ReversibleMap(kick).evolve_arrays(q, p, 1)
        q, p = unfused_step(kick, q, p)
        assert_same_bits(qf, q)
        assert_same_bits(pf, p)
        assert not wrap_calls

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
        # one chaotic step bends the cell, which biases the covariance ratio
        # by the curvature across it: 1 + 0.0385 at half-width 0.025, but
        # 1 + 0.0004 at 0.0025, where the step is linear to 4e-4 and the test
        # measures the area; evaluated on the unwrapped lift so the torus
        # seam cannot split the cloud
        region = CellRegion(center=PhasePoint(3.0, 2.0), half_width=0.0025)
        q, p = region.sample(rng, rng, 100000)
        vol_in = np.linalg.det(np.cov(np.vstack([q, p])))
        p = p + 3.0 * np.sin(q)
        q = q + p
        p = p + 3.0 * np.sin(q)
        vol_out = np.linalg.det(np.cov(np.vstack([q, p])))
        assert vol_out == pytest.approx(vol_in, rel=0.005)

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
        result = reversal_probabilities([make_config(perturbed_kick=6.0, steps=10)])[0]
        assert result.probability == 1.0

    def test_zero_steps(self):
        result = reversal_probabilities([make_config(steps=0, perturbed_kick=6.5)])[0]
        assert result.probability == 1.0

    def test_small_perturbation_long_time_decays(self):
        cfg = make_config(perturbed_kick=6.0 + 1e-3, steps=20, samples=100000)
        result = reversal_probabilities([cfg])[0]
        assert result.probability < 0.05

    def test_std_error_formula(self):
        result = reversal_probabilities([make_config(perturbed_kick=6.01, steps=5)])[0]
        p = result.probability
        assert result.std_error == pytest.approx(np.sqrt(p * (1 - p) / 10000), abs=1e-15)

    def test_seed_determinism(self):
        a = reversal_probabilities([make_config(perturbed_kick=6.02, steps=8)])[0]
        b = reversal_probabilities([make_config(perturbed_kick=6.02, steps=8)])[0]
        assert a == b  # bit-identical dataclasses

    def test_monotone_decay_within_noise(self):
        # Under equal return rates, given n1 + n2 hits in two rows the later
        # row's n2 is Binomial(n1 + n2, 1/2) (Przyborowski & Wilenski,
        # Biometrika 31, 313 (1940)); hits are rare at the floor, and misses
        # where returns are near certain, so the test runs on both counts (on
        # hits alone it misses a return probability near 1 that grows with
        # t). Each of the nine pairs takes 1e-6 / 9 of the family-wise
        # false-alarm rate, half for too many hits and half for too few
        # misses. The rows share their draws, which narrows their difference,
        # so the rate stays below that.
        samples, steps = 30000, range(2, 21, 2)
        results = reversal_probabilities(
            make_config(perturbed_kick=6.01, steps=t, samples=samples, seed=77) for t in steps)
        hits = [round(r.probability * samples) for r in results]
        for t, n1, n2 in zip(steps[1:], hits, hits[1:]):
            p_hits = binom.sf(n2 - 1, n1 + n2, 0.5)
            p_misses = binom.cdf(samples - n2, 2 * samples - n1 - n2, 0.5)
            assert 2 * min(p_hits, p_misses) >= 1e-6 / 9, f"t={t}: {n1} -> {n2} hits"

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


#: (t, K, K', cell center) of the lattice comparisons: the default cell at
#: t = 1 and t = 3, a cell across the 0/2pi seam in both coordinates, and
#: kicks above 4pi, which step by np.remainder
LATTICE_POINTS = [(1, 6.0, 6.01, (3.0, 2.0)), (3, 6.0, 6.01, (3.0, 2.0)),
                  (2, 6.0, 6.01, (0.01, 6.27)), (2, 13.0, 13.01, (3.0, 2.0))]


class TestLatticeOracle:
    @pytest.mark.parametrize("steps, kick, perturbed_kick, center", LATTICE_POINTS)
    def test_probability_matches_midpoint_lattice(self, steps, kick, perturbed_kick, center):
        # The hit count is Binomial(samples, P). Its exact (Clopper-Pearson)
        # interval at 1e-6 / 4 misses P with probability at most that, so the
        # four points together at most 1e-6; the lattice value stands for P
        # within its boundary share, so the interval widens by that share.
        samples, alpha = 10**5, 1e-6 / len(LATTICE_POINTS)
        want, refinement = lattice_reversal_probability(kick, perturbed_kick, steps,
                                                        center, 0.025)
        cfg = make_config(map=ReversibleMap(kick), perturbed_kick=perturbed_kick,
                          steps=steps, region=CellRegion(PhasePoint(*center), 0.025),
                          samples=samples, seed=11)
        hits = round(reversal_probability(cfg, 1.0).probability * samples)
        low = beta.ppf(alpha / 2, hits, samples - hits + 1) if hits else 0.0
        high = beta.isf(alpha / 2, hits + 1, samples - hits) if hits < samples else 1.0
        assert low - refinement <= want <= high + refinement, f"{hits} hits, lattice {want}"


class TestStreamedMonteCarlo:
    @pytest.mark.parametrize("samples", [100, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_chunks_equal_all_at_once_route(self, monkeypatch, samples):
        cfg = make_config(perturbed_kick=6.01, steps=2, samples=samples)
        want_inputs, prob, std_error = all_at_once_reversal(cfg)
        inputs = []
        step = ReversibleMap._step

        def recording_step(self, q, p, sine, steps):
            assert_same_bits(sine, np.sin(q))  # the perturbed pass reuses the forward sine
            inputs.append((q.copy(), p.copy()))
            step(self, q, p, sine, steps)

        # one thread, so the chunks are stepped in sample order
        monkeypatch.setattr(parallel, "CPUS", 1)
        monkeypatch.setattr(ReversibleMap, "_step", recording_step)
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

    def test_memory_is_bounded_by_chunks(self, monkeypatch):
        # 1e6 samples held at once took 38 MiB; each thread holds one chunk
        cfg = make_config(perturbed_kick=6.01, steps=1, samples=1_000_000)
        for cpus in range(1, 9):
            monkeypatch.setattr(parallel, "CPUS", cpus)
            tracemalloc.start()
            try:
                reversal_probabilities([cfg])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2**20, f"{cpus} CPUs: peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_any_cpu_count_equals_all_at_once_route(self, monkeypatch, cpus):
        # 3 chunks + 7 samples: one thread steps all four chunks at 1 CPU, three
        # threads share them at 3, and at 8 (capped at MAX_THREADS = 4) each
        # thread takes one, the 7-sample chunk included
        cfg = make_config(perturbed_kick=6.01, steps=2, samples=3 * _CHUNK + 7)
        _, prob, std_error = all_at_once_reversal(cfg)
        monkeypatch.setattr(parallel, "CPUS", cpus)
        (got,) = reversal_probabilities([cfg])
        assert got.probability.hex() == prob.hex()
        assert got.std_error.hex() == std_error.hex()

    def test_a_slow_thread_skips_chunks_bit_for_bit(self, monkeypatch):
        # the two threads meet with chunks 0 and 1; the one with chunk 1 then
        # sleeps, so the one with chunk 0 takes 2 to 6, its generators jumping
        # over chunk 1 after they have drawn chunk 0
        cfg = make_config(perturbed_kick=6.01, steps=2, samples=6 * _CHUNK + 5)
        ((q0, _), _), prob, std_error = all_at_once_reversal(cfg)
        starts = q0[::_CHUNK]
        stepped_by = {}  # chunk index -> thread
        meet = threading.Barrier(2, timeout=10)
        step = ReversibleMap._step

        def slow_on_chunk_1(self, q, p, sine, steps):
            if self is cfg.map:  # the forward stepping of a freshly drawn chunk
                chunk = int(np.flatnonzero(starts == q[0])[0])
                stepped_by[chunk] = threading.get_ident()
                if chunk < 2:
                    meet.wait()
                if chunk == 1:
                    time.sleep(0.2)
            step(self, q, p, sine, steps)

        monkeypatch.setattr(parallel, "CPUS", 2)
        monkeypatch.setattr(ReversibleMap, "_step", slow_on_chunk_1)
        got = reversal_probability(cfg, lyapunov_estimate=1.0)
        assert got.probability.hex() == prob.hex()
        assert got.std_error.hex() == std_error.hex()
        assert sorted(stepped_by) == list(range(7))
        assert stepped_by[1] != stepped_by[0] == stepped_by[2] == stepped_by[6]

    def test_no_part_count_lost_under_frequent_switches(self, monkeypatch):
        # 8 threads on fewer cores, switching threads every microsecond: a lost
        # or doubled per-thread count would move the probability
        cfg = make_config(perturbed_kick=6.01, steps=2, samples=8 * _CHUNK + 3)
        _, prob, _ = all_at_once_reversal(cfg)
        monkeypatch.setattr(parallel, "CPUS", 8)
        monkeypatch.setattr(reversal, "MAX_THREADS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = reversal_probability(cfg, lyapunov_estimate=1.0)
        finally:
            sys.setswitchinterval(interval)
        assert got.probability.hex() == prob.hex()

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
        want = [reversal_probability(
            cfg, lyapunov(cfg.map, [reversal._lyapunov_seed(cfg.seed)])[0]) for cfg in configs]
        passes = []
        rows = reversal.lyapunov

        def counting_rows(mapping, seeds, *args, **kwargs):
            passes.append((mapping.kick_strength, len(seeds)))
            return rows(mapping, seeds, *args, **kwargs)

        monkeypatch.setattr(reversal, "lyapunov", counting_rows)
        assert reversal_probabilities(configs) == want
        # one pass per map; the two rows of kick 6 at seed 1 share one estimate
        assert passes == [(6.0, 2), (0.3, 1)]


class PassReached(Exception):
    """Raised in place of the Lyapunov pass: the batch passed the run caps."""


class TestRunCaps:
    """A run's batch is checked before its Lyapunov pass; no row runs here."""

    @pytest.fixture
    def no_pass(self, monkeypatch):
        def reached(*args, **kwargs):
            raise PassReached

        monkeypatch.setattr(reversal, "lyapunov", reached)

    def test_row_cap(self, no_pass):
        rows = [make_config(steps=0, samples=100, seed=k) for k in range(MAX_ROWS + 1)]
        with pytest.raises(PassReached):
            reversal_probabilities(rows[:MAX_ROWS])
        with pytest.raises(ValueError, match="rows"):
            reversal_probabilities(rows)

    @pytest.mark.parametrize("t_values, accepted", [
        ((5, 10, 15), True),  # the default t_values at MAX_SAMPLES
        ((5, 10, 15, 1), False),
        ((15, 14, 0), True),  # a row at t = 0 counts as t = 1
        ((15, 15, 0), False),
    ])
    def test_sample_steps_budget(self, no_pass, t_values, accepted):
        rows = [make_config(steps=t, samples=MAX_SAMPLES) for t in t_values]
        assert sum(MAX_SAMPLES * max(t, 1) for t in t_values) == (
            MAX_RUN_SAMPLE_STEPS if accepted else MAX_RUN_SAMPLE_STEPS + MAX_SAMPLES)
        if accepted:
            with pytest.raises(PassReached):
                reversal_probabilities(rows)
        else:
            with pytest.raises(ValueError, match="sample-steps"):
                reversal_probabilities(rows)


class TestLyapunov:
    def test_integrable_limit(self):
        assert abs(lyapunov(ReversibleMap(0.0), [3])[0]) < 0.01

    def test_strong_chaos_matches_large_kick_asymptote(self):
        # large-kick growth rate of the kicked rotor approaches ln(K/2)
        lam6 = lyapunov(ReversibleMap(6.0), [5])[0]
        assert lam6 == pytest.approx(np.log(3.0), abs=0.15)
        lam10 = lyapunov(ReversibleMap(10.0), [5])[0]
        assert lam10 == pytest.approx(np.log(5.0), abs=0.10)

    def test_largest_kick_gives_a_finite_estimate(self):
        # the tangent entries stay below (2 + K/2)^2 at MAX_KICK, so no step
        # overflows (a warning fails the run) and lambda is near ln(K/2)
        lam = lyapunov(ReversibleMap(MAX_KICK), [0, 1, 2])
        assert lam == pytest.approx([np.log(MAX_KICK / 2)] * 3, abs=0.2)
        with pytest.raises(ValueError, match="kick"):
            ReversibleMap(np.nextafter(MAX_KICK, np.inf))
        with pytest.raises(ValueError, match="kick"):
            make_config(perturbed_kick=np.nextafter(MAX_KICK, np.inf))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_int_seed_equals_its_seed_sequence(self, seed):
        m = ReversibleMap(6.0)
        assert lyapunov(m, [seed]) == lyapunov(m, [np.random.SeedSequence(entropy=seed)])

    @pytest.mark.parametrize("kick", [0.3, 6.0, 14.0])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_reference_loop(self, kick, seed):
        # the in-place kernel and tangent update must not move a bit
        assert lyapunov(ReversibleMap(kick), [seed])[0] == reference_lyapunov(kick, seed)

    @pytest.mark.parametrize("kick", [0.3, 6.0, 14.0])
    def test_stacked_rows_equal_reference_loop(self, kick):
        # stacking rows must not move a bit of any row's estimate, in any order
        # and with a seed repeated
        want = {seed: reference_lyapunov(kick, seed).hex() for seed in (0, 7, 11)}
        seeds = [0, 7, 11, 7]
        for order in (seeds, seeds[::-1]):
            got = lyapunov(ReversibleMap(kick), order)
            assert [lam.hex() for lam in got] == [want[seed] for seed in order]


class TestBound:
    def test_zero_time(self):
        assert bound(1.1, 0) == 1.0

    def test_arithmetic(self):
        assert bound(1.1, 10) == pytest.approx(np.exp(-11.0), rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            bound(1.0, -1)
