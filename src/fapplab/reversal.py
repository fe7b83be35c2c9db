"""Classical irreversibility on the torus: a reversible chaotic map, the
momentum-flip reversal protocol with an imperfect reverse flow, Monte-Carlo
reversal probabilities, and the Lyapunov decay term.

For a mixing map the reversal probability does not decay to zero: it tends to
the cell's measure mu(A) = |A| / (2pi)^2, and e^(-lambda t) describes only the
transient above that floor.

The concrete flow is the symmetrized (split-kick) standard map

    p += (K/2) sin q;  q += p;  p += (K/2) sin q      (all mod 2pi)

which is area-preserving; its inverse is the momentum-flip conjugate
pi f pi = f^{-1}, so the reversal protocol needs only the forward step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: samples per block of the map kernel: two 128 KB coordinate slices and
#: their small temporaries stay in L2 across all steps of a block
_CHUNK = 16384
#: most Monte-Carlo samples per row: the default t_values take ~3.5 us per sample
#: over their three rows (2 cores), so 6 minutes at the cap
MAX_SAMPLES = 10**8
#: most sample-steps per row: a MAX_SAMPLES row at the default t = 15, stepped
#: forward and back at ~48 ns per sample-step: 1e8 x 15 x 2 x 48 ns = 2.4 min
MAX_SAMPLE_STEPS = 15 * MAX_SAMPLES


def _wrap(x) -> None:
    """Reduce x modulo 2pi in place, bit for bit as `np.remainder(x, TWO_PI)`
    on the domain [-2pi, 4pi], and only there.

    For x in [2pi, 4pi] the subtraction x - 2pi is exact (Sterbenz's lemma:
    x lies within a factor two of 2pi), and so is fmod; 4pi takes both
    subtractions and ends at +0, as np.remainder does. For x in [-2pi, 0) both
    codes do the same single rounded add x + 2pi, which gives 2pi itself for
    negatives tinier than half an ulp of 2pi. Adding +0 turns -0.0 into +0.0,
    again matching np.remainder. Outside this domain (and for inf) the two
    differ; NaN stays NaN in both.
    """
    x -= TWO_PI * (x >= TWO_PI)
    x -= TWO_PI * (x >= TWO_PI)
    x += TWO_PI * (x < 0)


def _remainder(x) -> None:
    """Reduce x modulo 2pi in place with np.remainder, for any x."""
    np.remainder(x, TWO_PI, out=x)


def _advance(q, p, kick, steps: int, half_kick: float, wrap) -> None:
    """`steps` kick-drift-kick steps on float arrays q and p, in place.

    This is the one definition of the step. `kick` holds half_kick * sin(q) on
    entry and is left holding it for the new q: the trailing half-kick of a
    step and the leading half-kick of the next read the same sine, so each
    step evaluates one. `wrap` reduces an array modulo 2pi in place.
    """
    for _ in range(steps):
        p += kick
        wrap(p)
        q += p
        wrap(q)
        np.sin(q, out=kick)
        kick *= half_kick
        p += kick
        wrap(p)


def _half_kick(q, half_kick: float):
    """A new array half_kick * sin(q): the kick `_advance` starts from."""
    kick = np.sin(q)
    kick *= half_kick
    return kick


def _flip(p) -> None:
    """Momentum flip p -> -p mod 2pi in place, for p in [0, 2pi]; the bits of
    `(-p) % TWO_PI`, since -p lies in `_wrap`'s domain."""
    np.negative(p, out=p)
    _wrap(p)


@dataclass(frozen=True)
class PhasePoint:
    """Point on the 2-torus; both coordinates are reduced modulo 2pi."""

    q: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "q", float(self.q) % TWO_PI)
        object.__setattr__(self, "p", float(self.p) % TWO_PI)


@dataclass(frozen=True)
class ReversibleMap:
    """Symmetrized standard map with kick strength K >= 0."""

    kick_strength: float

    def __post_init__(self):
        if not np.isfinite(self.kick_strength) or self.kick_strength < 0:
            raise ValueError("kick strength must be finite and non-negative")

    def evolve_arrays(self, q, p, steps: int):
        """`steps` map steps on coordinate arrays (the vectorized Monte-Carlo
        core); returns new arrays and leaves q and p untouched.

        The copies are stepped in place, 16384 samples at a time. While every
        wrapped value lies in [-2pi, 4pi], `_wrap` gives the bits of
        np.remainder: that holds for non-empty inputs in [0, 2pi] and K < 4pi,
        since then |kick| <= K/2 < 2pi and q + p <= 4pi. Any other input
        (NaN, out of range, strong kicks) takes np.remainder itself.
        """
        q, p = (np.array(a, dtype=float) for a in np.broadcast_arrays(q, p))
        half_kick = 0.5 * self.kick_strength
        wrap = _remainder
        if (q.size and self.kick_strength < 2 * TWO_PI
                and all(a.min() >= 0 and a.max() <= TWO_PI for a in (q, p))):
            wrap = _wrap
        flat_q, flat_p = q.reshape(-1), p.reshape(-1)
        for start in range(0, q.size, _CHUNK):
            block = slice(start, start + _CHUNK)
            q_block = flat_q[block]
            _advance(q_block, flat_p[block], _half_kick(q_block, half_kick), steps,
                     half_kick, wrap)
        return q, p


@dataclass(frozen=True)
class CellRegion:
    """Square phase-space cell of side full_width around a center point."""

    center: PhasePoint
    half_width: float

    def __post_init__(self):
        if not self.half_width > 0:  # NaN fails too
            raise ValueError("cell half-width must be positive")
        if (2 * self.half_width) ** 2 >= TWO_PI ** 2:
            raise ValueError("cell area must be smaller than the torus")

    @property
    def full_width(self) -> float:
        return 2 * self.half_width

    @property
    def area(self) -> float:
        return self.full_width ** 2

    def sample(self, q_rng: np.random.Generator, p_rng: np.random.Generator, n: int):
        """n points uniform in the cell: q drawn from q_rng, then p from p_rng.
        Passing one generator twice draws all q, then all p from it.

        The shifted draws lie in (-pi, 3pi), since the half-width is below pi,
        so `_wrap` reduces them in place with np.remainder's bits.
        """
        q = q_rng.uniform(-self.half_width, self.half_width, n)
        q += self.center.q
        _wrap(q)
        p = p_rng.uniform(-self.half_width, self.half_width, n)
        p += self.center.p
        _wrap(p)
        return q, p

    def contains(self, q, p) -> np.ndarray:
        dq = np.abs((q - self.center.q + np.pi) % TWO_PI - np.pi)
        dp = np.abs((p - self.center.p + np.pi) % TWO_PI - np.pi)
        return (dq <= self.half_width) & (dp <= self.half_width)


@dataclass(frozen=True)
class ReversalConfig:
    """Full description of one momentum-flip reversal experiment."""

    map: ReversibleMap
    perturbed_kick: float
    steps: int
    region: CellRegion
    samples: int
    seed: int

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("step count must be non-negative")
        if not 100 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"need 100 to {MAX_SAMPLES} Monte-Carlo samples")
        if self.samples * self.steps > MAX_SAMPLE_STEPS:
            raise ValueError(f"{self.samples} samples x {self.steps} steps exceed the "
                             f"supported {MAX_SAMPLE_STEPS} sample-steps per row")
        if not np.isfinite(self.perturbed_kick) or self.perturbed_kick < 0:
            raise ValueError("perturbed kick strength must be finite and non-negative")


@dataclass(frozen=True)
class ReversalResult:
    probability: float
    std_error: float
    lyapunov_estimate: float
    bound: float


def reversal_probability(cfg: ReversalConfig,
                         lyapunov_estimate: float | None = None) -> ReversalResult:
    """Monte-Carlo estimate of the probability of returning to the start cell.

    Protocol per sample: draw x0 uniformly in the cell, run the true map
    forward for `steps`, flip the momentum, run the perturbed map forward for
    `steps` (the flip conjugation makes this the imperfect reverse flow),
    flip again, and test membership in the start cell. With an unperturbed
    reverse flow the return is exact by the involution identity.

    The samples go through the protocol one `_CHUNK` at a time, so memory
    stays O(chunk) for any sample count. The draws are those of one
    `region.sample(rng, rng, samples)`: q from the row's generator, and p from
    a second one on the same seed advanced past the q draws, as each uniform
    double takes one 64-bit output. `lyapunov_estimate` is the exponent of
    `cfg.map` at the row's seed, as `reversal_probabilities` computes it for
    many rows at once; when it is None it is estimated here.
    """
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
    q_rng = np.random.default_rng(seed)
    p_bits = np.random.PCG64(seed)
    p_bits.advance(cfg.samples)
    p_rng = np.random.Generator(p_bits)
    perturbed = ReversibleMap(cfg.perturbed_kick)
    hits = 0
    for start in range(0, cfg.samples, _CHUNK):
        q, p = cfg.region.sample(q_rng, p_rng, min(_CHUNK, cfg.samples - start))
        q, p = cfg.map.evolve_arrays(q, p, cfg.steps)
        _flip(p)
        q, p = perturbed.evolve_arrays(q, p, cfg.steps)
        _flip(p)
        hits += int(np.count_nonzero(cfg.region.contains(q, p)))
    prob = hits / cfg.samples
    std_error = float(np.sqrt(prob * (1 - prob) / cfg.samples))
    if lyapunov_estimate is None:
        lyapunov_estimate = lyapunov(cfg.map, seed=_lyapunov_seed(cfg.seed))
    return ReversalResult(probability=prob, std_error=std_error,
                          lyapunov_estimate=lyapunov_estimate,
                          bound=bound(lyapunov_estimate, cfg.steps))


def _lyapunov_seed(seed: int) -> np.random.SeedSequence:
    """The generator seed of a reversal row's Lyapunov estimate."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(1,))


def reversal_probabilities(configs) -> list:
    """`reversal_probability` of every config, in order, with all exponents
    estimated by one `lyapunov_rows` pass per map: rows with the same map and
    seed share one estimate, and the rest are stacked.
    """
    configs = list(configs)
    estimates = {}
    for mapping in dict.fromkeys(cfg.map for cfg in configs):
        seeds = list(dict.fromkeys(cfg.seed for cfg in configs if cfg.map == mapping))
        lams = lyapunov_rows(mapping, [_lyapunov_seed(seed) for seed in seeds])
        estimates.update(((mapping, seed), lam) for seed, lam in zip(seeds, lams))
    return [reversal_probability(cfg, estimates[cfg.map, cfg.seed]) for cfg in configs]


def lyapunov(mapping: ReversibleMap, steps: int = 4000, transient: int = 100,
             seed=0, n_init: int = 32) -> float:
    """Largest Lyapunov exponent by tangent-map iteration with renormalization,
    averaged over random initial points. Non-chaotic regimes give ~0.
    `seed` is anything `np.random.default_rng` accepts.
    """
    return lyapunov_rows(mapping, [seed], steps, transient, n_init)[0]


def lyapunov_rows(mapping: ReversibleMap, seeds, steps: int = 4000, transient: int = 100,
                  n_init: int = 32) -> list:
    """`lyapunov(mapping, steps, transient, seed, n_init)` for every seed, in
    order, from one tangent-map loop over all rows' initial points.

    Each seed's points are drawn from its own generator, and every operation
    of the loop is elementwise, so stacking the rows moves no bit
    (Benettin, Galgani, Giorgilli & Strelcyn, Meccanica 15, 9 (1980)).
    """
    if steps < 1000:
        raise ValueError("need at least 1e3 tangent-map steps")
    if n_init < 32:
        raise ValueError("need at least 32 initial points")
    half_kick = 0.5 * mapping.kick_strength
    # row-wise draws keep the RNG order
    start = np.concatenate([np.random.default_rng(seed).uniform(0.0, TWO_PI, (n_init, 2))
                            for seed in seeds])
    q, p = mapping.evolve_arrays(start[:, 0], start[:, 1], transient)
    kick = _half_kick(q, half_kick)
    c1, c2 = np.empty_like(q), half_kick * np.cos(q)
    tangent = np.zeros((2, q.size))  # the rows are v0 and v1
    tangent[0] = 1.0
    v0, v1 = tangent
    c1v0, c2v0, norm, acc = (np.zeros_like(q) for _ in range(4))
    for _ in range(steps):
        # tangent map J = J_kick(q_new) @ J_drift @ J_kick(q), multiplied out;
        # the new kick's slope is the next step's old one. On a few hundred
        # points one np.remainder call is cheaper than the nine tiny calls of
        # `_wrap`.
        c1, c2 = c2, c1
        _advance(q, p, kick, 1, half_kick, _remainder)
        np.cos(q, out=c2)
        c2 *= half_kick
        np.multiply(c1, v0, out=c1v0)
        v0 += v1
        v0 += c1v0  # v0 + v1 + c1 v0
        np.multiply(c2, v0, out=c2v0)
        c2v0 += c1v0
        v1 += c2v0  # c2 v0 + c1 v0 + v1, since a + b and b + a round alike
        np.hypot(v0, v1, out=norm)
        tangent /= norm
        np.log(norm, out=norm)
        acc += norm
    estimates = []
    for row in acc.reshape(-1, n_init):
        total = 0.0
        for a in row:  # left to right: np.sum pairs terms and would move the last bits
            total += a / steps
        estimates.append(total / n_init)
    return estimates


def bound(lyapunov_exponent: float, t: int) -> float:
    """Transient decay term e^(-lambda t) of the reversal probability.

    It describes the approach to the mixing floor mu(A) = |A| / (2pi)^2, not
    the probability itself: once e^(-lambda t) falls below mu(A) the
    probability levels off at the floor. The CSV column keeps the name `bound`.

    The 2-D area-preserving map has the exponent pair (lambda, -lambda), so
    the sum over positive exponents has a single term.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    return float(np.exp(-lyapunov_exponent * t))
