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

from .parallel import run_shared
from .qcore import owned

TWO_PI = 2.0 * np.pi

#: samples per Monte-Carlo block: a thread's two 128 KB coordinate arrays, its
#: sine, kick and temporaries (0.8 MiB in all) stay in its core's L2 across all
#: map steps of a block
_CHUNK = 16384
#: most threads a row's chunks run on side by side: a thread holding one chunk
#: peaks at 0.72 MiB under tracemalloc (coordinates, sine, kick, wrap and
#: cell-test temporaries), so 4 threads peaking together hold 2.9 MiB, inside
#: the 4 MiB that a 1e6-sample row may take (a first call on 4 threads read 3.4)
MAX_THREADS = 4
#: most Monte-Carlo samples per row: the default t_values take 1.0-1.5 us per
#: sample over their three rows on 2 CPUs (1.6-2.5 us on one), so <= 2.5 min at the cap
MAX_SAMPLES = 10**8
#: most sample-steps per row: a MAX_SAMPLES row at the default t = 15, stepped
#: forward and back at 19-24 ns per sample-step on 2 CPUs (25-40 ns on one):
#: 1e8 x 15 x 2 x 24 ns = 1.2 min
MAX_SAMPLE_STEPS = 15 * MAX_SAMPLES
#: most sample-steps per run, a row at t = 0 counting as t = 1 (its draws and tests
#: cost 35-50 ns per sample on 2 CPUs): the default t_values at MAX_SAMPLES,
#: 3e9 x 2 x 24 ns = 2.4 min
MAX_RUN_SAMPLE_STEPS = 2 * MAX_SAMPLE_STEPS
#: most rows per run: the stacked Lyapunov pass runs on one CPU at 118-151 ns per
#: point-step (2-core Xeon VM), so 1000 rows x 32 points x 4100 steps take 16-20 s
MAX_ROWS = 1000
#: largest kick strength K, for the map and the perturbed map alike: a
#: tangent step of `lyapunov` multiplies (K/2) cos q by |v0'| <= 2 + K/2 (the
#: tangent vector has unit norm on entry), so both new tangent entries stay
#: below (2 + K/2)^2 and their hypot below sqrt(2) (2 + K/2)^2, finite for K up
#: to 2.25e154 (at 2.7e154 the norm overflows for some seeds, and the estimate is NaN)
MAX_KICK = 1e154
#: Lyapunov estimate: map steps before the tangent loop, tangent-map steps, and
#: points averaged over
TRANSIENT, STEPS, N_INIT = 100, 4000, 32


def _wrap_down(x) -> None:
    """Two subtractions of 2pi where x >= 2pi: np.remainder's bits on [0, 4pi]
    without -0.0 (4pi takes both and ends at +0, as np.remainder does)."""
    x -= TWO_PI * (x >= TWO_PI)
    x -= TWO_PI * (x >= TWO_PI)


def _wrap_once(x) -> None:
    """Reduce x modulo 2pi in place, bit for bit as `np.remainder(x, TWO_PI)`
    on the domain [-2pi, 4pi), and only there.

    For x in [2pi, 4pi) the subtraction x - 2pi is exact (Sterbenz's lemma:
    x lies within a factor two of 2pi), and so is fmod. For x in [-2pi, 0)
    both codes do the same single rounded add x + 2pi, which gives 2pi itself
    for negatives tinier than half an ulp of 2pi. Adding +0 turns -0.0 into
    +0.0, again matching np.remainder. At 4pi and above, below -2pi (and for
    inf) the two differ; NaN stays NaN in both.
    """
    x -= TWO_PI * (x >= TWO_PI)
    x += TWO_PI * (x < 0)


def _remainder(x) -> None:
    """Reduce x modulo 2pi in place with np.remainder, for any x."""
    np.remainder(x, TWO_PI, out=x)


def _on_torus(*arrays) -> bool:
    """Whether every array is non-empty with all entries in [0, 2pi]."""
    return all(np.size(a) and np.min(a) >= 0 and np.max(a) <= TWO_PI for a in arrays)


def _advance(q, p, sine, kick, steps: int, half_kick: float, wrap_p, wrap_q) -> None:
    """`steps` kick-drift-kick steps on float arrays q and p, in place.

    This is the one definition of the step. `sine` holds sin(q) and `kick`
    half_kick * sine on entry, and both are left holding these for the new q:
    the trailing half-kick of a step and the leading half-kick of the next
    read the same sine, so each step evaluates one. `wrap_p` reduces p after
    each half-kick and `wrap_q` q after the drift, modulo 2pi in place.
    """
    for _ in range(steps):
        p += kick
        wrap_p(p)
        q += p
        wrap_q(q)
        np.sin(q, out=sine)
        np.multiply(sine, half_kick, out=kick)
        p += kick
        wrap_p(p)


def _flip(p) -> None:
    """Momentum flip p -> -p mod 2pi in place, for p in [0, 2pi]; the bits of
    `(-p) % TWO_PI`. -p lies in [-2pi, -0], where only `_wrap_once`'s add acts."""
    np.negative(p, out=p)
    p += TWO_PI * (p < 0)


@dataclass(frozen=True)
class PhasePoint:
    """Point on the 2-torus; both coordinates are reduced modulo 2pi."""

    q: float
    p: float

    def __post_init__(self):
        q, p = owned((self.q, self.p), float).tolist()  # refuses NaN and inf
        object.__setattr__(self, "q", q % TWO_PI)
        object.__setattr__(self, "p", p % TWO_PI)


@dataclass(frozen=True)
class ReversibleMap:
    """Symmetrized standard map with kick strength K >= 0."""

    kick_strength: float

    def __post_init__(self):
        if not 0 <= self.kick_strength <= MAX_KICK:  # NaN fails too
            raise ValueError(f"kick strength {self.kick_strength!r} outside [0, {MAX_KICK}]")

    def evolve_arrays(self, q, p, steps: int):
        """`steps` map steps on coordinate arrays (the vectorized Monte-Carlo
        core); returns new arrays and leaves q and p untouched."""
        q, p = (np.array(a, dtype=float) for a in np.broadcast_arrays(q, p))
        q1 = q.reshape(-1)  # views, so 0-d inputs step too
        self._step(q1, p.reshape(-1), np.sin(q1), steps)
        return q, p

    def _step(self, q, p, sine, steps: int) -> None:
        """`steps` map steps on 1-d float arrays q and p, in place, by one
        `_advance` call, `sine` holding sin(q) on entry and sin of the new q on
        return; `reversal_probability` steps its chunks this way.

        For non-empty inputs in [0, 2pi] and 2pi + K/2 < 4pi (K < 4pi, less the
        kicks just below it where the sum rounds up), |kick| <= K/2: p after a
        half-kick lies in `_wrap_once`'s (-2pi, 4pi), and q + p, never -0.0, in
        `_wrap_down`'s [0, 4pi]. Any other input (NaN, out of range, strong
        kicks) takes np.remainder.
        """
        half_kick = 0.5 * self.kick_strength
        wrap_p = wrap_q = _remainder
        if TWO_PI + half_kick < 2 * TWO_PI and _on_torus(q, p):
            wrap_p, wrap_q = _wrap_once, _wrap_down
        _advance(q, p, sine, sine * half_kick, steps, half_kick, wrap_p, wrap_q)


@dataclass(frozen=True)
class CellRegion:
    """Square phase-space cell of side 2 * half_width around a center point."""

    center: PhasePoint
    half_width: float

    def __post_init__(self):
        if not self.half_width > 0:  # NaN fails too
            raise ValueError("cell half-width must be positive")
        if self.area >= TWO_PI ** 2:
            raise ValueError("cell area must be smaller than the torus")

    @property
    def area(self) -> float:
        return (2 * self.half_width) ** 2

    def sample(self, q_rng: np.random.Generator, p_rng: np.random.Generator, n: int):
        """n points uniform in the cell: q drawn from q_rng, then p from p_rng.
        Passing one generator twice draws all q, then all p from it.

        The shifted draws lie in (-pi, 3pi), since the half-width is below pi,
        so `_wrap_once` reduces them in place with np.remainder's bits.
        """
        q = q_rng.uniform(-self.half_width, self.half_width, n)
        q += self.center.q
        _wrap_once(q)
        p = p_rng.uniform(-self.half_width, self.half_width, n)
        p += self.center.p
        _wrap_once(p)
        return q, p

    def contains(self, q, p) -> np.ndarray:
        """Whether |(x - center + pi) mod 2pi - pi| <= half_width for x = q, p:
        by `_wrap_once` when q and p lie in [0, 2pi], else by np.remainder."""
        wrap = _wrap_once if _on_torus(q, p) else _remainder
        inside = []
        for x, center in ((q, self.center.q), (p, self.center.p)):
            d = np.asarray(x - center)  # an array even for 0-d x, so it wraps in place
            d += np.pi
            wrap(d)
            d -= np.pi
            inside.append(np.abs(d, out=d) <= self.half_width)
        return inside[0] & inside[1]


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
        if not 0 <= self.perturbed_kick <= MAX_KICK:  # NaN fails too
            raise ValueError(f"perturbed kick strength {self.perturbed_kick!r} "
                             f"outside [0, {MAX_KICK}]")


@dataclass(frozen=True)
class ReversalResult:
    probability: float
    std_error: float
    lyapunov_estimate: float
    bound: float

    def __post_init__(self):  # refuses a NaN or inf estimate passed by the caller
        owned((self.probability, self.std_error, self.lyapunov_estimate, self.bound), float)


def reversal_probability(cfg: ReversalConfig, lyapunov_estimate: float) -> ReversalResult:
    """Monte-Carlo estimate of the probability of returning to the start cell.

    Protocol per sample: draw x0 uniformly in the cell, run the true map
    forward for `steps`, flip the momentum, run the perturbed map forward for
    `steps` (the flip conjugation makes this the imperfect reverse flow),
    flip again, and test membership in the start cell. With an unperturbed
    reverse flow the return is exact by the involution identity.

    The samples go through the protocol one `_CHUNK` at a time, so memory
    stays O(chunk) per thread for any sample count, on up to MAX_THREADS threads
    that each take the next chunk when they are ready for one
    (`parallel.run_shared`). The draws are those of one
    `region.sample(rng, rng, samples)`: a chunk takes its q from a generator
    on the row's seed advanced to its first sample, and its p from one
    advanced past all q draws as well, as each uniform double takes one 64-bit
    output. Every sample thus meets the same draws and steps whichever thread
    takes its chunk, and the integer hit counts add up exactly.
    `lyapunov_estimate` is the exponent of `cfg.map` at the row's seed, as
    `reversal_probabilities` computes it for many rows at once.
    """
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
    perturbed = ReversibleMap(cfg.perturbed_kick)
    thread_hits = []

    def count_hits(starts) -> None:
        sines = np.empty(min(_CHUNK, cfg.samples))
        hits = 0
        for start in starts:
            q_rng = np.random.Generator(np.random.PCG64(seed).advance(start))
            p_rng = np.random.Generator(np.random.PCG64(seed).advance(cfg.samples + start))
            q, p = cfg.region.sample(q_rng, p_rng, min(_CHUNK, cfg.samples - start))
            sine = np.sin(q, out=sines[:q.size])
            cfg.map._step(q, p, sine, cfg.steps)
            _flip(p)  # q and so its sine are unchanged
            perturbed._step(q, p, sine, cfg.steps)
            _flip(p)
            hits += int(np.count_nonzero(cfg.region.contains(q, p)))
            del q, p  # so a thread never holds two chunks while it draws the next
        thread_hits.append(hits)

    run_shared(count_hits, range(0, cfg.samples, _CHUNK), MAX_THREADS)
    prob = sum(thread_hits) / cfg.samples
    std_error = float(np.sqrt(prob * (1 - prob) / cfg.samples))
    return ReversalResult(probability=prob, std_error=std_error,
                          lyapunov_estimate=lyapunov_estimate,
                          bound=bound(lyapunov_estimate, cfg.steps))


def _lyapunov_seed(seed: int) -> np.random.SeedSequence:
    """The generator seed of a reversal row's Lyapunov estimate."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(1,))


def reversal_probabilities(configs) -> list:
    """`reversal_probability` of every config, in order, with all exponents
    estimated by one `lyapunov` pass per map: rows with the same map and
    seed share one estimate, and the rest are stacked. Checks the run caps first.
    """
    configs = list(configs)
    if len(configs) > MAX_ROWS:
        raise ValueError(f"{len(configs)} rows exceed the supported {MAX_ROWS} per run")
    if sum(cfg.samples * max(cfg.steps, 1) for cfg in configs) > MAX_RUN_SAMPLE_STEPS:
        raise ValueError(f"the rows exceed {MAX_RUN_SAMPLE_STEPS} sample-steps, the most per run")
    estimates = {}
    for mapping in dict.fromkeys(cfg.map for cfg in configs):
        seeds = list(dict.fromkeys(cfg.seed for cfg in configs if cfg.map == mapping))
        lams = lyapunov(mapping, [_lyapunov_seed(seed) for seed in seeds])
        estimates.update(((mapping, seed), lam) for seed, lam in zip(seeds, lams))
    return [reversal_probability(cfg, estimates[cfg.map, cfg.seed]) for cfg in configs]


def lyapunov(mapping: ReversibleMap, seeds) -> list:
    """Largest Lyapunov exponent of `mapping` for every seed, in order, by
    STEPS tangent-map iterations with renormalization, averaged over N_INIT
    random initial points. Non-chaotic regimes give ~0. A seed is anything
    `np.random.default_rng` accepts.

    Each seed draws its N_INIT points from its own generator, and every
    operation of the one tangent-map loop over all seeds' points is
    elementwise, so stacking the seeds moves no bit (Benettin, Galgani,
    Giorgilli & Strelcyn, Meccanica 15, 9 (1980)).
    """
    half_kick = 0.5 * mapping.kick_strength
    # row-wise draws keep the RNG order
    start = np.concatenate([np.random.default_rng(seed).uniform(0.0, TWO_PI, (N_INIT, 2))
                            for seed in seeds])
    q, p = mapping.evolve_arrays(start[:, 0], start[:, 1], TRANSIENT)
    sine = np.sin(q)
    kick = sine * half_kick
    c1, c2 = np.empty_like(q), half_kick * np.cos(q)
    tangent = np.zeros((2, q.size))  # the rows are v0 and v1
    tangent[0] = 1.0
    v0, v1 = tangent
    c1v0, c2v0, norm, acc = (np.zeros_like(q) for _ in range(4))
    for _ in range(STEPS):
        # tangent map J = J_kick(q_new) @ J_drift @ J_kick(q), multiplied out;
        # the new kick's slope is the next step's old one. On a few hundred
        # points one np.remainder call is cheaper than the six tiny calls of
        # a narrowed wrap.
        c1, c2 = c2, c1
        _advance(q, p, sine, kick, 1, half_kick, _remainder, _remainder)
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
    # cumsum adds left to right, as a loop would; np.sum pairs terms and
    # would move the last bits
    return (np.cumsum(acc.reshape(-1, N_INIT) / STEPS, axis=1)[:, -1] / N_INIT).tolist()


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
