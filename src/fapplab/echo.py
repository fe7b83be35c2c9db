"""Quantum irreversibility of macroscopic states: forward evolution followed
by an imperfectly reversed one, a Gaussian ensemble of diagonal perturbations,
the ensemble-averaged Bhattacharyya overlap next to the Gaussian
coherence-damping reference curve, and the exact averaged Q-function.

The reference curve exp(-(sigma t)^2/4) is not a bound on the overlap: the
ensemble average damps only the off-diagonal level pairs, so the true curve
levels off on a dephased plateau above it. `averaged_q_formula` gives that
average exactly.

Weak-perturbation model: H0 and every perturbation V are diagonal in the
Dicke basis, so the combined evolution exp(+i(H0+V)t) exp(-iH0t) reduces to
the pure phase profile exp(i V_m t) on the Dicke amplitudes (hbar = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError
from .qcore import StateVector, owned
from .spincoarse import (SphereGrid, SpinSystem, _coherent_magnitudes, _mixture_q,
                         _node_overlaps, q_function_pure)

#: most member-time-node evaluations per run, the time bound: 61-65 ns each
#: at j = 500 and 23-39 ns at j = 200, on one CPU and on two (one thread runs
#: from j = 90, where two states' overlaps exceed the chunk budget), and 12-23
#: ns at j = 10 and 50 on either, on a shared host, so a capped run takes
#: ~2.5 min at most; it admits the default four times at MAX_J with 500 members
MAX_RUN_EVALS = 2**31
#: most member-times per run, the memory bound: the members x times overlaps
#: (8 B each) stay within 128 MiB on any grid, where MAX_RUN_EVALS alone would
#: allow 1.9 GB on the 9 nodes of j = 1/2; there and at j = 2 a member-time
#: costs 1.3-2.7 us on one or two CPUs, ~45 s for a capped run
MAX_RUN_OVERLAPS = 2**24
#: largest echo ensemble, a memory bound (MAX_RUN_EVALS bounds the time): the
#: members' level shifts (8 B per member-level) take 67 MB at this size up to
#: j = 127, the largest spin whose grid MAX_RUN_EVALS admits for every member
#: at one time; member states exist only one kernel chunk per thread at a time
MAX_ENSEMBLE = 2**15
SIGMA_SPACING_FACTOR = 0.2  # "spread well below the level spacing", made operational


@dataclass(frozen=True)
class SpectralHamiltonian:
    """Non-degenerate Hamiltonian diagonal in the Dicke basis, given by its
    sorted eigenvalues, one per level m = -j .. +j."""

    sys: SpinSystem
    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = owned(self.eigenvalues, float)
        object.__setattr__(self, "eigenvalues", vals)
        if vals.size != self.sys.dim:
            raise ValueError("one eigenvalue per level of the spin system is required")
        spacings = np.diff(vals)
        if spacings.size and spacings.min() <= 0:
            raise ValueError("eigenvalues must be strictly increasing (non-degenerate)")

    @property
    def min_spacing(self) -> float:
        return float(np.diff(self.eigenvalues).min())

    @property
    def mean_spacing(self) -> float:
        return float(np.diff(self.eigenvalues).mean())

    @classmethod
    def random_dicke_diagonal(cls, sys: SpinSystem, seed: int) -> "SpectralHamiltonian":
        """Spacings drawn uniformly with unit mean (on [0.5, 1.5], so the
        spectrum is safely non-degenerate)."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
        spacings = rng.uniform(0.5, 1.5, size=sys.dim - 1)
        evals = np.concatenate([[0.0], np.cumsum(spacings)])
        return cls(sys=sys, eigenvalues=evals)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the
# entropy hash, the state hash, and the mix of two pool words
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_MASK = 0xFFFFFFFF
_POOL = 4


def _hashmix(value, const: int, mult: int):
    """numpy's hashmix of the uint32 array `value` under hash constant
    `const`; returns the hash and the next constant."""
    const_next = const * mult & _MASK
    value = (value ^ const) * const_next & _MASK
    return value ^ value >> 16, const_next


def _mix(x, y):
    """numpy's mix of pool word `x` with hashed word `y`."""
    value = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
    return value ^ value >> 16


def _seed_words(seed: int, index: np.ndarray) -> np.ndarray:
    """`SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)`
    for every i of the uint32 array `index`, one row per member.

    The assembled entropy is the seed's 32-bit words, least significant first
    and zero-padded to the pool size, then the spawn word i. Everything before
    the spawn word is the pool of `SeedSequence(seed)`, after one hash per
    pool word and entropy word, 4 max(4, words) in all, so the hash constant
    there follows from the word count alone; only the spawn word and the
    output hash run over the array of indices.
    """
    words = (seed.bit_length() + 31) // 32
    const = _INIT_A * pow(_MULT_A, _POOL * max(_POOL, words), _MASK + 1) & _MASK
    pool = np.random.SeedSequence(seed).pool.tolist()
    for dst in range(_POOL):
        word, const = _hashmix(index, const, _MULT_A)
        pool[dst] = _mix(pool[dst], word)
    const = _INIT_B
    state = []
    for k in range(2 * _POOL):
        word, const = _hashmix(pool[k % _POOL], const, _MULT_B)
        state.append(word.astype(np.uint64))
    return np.stack([low | high << np.uint64(32)
                     for low, high in zip(state[::2], state[1::2])], axis=1)


@dataclass(frozen=True)
class GaussianPerturbation:
    """Ensemble of diagonal perturbations: level shift V_alpha drawn from the
    density (1/(sqrt(pi) sigma)) exp(-(V - W_alpha)^2 / sigma^2), i.e. mean
    W_alpha and standard deviation sigma/sqrt(2), independently per level.
    """

    sigma: float
    means: np.ndarray
    seed: int
    h0: SpectralHamiltonian

    def __post_init__(self):
        means = owned(self.means, float)
        object.__setattr__(self, "means", means)
        if means.size != self.h0.sys.dim:
            raise ValueError("one mean per level is required")
        if not self.sigma >= 0:  # NaN fails too
            raise ValueError("sigma must be non-negative")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        limit = SIGMA_SPACING_FACTOR * self.h0.min_spacing
        if self.sigma >= limit:
            raise ValueError(
                f"sigma {self.sigma} is not small against the level spacing (limit {limit})")

    def draw_values(self, members: range) -> np.ndarray:
        """Level shifts of the ensemble members in `members`, one row each.

        Member i draws its standard normals from numpy's
        `default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))`: the stream
        is fixed by (seed, i) alone, whatever range the member is drawn in.
        numpy mixes the seed's pool once, `_seed_words` hashes every member's
        spawn word into it in one pass, and each member's `PCG64` is seeded
        from its own words. At sigma = 0 every row is `means` bit for bit:
        each draw scales to +-0, and m + +-0 = m.
        """
        index = np.arange(members.start, members.stop, members.step, dtype=np.int64)
        if index.size and (index.min() < 0 or index.max() > _MASK):
            raise ValueError(f"ensemble indices must lie in [0, {_MASK}]")
        # numpy.random stays out of the import of fapplab.cli
        from numpy.random import PCG64, Generator
        from numpy.random.bit_generator import ISeedSequence

        class Words(ISeedSequence):
            """The four uint64 seed words of one member, as PCG64 asks for them."""

            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype):
                return self.words

        words = _seed_words(self.seed, index.astype(np.uint32))
        values = np.empty((index.size, self.means.size))
        for row, member_words in zip(values, words):
            Generator(PCG64(Words(member_words))).standard_normal(out=row)
        values *= self.sigma / np.sqrt(2.0)
        values += self.means
        return values


def _check_pairing(h0: SpectralHamiltonian, pert: GaussianPerturbation):
    if pert.h0 is not h0 and not np.array_equal(pert.h0.eigenvalues, h0.eigenvalues):
        raise ValueError("perturbation ensemble is paired with a different Hamiltonian")


def _check_times(times: np.ndarray):
    if not times.size:
        raise ValueError("at least one time is required")
    if np.any(times < 0):
        raise ValueError("times must be non-negative")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class EchoCurve:
    """Time-resolved ensemble-averaged reversibility.

    `analytic_bound` holds the Gaussian coherence-damping reference curve
    exp(-(sigma t)^2/4), the decay of the overlap if every level pair were
    damped; it is a reference, not an upper bound on `mean_overlap`.
    """

    times: np.ndarray
    mean_overlap: np.ndarray
    std_error: np.ndarray
    analytic_bound: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("times", "mean_overlap", "std_error", "analytic_bound"):
            arrays[name] = owned(getattr(self, name), float)
            object.__setattr__(self, name, arrays[name])
        n = arrays["times"].size
        if any(a.size != n for a in arrays.values()):
            raise ValueError("curve arrays must have equal length")
        _check_times(arrays["times"])
        if np.any(arrays["mean_overlap"] < 0) or np.any(arrays["mean_overlap"] > 1):
            raise ValueError("mean overlap must lie in [0, 1]")
        if arrays["times"][0] == 0.0 and abs(arrays["mean_overlap"][0] - 1.0) > 1e-10:
            raise ToleranceError("overlap at t = 0 must be 1")


def echo_experiment(psi: StateVector, h0: SpectralHamiltonian, pert: GaussianPerturbation,
                    times, ensemble_size: int, sys: SpinSystem, grid: SphereGrid) -> EchoCurve:
    """Ensemble average of the reversibility measure over perturbation draws.

    The `analytic_bound` column is the Gaussian coherence-damping reference
    curve exp(-(sigma t)^2 / 4). The diagonal level pairs escape that damping,
    so the mean overlap levels off above it; the exact ensemble-averaged
    Q-function is `averaged_q_formula`. Member states are pure phase profiles
    e^{iVt} * psi on the Dicke amplitudes. One threaded pass of the separable
    Q evaluation runs over the (member, time) pairs in time-major order:
    each thread forms its chunk's states from the members' level shifts and
    reduces their Q-functions to one Bhattacharyya value per pair in the
    kernel's scratch overlaps, so no ensemble-sized complex array exists, and
    a pair's value does not depend on which thread evaluated it. At t = 0
    every member is psi itself, so that column is read from psi's own Q and
    the pass covers the times after it alone.
    """
    times = owned(times, float)
    _check_times(times)
    if ensemble_size < 100:
        raise ValueError("need at least 100 ensemble members")
    if ensemble_size > MAX_ENSEMBLE:
        raise ValueError(f"ensemble of {ensemble_size} members exceeds the supported "
                         f"maximum {MAX_ENSEMBLE}")
    if ensemble_size * times.size > MAX_RUN_OVERLAPS:
        raise ValueError(f"{ensemble_size} members x {times.size} times exceed the "
                         f"supported {MAX_RUN_OVERLAPS} member-times per run")
    if ensemble_size * times.size * grid.size > MAX_RUN_EVALS:
        raise ValueError(f"{ensemble_size} members x {times.size} times x {grid.size} "
                         f"nodes exceed the supported {MAX_RUN_EVALS} evaluations per run")
    _check_pairing(h0, pert)
    q_before = q_function_pure(psi, sys, grid)
    weighted_before = grid.weights * np.sqrt(q_before.values)
    norm = (2 * sys.j + 1) / (4 * np.pi)
    values = pert.draw_values(range(ensemble_size))

    overlaps = np.empty((ensemble_size, times.size))
    # times strictly increase from 0 or above: only times[0] can be 0
    first = int(times[0] == 0.0)
    overlaps[:, :first] = np.sum(np.sqrt(q_before.values) * weighted_before)
    count = ensemble_size * (times.size - first)

    def pairs(chunk: slice):
        """Members and time columns of the pairs in `chunk`: every member at
        each time after t = 0, time-major. A chunk inside one time gets a
        member slice and its column, which index without building index
        arrays under the interpreter lock; only the chunks that cross a time
        build them."""
        column, member = divmod(chunk.start, ensemble_size)
        if column == (chunk.stop - 1) // ensemble_size:
            return slice(member, member + chunk.stop - chunk.start), first + column
        index = np.arange(chunk.start, chunk.stop)
        return index % ensemble_size, first + index // ensemble_size

    def states(chunk: slice) -> np.ndarray:
        member, column = pairs(chunk)
        phases = 1j * values[member]
        phases *= times[column, None]
        np.exp(phases, out=phases)
        phases *= psi.amplitudes
        return phases

    def reduce_pairs(chunk: slice, q_after: np.ndarray) -> None:
        q_after *= norm
        np.sqrt(q_after, out=q_after)
        q_after *= weighted_before
        overlaps[pairs(chunk)] = q_after.sum(axis=1)

    _node_overlaps(sys, grid, count, states, count, reduce_pairs)
    np.clip(overlaps, 0.0, 1.0, out=overlaps)

    mean = overlaps.mean(axis=0)
    std_error = overlaps.std(axis=0, ddof=1) / np.sqrt(ensemble_size)
    bound = np.exp(-(pert.sigma * times) ** 2 / 4.0)
    return EchoCurve(times=times, mean_overlap=mean, std_error=std_error,
                     analytic_bound=bound)


def averaged_q_formula(psi: StateVector, h0: SpectralHamiltonian, pert: GaussianPerturbation,
                       t: float, sys: SpinSystem, grid: SphereGrid) -> np.ndarray:
    """Exact closed form of the ensemble-averaged Q-function.

    Averaging e^{i(V_a - V_b)t} over independent Gaussian draws damps every
    off-diagonal pair by e^{-(sigma t)^2/2} while the diagonal pairs survive
    undamped, leaving the dephased mixture of Dicke-level populations:

        <Q(Omega,t)> = |<Omega|phi(t)>|^2 e^{-(sigma t)^2/2} * (2j+1)/(4pi)
                       + (1 - e^{-(sigma t)^2/2}) sum_m |psi_m|^2 |<Omega|m>|^2 * (2j+1)/(4pi)

    with phi_m(t) = psi_m e^{i W_m t}. Only phi goes through the overlap
    kernel; |<Omega|m>|^2 does not depend on phi, so the dephased sum is the
    squared magnitude table of the theta-rows contracted with |psi_m|^2 and
    repeated along each row.
    """
    _check_pairing(h0, pert)
    damping = np.exp(-(pert.sigma * t) ** 2 / 2.0)
    phi = np.exp(1j * pert.means * t) * psi.amplitudes
    coherent = _mixture_q(sys, grid, np.array([damping]), phi[None, :])
    magnitudes = _coherent_magnitudes(sys, grid.thetas[::grid.n_phi])
    populations = np.square(magnitudes) @ np.abs(psi.amplitudes) ** 2
    norm = (2 * sys.j + 1) / (4 * np.pi)
    return coherent + (1.0 - damping) * norm * np.repeat(populations, grid.n_phi)
