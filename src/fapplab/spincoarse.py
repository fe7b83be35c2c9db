"""Spin-j coherent states, sphere quadrature, Husimi Q-functions as
coarse-grained macroscopic states, and the Bhattacharyya distinguishability
coefficient.

Dicke basis convention: amplitudes are ordered by ascending magnetic quantum
number m = -j ... +j, so index k holds m = k - j.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, pi

import numpy as np

from .errors import GridOrderError, ToleranceError
from .parallel import MAX_THREADS, run_shared, workers
from .qcore import Immutable, OperatorMatrix, StateVector, owned

MAX_J = 500  # binomials are evaluated in log space; beyond this we refuse
MAX_GRID_AXIS = 2 * MAX_J + 2  # nodes per axis of the default grid of the largest spin
Q_NORM_TOL = 1e-8
BHATTACHARYYA_EXCESS_TOL = 1e-8
# complex node overlaps held at once, which bounds the peak memory of a Q
# evaluation (1.5 MiB of chunk buffers with the real |.|^2). Two in-process
# sweeps of nine rounds of the echo benchmark's two runs (j = 10 x 5000,
# j = 50 x 1000) on two CPUs took medians of 685-725, 441-452, 362-445,
# 322-347 and 350-360 ms at 256 KiB to 4 MiB, doubling each step; each
# doubling adds 1.5 old budgets of chunk buffers, and lets more threads run.
# Two states fit up to j = 89.5 and four up to j = 63; past that each thread
# holds one state's buffers (`MAX_THREADS` of them at most)
OVERLAP_CHUNK_BYTES = 2**20
# Q nodes that `QFunction.write_csv` formats and writes as one str, rounded
# down to whole theta-rows (at least one); a block's arrays take several
# hundred bytes a node. At j = 60, 2048 keeps the write within 26 KB of the
# peak the Q evaluation reached (the streaming test allows a quarter of the
# 1.2 MB file), and 4096 went 791 KB over; numpy's per-call cost favours
# larger blocks (j = 150 on a 2-core Xeon: 120, 97 and 81 ms at 1024, 2048
# and 4096 nodes)
CSV_BLOCK_NODES = 2048
_NEWLINE = np.array([ord("\n")], dtype=np.uint8)


@dataclass(frozen=True)
class SpinSystem:
    """Spin-j system in the (2j+1)-dimensional Dicke basis."""

    j: float

    def __post_init__(self):
        twoj = round(2 * self.j) if np.isfinite(self.j) else 0
        if abs(2 * self.j - twoj) > 1e-12 or twoj < 1:
            raise ValueError(f"j must be a half-integer >= 1/2, got {self.j}")
        if twoj > 2 * MAX_J:
            raise ValueError(f"j = {self.j} exceeds the supported maximum {MAX_J}")
        object.__setattr__(self, "j", twoj / 2.0)

    @property
    def dim(self) -> int:
        return round(2 * self.j) + 1

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.dim) - self.j


@dataclass(frozen=True)
class SolidAngle:
    """Point on the unit sphere: polar theta in [0, pi], azimuth phi in [0, 2pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= pi:
            raise ValueError(f"theta {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < 2 * pi:
            raise ValueError(f"phi {self.phi} outside [0, 2pi)")


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: ascending nodes, weights.

    Newton's method on P_n from Tricomi's guesses (Hale & Townsend, SIAM J.
    Sci. Comput. 35, A652 (2013)), for the ceil(n/2) non-negative nodes at
    once; the others are their mirror images. Each step evaluates P_{n-1} and
    P_n by the three-term recurrence in three reused buffers, with
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1), until the step after it would be
    below an eighth of an ulp of 1 (at most three steps up to n = 1002). A
    node then lies within an ulp of its root, or within half an ulp of 1 near
    x = 0, where P_n's own rounding is that large. For odd n the middle node
    is 0.0 exactly: P_n(0) is 0 in every step, so Newton never moves it.

    The weights are 2 / ((1 - x^2) P_n'(x)^2), equal to 2 (1 - x^2) /
    (n P_{n-1}(x))^2 at a root. Off the root by a rounded node, the P_n' form
    moves by 2x / (1 - x^2) times the offset, the P_{n-1} form about n^2
    times more near the ends: 8e-12 against 8e-9 from the true end weights at
    n = 1002.
    """
    k = np.arange(1, n // 2 + 1)
    theta = (4 * k - 1) * pi / (4 * n + 2)
    x = np.zeros((n + 1) // 2)  # descending
    x[:n // 2] = (1 - (n - 1) / (8 * n**3)
                  - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)) * np.cos(theta)
    buffers = [np.empty_like(x) for _ in range(3)]

    def legendre():
        """P_{n-1}(x) and P_n(x), in two of the buffers."""
        older, old, new = buffers
        older.fill(1.0)
        old[:] = x
        for m in range(1, n):
            np.multiply(x, old, out=new)
            new *= (2 * m + 1) / (m + 1)
            older *= m / (m + 1)
            new -= older
            older, old, new = old, new, older
        return older, old

    for _ in range(20):
        below, top = legendre()
        step = top * (x * x - 1) / (n * (x * top - below))
        x -= step
        # the next step would be P_n'' / (2 P_n') step^2 = x / (1 - x^2) step^2
        if np.max(step * step * np.abs(x) / ((1 - x) * (1 + x))) <= np.finfo(float).eps / 8:
            break
    below, top = legendre()
    weights = 2 * (1 - x) * (1 + x) / (n * (below - x * top)) ** 2
    nodes = np.concatenate([-x[:n // 2], x[::-1]])
    return nodes, np.concatenate([weights[:n // 2], weights[::-1]])


class SphereGrid(Immutable):
    """Product quadrature on the sphere: Gauss-Legendre in cos(theta) times a
    uniform azimuthal rule.

    `exactness_order` is the largest band limit L such that any function whose
    spherical-harmonic expansion stops at degree L is integrated exactly:
    the uniform phi rule kills azimuthal frequencies up to n_phi - 1, and the
    Gauss-Legendre rule handles the surviving cos(theta) polynomials up to
    degree 2*n_theta - 1.
    """

    __slots__ = ("thetas", "phis", "weights", "n_theta", "n_phi", "exactness_order")

    def __init__(self, n_theta: int, n_phi: int):
        if n_theta < 1 or n_phi < 1:
            raise ValueError("grid needs at least one node per axis")
        if max(n_theta, n_phi) > MAX_GRID_AXIS:
            raise ValueError(f"grid of {n_theta} x {n_phi} nodes exceeds {MAX_GRID_AXIS} "
                             f"per axis, the default grid of j = {MAX_J}")
        x, w_theta = _gauss_legendre(n_theta)
        phi = 2 * pi * np.arange(n_phi) / n_phi
        # `owned` checks the axes; repeat and tile return fresh arrays that no
        # caller aliases, where `owned` on the node arrays would copy each again
        # (7.7 MiB more at once on the grid of j = 500)
        for name, nodes in (("thetas", np.repeat(owned(np.arccos(x), float), n_phi)),
                            ("phis", np.tile(owned(phi, float), n_theta)),
                            ("weights", np.repeat(owned(w_theta * (2 * pi / n_phi), float),
                                                  n_phi))):
            nodes.setflags(write=False)
            object.__setattr__(self, name, nodes)
        object.__setattr__(self, "n_theta", n_theta)
        object.__setattr__(self, "n_phi", n_phi)
        object.__setattr__(self, "exactness_order", min(2 * n_theta - 1, n_phi - 1))
        total = self.weights.sum()
        if abs(total - 4 * pi) > 1e-10:
            raise ToleranceError(f"grid weights sum to {total!r}, not 4pi")

    @classmethod
    def for_spin(cls, sys: SpinSystem) -> "SphereGrid":
        """2j + 2 nodes per axis: the exactness order covers every degree-2j kernel."""
        return cls(sys.dim + 1, sys.dim + 1)

    @property
    def size(self) -> int:
        return self.weights.size

    def same_nodes(self, other: "SphereGrid") -> bool:
        # the constructor alone sets the read-only nodes, from the two counts
        return (self.n_theta, self.n_phi) == (other.n_theta, other.n_phi)


def _log_binomials(j: float) -> np.ndarray:
    dim = round(2 * j) + 1
    n = dim - 1
    return np.array([0.5 * (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1))
                     for k in range(dim)])


def _coherent_magnitudes(sys: SpinSystem, thetas: np.ndarray) -> np.ndarray:
    """Real |<m|theta, phi>| for each polar angle in [0, pi]: one row per angle.

    Magnitude on |m>: binom(2j, j+m)^(1/2) cos^(j+m)(theta/2) sin^(j-m)(theta/2),
    evaluated in log space in two table-sized buffers. A zero base has log -inf,
    whose exp is +0; a zero power (the first column of the cosine term, the
    last of the sine term) contributes 0 even then, as x^0 = 1.
    """
    j, m = sys.j, sys.m_values
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.multiply.outer(np.log(np.cos(thetas / 2)), j + m)
        table[:, 0] = 0.0
        table += _log_binomials(j)
        sine_term = np.multiply.outer(np.log(np.sin(thetas / 2)), j - m)
    sine_term[:, -1] = 0.0
    table += sine_term
    return np.exp(table, out=table)


def _coherent_amplitudes(sys: SpinSystem, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Unnormalized <m|Omega> for each direction (theta, phi): one row per direction,
    the magnitudes times e^(-i m phi)."""
    return _coherent_magnitudes(sys, thetas) * np.exp(-1j * np.outer(phis, sys.m_values))


def coherent_state(sys: SpinSystem, omega: SolidAngle) -> StateVector:
    """Spin coherent state pointing along omega."""
    amps = _coherent_amplitudes(sys, np.array([omega.theta]), np.array([omega.phi]))
    return StateVector(amps[0], normalize=True)


def coherent_kernel(sys: SpinSystem, grid: SphereGrid) -> np.ndarray:
    """Dense matrix K[node, m] = <m|Omega_node> for every grid node.

    Nodes x (2j+1) complex entries (439 MB at j = 150): the library evaluates
    Q-functions through the separable route of `_node_overlaps` instead, and
    keeps this as the independent oracle that tests compare against.
    """
    kernel = _coherent_amplitudes(sys, grid.thetas, grid.phis)
    kernel.setflags(write=False)  # frozen in place: a copy by `owned` would double the peak
    return kernel


@dataclass(frozen=True, eq=False)
class QFunction:
    """Positive normalized distribution on a sphere grid (the macroscopic state)."""

    grid: SphereGrid
    values: np.ndarray
    j: float

    def __post_init__(self):
        vals = owned(self.values, float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "j", SpinSystem(self.j).j)
        if vals.size != self.grid.size:
            raise ValueError("value count does not match grid size")
        if vals.min() < 0:
            raise ValueError("QFunction values must be non-negative")

    def integral(self) -> float:
        return float(np.sum(self.grid.weights * self.values))

    def write_csv(self, fileobj) -> None:
        """Columns theta, phi, weight, value with a mandatory header row; each
        number is written as `repr` writes it.

        Written in blocks of whole theta-rows, about CSV_BLOCK_NODES nodes
        each, so only one block is held as text at a time. On the product grid
        theta and the weight are constant along a theta-row and phi repeats in
        every row, so those columns are formatted once per distinct value; the
        value column is formatted a block at a time by `floattext`, and each
        block's lines are laid out in one byte array and written as one str.
        """
        from . import floattext  # imported on the first call, not by `import fapplab.cli`
        grid, n_phi = self.grid, self.grid.n_phi
        theta, weight = _text_fields(grid.thetas[::n_phi]), _text_fields(grid.weights[::n_phi])
        phi = _text_fields(grid.phis[:n_phi])
        step = max(1, CSV_BLOCK_NODES // n_phi)
        fileobj.write("theta,phi,weight,value\n")
        for start in range(0, grid.n_theta, step):
            rows = slice(start, start + step)
            values = self.values.reshape(-1, n_phi)[rows]
            shape = values.shape
            text = np.concatenate([np.broadcast_to(f, shape + f.shape[-1:]) for f in (
                theta[rows, None], phi[None], weight[rows, None],
                floattext.text_slots(values.ravel()).reshape(shape + (-1,)), _NEWLINE)], axis=-1)
            fileobj.write(text[text != 0].tobytes().decode("ascii"))


def _text_fields(numbers: np.ndarray) -> np.ndarray:
    """`repr` of each number and a comma, one NUL-padded row of bytes each."""
    return np.array([f"{x!r},".encode("ascii") for x in numbers.tolist()]).view(
        np.uint8).reshape(len(numbers), -1)


def _check_density(rho: OperatorMatrix, dim: int):
    if rho.dim != dim:
        raise ValueError(f"density operator dim {rho.dim}, expected {dim}")
    if not rho.is_density():
        raise ValueError("input is not a density operator (hermitian, unit trace, PSD)")


def _check_order(sys: SpinSystem, grid: SphereGrid):
    # Q-function kernels of a spin-j state are band-limited to degree 2j.
    band = round(2 * sys.j)
    if grid.exactness_order < band:
        raise GridOrderError(
            f"grid exactness order {grid.exactness_order} below the spin band limit {band}")


def _node_overlaps(sys: SpinSystem, grid: SphereGrid, count: int, group: int, states,
                   most: int, reduce) -> None:
    """reduce(chunk, overlaps) with |<Omega|psi_k>|^2 at every grid node for
    the rows psi_k = states(chunk), over slices of range(count) that never
    cross a multiple of `group`, which divides count.

    On the product grid <Omega|psi> = e^{-ij phi} sum_m d_m(theta) psi_m
    e^{i(j+m) phi} with the real d_m(theta) = |<m|theta, 0>|, so each theta-row
    is one length-n_phi inverse DFT of d(theta) * psi, and the phase
    e^{-ij phi} drops out of |.|^2 (Driscoll & Healy, Adv. Appl. Math. 15,
    1994).

    The chunks run on up to `most` threads side by side, each taking the next
    chunk when it is ready for one (`parallel.run_shared`). They share
    OVERLAP_CHUNK_BYTES, or past it up to MAX_THREADS hold one state each.
    `states` is called on the thread that evaluates the chunk, so a caller
    can form each chunk's states there instead of holding all of them at
    once. The table is complex and zero past column 2j+1, and each thread
    copies its chunk's states into zero-padded amplitude rows, so one product
    of two complex arrays fills the whole transform buffer: no cast of the
    table and no pass to clear the padding. Each thread reuses its
    amplitude rows, one complex and one real buffer: the overlaps passed to
    `reduce` are scratch space that the thread's next chunk overwrites, so
    `reduce` copies or reduces them (in place if it likes), and with
    `most` > 1 writes only where no other chunk writes. A caller that skips
    rows equal to others under `==` loses nothing: +0 and -0 compare equal,
    and the sign of a zero cannot change |<Omega|psi>|^2.
    """
    # the order check guarantees n_phi >= 2j+1; below that ifft would silently
    # truncate the m-sum instead of raising
    _check_order(sys, grid)
    table = np.zeros((grid.n_theta, grid.n_phi), dtype=complex)
    table[:, :sys.dim] = _coherent_magnitudes(sys, grid.thetas[::grid.n_phi])
    fit = OVERLAP_CHUNK_BYTES // (16 * grid.size)  # 0 where one state's overlaps exceed it
    threads = workers(count, min(most, max(fit, MAX_THREADS)))
    step = max(1, min(group, fit // threads))
    per_group = -(-group // step)  # chunks of a group, the last one ragged

    def run(indices) -> None:
        amplitudes = np.zeros((step, grid.n_phi), dtype=complex)
        transform = np.empty((step, grid.n_theta, grid.n_phi), dtype=complex)
        overlaps = np.empty((step, grid.size))
        for index in indices:
            group_start = index // per_group * group
            start = group_start + index % per_group * step
            chunk = slice(start, min(start + step, group_start + group))
            block = states(chunk)
            k = len(block)
            amplitudes[:k, :sys.dim] = block
            rows, out = transform[:k], overlaps[:k]
            np.multiply(table, amplitudes[:k, None, :], out=rows)
            np.fft.ifft(rows, axis=-1, norm="forward", out=rows)
            np.abs(rows.reshape(k, -1), out=out)
            reduce(chunk, np.square(out, out=out))

    run_shared(run, range(count // group * per_group), threads)


def _mixture_q(sys: SpinSystem, grid: SphereGrid, weights: np.ndarray,
               states: np.ndarray) -> np.ndarray:
    """(2j+1)/(4pi) sum_k weights_k |<Omega|psi_k>|^2 at every grid node."""
    total = 0  # summed chunk after chunk on one thread, as `sum` adds

    def add(chunk, overlaps) -> None:
        nonlocal total
        total = total + weights[chunk] @ overlaps

    _node_overlaps(sys, grid, len(states), len(states), states.__getitem__, 1, add)
    return (2 * sys.j + 1) / (4 * pi) * total


def _finalize_q(raw: np.ndarray, grid: SphereGrid, j: float) -> QFunction:
    total = float(np.sum(grid.weights * raw))
    if abs(total - 1.0) > Q_NORM_TOL:
        raise GridOrderError(
            f"Q-function integrates to {total!r}; grid order is insufficient for this spin")
    return QFunction(grid=grid, values=raw, j=j)


def q_function(rho: OperatorMatrix, sys: SpinSystem, grid: SphereGrid) -> QFunction:
    """Husimi distribution (2j+1)/(4pi) <Omega|rho|Omega> at every grid node.

    Evaluated as sum_k p_k |<Omega|psi_k>|^2 over the eigenpairs of rho with
    p_k > 0 (roundoff-negative eigenvalues are dropped), so no node can come
    out negative.
    """
    _check_density(rho, sys.dim)
    p, vecs = np.linalg.eigh(rho.entries)
    keep = p > 0
    return _finalize_q(_mixture_q(sys, grid, p[keep], vecs[:, keep].T), grid, sys.j)


def q_function_pure(psi: StateVector, sys: SpinSystem, grid: SphereGrid) -> QFunction:
    """Q-function of a pure state, evaluated without forming the projector."""
    if psi.dim != sys.dim:
        raise ValueError(f"state dim {psi.dim}, expected {sys.dim}")
    raw = _mixture_q(sys, grid, np.ones(1), psi.amplitudes[None, :])
    return _finalize_q(raw, grid, sys.j)


def bhattacharyya(p: QFunction, q: QFunction) -> float:
    """Distinguishability scalar product: quadrature of sqrt(p*q) over the grid.

    1 for identical distributions, 0 for disjoint supports; always at least
    the quantum overlap |<psi1|psi2>| of any states realizing p and q.
    """
    if p.j != q.j:
        raise ValueError(f"spin mismatch: {p.j} vs {q.j}")
    if not p.grid.same_nodes(q.grid):
        raise ValueError("Q-functions live on different grids")
    val = float(np.sum(p.grid.weights * np.sqrt(p.values * q.values)))
    if val > 1.0 + BHATTACHARYYA_EXCESS_TOL:
        raise ToleranceError(f"scalar product {val!r} exceeds 1 beyond tolerance")
    return min(max(val, 0.0), 1.0)
