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
from .parallel import run_shared, workers
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
# Two states fit up to j = 89.5, so one thread runs from j = 90; one state
# exceeds the budget from j = 127.5
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
        x, w_theta = np.polynomial.legendre.leggauss(n_theta)
        theta = np.arccos(x)
        phi = 2 * pi * np.arange(n_phi) / n_phi
        w_phi = 2 * pi / n_phi
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        wt = np.outer(w_theta, np.full(n_phi, w_phi))
        object.__setattr__(self, "thetas", owned(th.ravel(), float))
        object.__setattr__(self, "phis", owned(ph.ravel(), float))
        object.__setattr__(self, "weights", owned(wt.ravel(), float))
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


@dataclass(frozen=True)
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


def _node_overlaps(sys: SpinSystem, grid: SphereGrid, count: int, states, most: int,
                   reduce) -> None:
    """reduce(chunk, overlaps) with |<Omega|psi_k>|^2 at every grid node for
    the rows psi_k = states(chunk), over consecutive chunks of range(count).

    On the product grid <Omega|psi> = e^{-ij phi} sum_m d_m(theta) psi_m
    e^{i(j+m) phi} with the real d_m(theta) = |<m|theta, 0>|, so each theta-row
    is one length-n_phi inverse DFT of d(theta) * psi, and the phase
    e^{-ij phi} drops out of |.|^2 (Driscoll & Healy, Adv. Appl. Math. 15,
    1994).

    The chunks run on up to `most` threads side by side, each taking the next
    chunk when it is ready for one (`parallel.run_shared`): no more threads
    than states fit in OVERLAP_CHUNK_BYTES, which they share, at least one
    state a chunk. `states` is called on the thread that evaluates the chunk,
    so a caller can form each chunk's states there instead of holding all of
    them at once. The table is complex and zero past column 2j+1, and each
    thread copies its chunk's states into zero-padded amplitude rows, so one
    product of two complex arrays fills the whole transform buffer: no cast
    of the table and no pass to clear the padding. Each thread reuses its
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
    threads = workers(count, min(most, max(1, fit)))
    step = max(1, min(count, fit // threads))

    def run(starts) -> None:
        amplitudes = np.zeros((step, grid.n_phi), dtype=complex)
        transform = np.empty((step, grid.n_theta, grid.n_phi), dtype=complex)
        overlaps = np.empty((step, grid.size))
        for start in starts:
            chunk = slice(start, min(start + step, count))
            block = states(chunk)
            k = len(block)
            amplitudes[:k, :sys.dim] = block
            rows, out = transform[:k], overlaps[:k]
            np.multiply(table, amplitudes[:k, None, :], out=rows)
            np.fft.ifft(rows, axis=-1, norm="forward", out=rows)
            np.abs(rows.reshape(k, -1), out=out)
            reduce(chunk, np.square(out, out=out))

    run_shared(run, range(0, count, step), threads)


def _mixture_q(sys: SpinSystem, grid: SphereGrid, weights: np.ndarray,
               states: np.ndarray) -> np.ndarray:
    """(2j+1)/(4pi) sum_k weights_k |<Omega|psi_k>|^2 at every grid node."""
    total = 0  # summed chunk after chunk on one thread, as `sum` adds

    def add(chunk, overlaps) -> None:
        nonlocal total
        total = total + weights[chunk] @ overlaps

    _node_overlaps(sys, grid, len(states), states.__getitem__, 1, add)
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
