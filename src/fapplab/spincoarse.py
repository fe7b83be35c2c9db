"""Spin-j coherent states, sphere quadrature, Husimi Q-functions as
coarse-grained macroscopic states, cap POVM elements, and the Bhattacharyya
distinguishability coefficient.

Dicke basis convention: amplitudes are ordered by ascending magnetic quantum
number m = -j ... +j, so index k holds m = k - j.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, pi

import numpy as np

from .errors import GridOrderError, ToleranceError
from .qcore import OperatorMatrix, StateVector

MAX_J = 500  # binomials are evaluated in log space; beyond this we refuse
MAX_GRID_AXIS = 2 * MAX_J + 2  # nodes per axis of the default grid of the largest spin
# largest echo ensemble: at MAX_J's 1001 levels one time's block of member
# states (members x levels x 16 B complex) is 0.52 GB at this size, and the
# members x times overlaps (8 B each) add 0.26 MB per time
MAX_ENSEMBLE = 2**15
Q_NORM_TOL = 1e-8
BHATTACHARYYA_EXCESS_TOL = 1e-8
# complex node overlaps held at once, which bounds the peak memory of a Q
# evaluation; 512 KiB (768 KiB of chunk buffers with the real |.|^2) was the
# fastest echo budget between 128 KiB and 8 MiB on a core with 4 MiB of L2
OVERLAP_CHUNK_BYTES = 512 * 2**10
MACRO_WIDTH_FACTOR = 5.0  # operational reading of "z-width well above sqrt(j)"


@dataclass(frozen=True)
class SpinSystem:
    """Spin-j system in the (2j+1)-dimensional Dicke basis."""

    j: float

    def __post_init__(self):
        twoj = round(2 * self.j)
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

    def angle_to(self, other: "SolidAngle") -> float:
        """Great-circle angle between the two directions."""
        c = (np.cos(self.theta) * np.cos(other.theta)
             + np.sin(self.theta) * np.sin(other.theta) * np.cos(self.phi - other.phi))
        return float(np.arccos(np.clip(c, -1.0, 1.0)))


class SphereGrid:
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
        self.thetas = _ro(th.ravel())
        self.phis = _ro(ph.ravel())
        self.weights = _ro(wt.ravel())
        self.n_theta = n_theta
        self.n_phi = n_phi
        self.exactness_order = min(2 * n_theta - 1, n_phi - 1)
        total = self.weights.sum()
        if abs(total - 4 * pi) > 1e-10:
            raise ToleranceError(f"grid weights sum to {total!r}, not 4pi")

    @classmethod
    def for_spin(cls, sys: SpinSystem, margin: int = 1) -> "SphereGrid":
        """Grid whose exactness order covers every degree-2j kernel of the spin."""
        n = sys.dim + margin  # 2j + 1 + margin nodes per axis
        return cls(n, n)

    @property
    def size(self) -> int:
        return self.weights.size

    def same_nodes(self, other: "SphereGrid") -> bool:
        return (self.n_theta == other.n_theta and self.n_phi == other.n_phi
                and np.array_equal(self.thetas, other.thetas)
                and np.array_equal(self.phis, other.phis))


def _ro(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _log_binomials(j: float) -> np.ndarray:
    dim = round(2 * j) + 1
    n = dim - 1
    return np.array([0.5 * (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1))
                     for k in range(dim)])


def _power_term(exponent: np.ndarray, log_base) -> np.ndarray:
    """exponent * log_base with the convention 0 * log(0) = 0 (x^0 = 1)."""
    with np.errstate(invalid="ignore"):
        return np.where(exponent == 0, 0.0, exponent * log_base)


def _coherent_magnitudes(sys: SpinSystem, thetas: np.ndarray) -> np.ndarray:
    """Real |<m|theta, phi>| for each polar angle: one row per angle.

    Magnitude on |m>: binom(2j, j+m)^(1/2) cos^(j+m)(theta/2) sin^(j-m)(theta/2),
    evaluated in log space. The log is never NaN or +inf, and a zero base
    gives -inf, whose exp is +0.
    """
    j = sys.j
    m = sys.m_values
    c = np.cos(thetas / 2)
    s = np.sin(thetas / 2)
    logb = _log_binomials(j)
    logc = np.where(c > 0, np.log(np.maximum(c, 1e-300)), -np.inf)
    logs = np.where(s > 0, np.log(np.maximum(s, 1e-300)), -np.inf)
    logmag = (logb[None, :]
              + _power_term(np.broadcast_to(j + m, (c.size, m.size)), logc[:, None])
              + _power_term(np.broadcast_to(j - m, (c.size, m.size)), logs[:, None]))
    return np.exp(logmag)


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
    kernel.setflags(write=False)
    return kernel


@dataclass(frozen=True)
class QFunction:
    """Positive normalized distribution on a sphere grid (the macroscopic state)."""

    grid: SphereGrid
    values: np.ndarray
    j: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", _ro(vals))
        if vals.size != self.grid.size:
            raise ValueError("value count does not match grid size")
        if vals.min() < 0:
            raise ValueError("QFunction values must be non-negative")

    def integral(self) -> float:
        return float(np.sum(self.grid.weights * self.values))

    def write_csv(self, fileobj) -> None:
        """Columns theta, phi, weight, value with a mandatory header row.

        On the product grid theta and the weight are constant along a
        theta-row and phi repeats in every row, so those columns are formatted
        once per distinct value and only the value column once per node.
        """
        n_phi = self.grid.n_phi
        phis = [repr(ph) for ph in self.grid.phis[:n_phi].tolist()]
        values = [repr(v) for v in self.values.tolist()]
        lines = ["theta,phi,weight,value\n"]
        for row, (th, w) in enumerate(zip(self.grid.thetas[::n_phi].tolist(),
                                          self.grid.weights[::n_phi].tolist())):
            head, tail = f"{th!r},", f",{w!r},"
            lines += [f"{head}{ph}{tail}{v}\n"
                      for ph, v in zip(phis, values[row * n_phi:(row + 1) * n_phi])]
        fileobj.write("".join(lines))


@dataclass(frozen=True)
class CapRegion:
    """Spherical cap: all directions within angular_radius of the center."""

    center: SolidAngle
    angular_radius: float

    def __post_init__(self):
        if not 0.0 < self.angular_radius <= pi:
            raise ValueError(f"angular radius {self.angular_radius} outside (0, pi]")

    def contains(self, theta, phi) -> np.ndarray:
        c = (np.cos(self.center.theta) * np.cos(theta)
             + np.sin(self.center.theta) * np.sin(theta) * np.cos(phi - self.center.phi))
        return np.arccos(np.clip(c, -1.0, 1.0)) <= self.angular_radius

    def z_projection_width(self, sys: SpinSystem) -> float:
        """Width of the cap's m-projection along z: Delta_m = j (cos t_min - cos t_max)."""
        t_min = max(0.0, self.center.theta - self.angular_radius)
        t_max = min(pi, self.center.theta + self.angular_radius)
        return sys.j * (np.cos(t_min) - np.cos(t_max))

    def is_macroscopic(self, sys: SpinSystem) -> bool:
        """Advisory flag: the m-width must dominate the coherent-state spread.

        Operational threshold: Delta_m >= 5 sqrt(j).
        """
        return self.z_projection_width(sys) >= MACRO_WIDTH_FACTOR * np.sqrt(sys.j)


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


def _node_overlaps(sys: SpinSystem, grid: SphereGrid, states: np.ndarray):
    """|<Omega|psi_k>|^2 at every grid node for each row psi_k of `states`.

    On the product grid <Omega|psi> = e^{-ij phi} sum_m d_m(theta) psi_m
    e^{i(j+m) phi} with the real d_m(theta) = |<m|theta, 0>|, so each theta-row
    is one length-n_phi inverse DFT of d(theta) * psi, and the phase
    e^{-ij phi} drops out of |.|^2 (Driscoll & Healy, Adv. Appl. Math. 15,
    1994). Yields (slice of `states`, overlaps of shape (rows, nodes)) for
    consecutive chunks of as many states as fit in OVERLAP_CHUNK_BYTES of
    complex overlaps, at least one.

    One zero-padded complex buffer and one real buffer serve every chunk: the
    yielded overlaps are scratch space that the next chunk overwrites, so a
    caller copies or reduces them before it resumes the generator, and may
    reduce them in place. A caller that skips rows equal to others under
    `==` loses nothing: +0 and -0 compare equal, and the sign of a zero
    cannot change |<Omega|psi>|^2.
    """
    # the order check guarantees n_phi >= 2j+1; below that ifft would silently
    # truncate the m-sum instead of raising
    _check_order(sys, grid)
    table = _coherent_magnitudes(sys, grid.thetas[::grid.n_phi])
    step = max(1, min(len(states), OVERLAP_CHUNK_BYTES // (16 * grid.size)))
    padded = np.zeros((step, grid.n_theta, grid.n_phi), dtype=complex)
    overlaps = np.empty((step, grid.size))
    for start in range(0, len(states), step):
        chunk = slice(start, start + step)
        block = states[chunk]
        rows, out = padded[:len(block)], overlaps[:len(block)]
        np.multiply(table, block[:, None, :], out=rows[..., :sys.dim])
        rows[..., sys.dim:] = 0.0  # the previous chunk's transform overwrote the padding
        np.fft.ifft(rows, axis=-1, norm="forward", out=rows)
        np.abs(rows.reshape(len(block), -1), out=out)
        yield chunk, np.square(out, out=out)


def _mixture_q(sys: SpinSystem, grid: SphereGrid, weights: np.ndarray,
               states: np.ndarray) -> np.ndarray:
    """(2j+1)/(4pi) sum_k weights_k |<Omega|psi_k>|^2 at every grid node."""
    total = sum(weights[chunk] @ overlaps
                for chunk, overlaps in _node_overlaps(sys, grid, states))
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


def povm_element(sys: SpinSystem, region: CapRegion, grid: SphereGrid) -> OperatorMatrix:
    """Coarse-grained POVM element: (2j+1)/(4pi) sum of w |Omega><Omega| over the cap."""
    _check_order(sys, grid)
    inside = region.contains(grid.thetas, grid.phis)
    if not np.any(inside):
        raise ValueError("cap region contains no grid nodes")
    k_in = _coherent_amplitudes(sys, grid.thetas[inside], grid.phis[inside])
    w_in = grid.weights[inside]
    mat = (2 * sys.j + 1) / (4 * pi) * (k_in.T @ (w_in[:, None] * k_in.conj()))
    mat = 0.5 * (mat + mat.conj().T)
    low = np.linalg.eigvalsh(mat).min()
    if low < -1e-10:
        raise ToleranceError(f"POVM element has negative eigenvalue {low!r}")
    return OperatorMatrix(mat, kind="hermitian")


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
