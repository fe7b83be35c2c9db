"""Spin-j coherent states, sphere quadrature, Husimi Q-functions as
coarse-grained macroscopic states, cap POVM elements, and the Bhattacharyya
distinguishability coefficient.

Dicke basis convention: amplitudes are ordered by ascending magnetic quantum
number m = -j ... +j, so index k holds m = k - j.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import lgamma, pi

import numpy as np

from .errors import GridOrderError, ToleranceError
from .qcore import OperatorMatrix, StateVector

MAX_J = 500  # binomials are evaluated in log space; beyond this we refuse
NEGATIVE_Q_TOL = 1e-12
Q_NORM_TOL = 1e-8
BHATTACHARYYA_EXCESS_TOL = 1e-8
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


def _coherent_amplitudes(sys: SpinSystem, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Unnormalized <m|Omega> for each direction (theta, phi): one row per direction.

    Amplitude on |m>: binom(2j, j+m)^(1/2) cos^(j+m)(theta/2) sin^(j-m)(theta/2)
    e^(-i m phi); binomials are evaluated in log space.
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
    mag = np.where(np.isfinite(logmag), np.exp(logmag), 0.0)
    return mag * np.exp(-1j * np.outer(phis, m))


def coherent_state(sys: SpinSystem, omega: SolidAngle) -> StateVector:
    """Spin coherent state pointing along omega."""
    amps = _coherent_amplitudes(sys, np.array([omega.theta]), np.array([omega.phi]))
    return StateVector(amps[0], normalize=True)


def coherent_kernel(sys: SpinSystem, grid: SphereGrid) -> np.ndarray:
    """Matrix K[node, m] = <m|Omega_node> for every grid node.

    Precompute once and pass to q_function / q_function_pure when evaluating
    many states on the same grid.
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
    clipped_nodes: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", _ro(vals))
        if vals.size != self.grid.size:
            raise ValueError("value count does not match grid size")
        if vals.min() < 0:
            raise ValueError("QFunction values must be clipped non-negative")

    def integral(self) -> float:
        return float(np.sum(self.grid.weights * self.values))

    def write_csv(self, fileobj) -> None:
        """Columns theta, phi, weight, value with a mandatory header row."""
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["theta", "phi", "weight", "value"])
        for th, ph, w, v in zip(self.grid.thetas, self.grid.phis,
                                self.grid.weights, self.values):
            writer.writerow([repr(float(th)), repr(float(ph)), repr(float(w)), repr(float(v))])


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


def _finalize_q(raw: np.ndarray, grid: SphereGrid, j: float) -> QFunction:
    negative = raw < 0
    if np.any(raw < -NEGATIVE_Q_TOL):
        worst = raw.min()
        raise ToleranceError(f"Q-function value {worst!r} below the roundoff tolerance")
    n_clipped = int(np.count_nonzero(negative))
    if n_clipped > 0.001 * raw.size:
        raise ToleranceError(f"{n_clipped} of {raw.size} Q nodes needed clipping")
    vals = np.where(negative, 0.0, raw)
    total = float(np.sum(grid.weights * vals))
    if abs(total - 1.0) > Q_NORM_TOL:
        raise GridOrderError(
            f"Q-function integrates to {total!r}; grid order is insufficient for this spin")
    return QFunction(grid=grid, values=vals, j=j, clipped_nodes=n_clipped)


def q_function(rho: OperatorMatrix, sys: SpinSystem, grid: SphereGrid,
               kernel: np.ndarray | None = None) -> QFunction:
    """Husimi distribution (2j+1)/(4pi) <Omega|rho|Omega> at every grid node."""
    _check_density(rho, sys.dim)
    _check_order(sys, grid)
    if kernel is None:
        kernel = coherent_kernel(sys, grid)
    tmp = kernel.conj() @ rho.entries
    raw = (2 * sys.j + 1) / (4 * pi) * np.einsum("km,km->k", tmp, kernel).real
    return _finalize_q(raw, grid, sys.j)


def q_function_pure(psi: StateVector, sys: SpinSystem, grid: SphereGrid,
                    kernel: np.ndarray | None = None) -> QFunction:
    """Q-function of a pure state, evaluated without forming the projector."""
    if psi.dim != sys.dim:
        raise ValueError(f"state dim {psi.dim}, expected {sys.dim}")
    _check_order(sys, grid)
    if kernel is None:
        kernel = coherent_kernel(sys, grid)
    overlaps = kernel.conj() @ psi.amplitudes
    raw = (2 * sys.j + 1) / (4 * pi) * np.abs(overlaps) ** 2
    return _finalize_q(raw, grid, sys.j)


def povm_element(sys: SpinSystem, region: CapRegion, grid: SphereGrid,
                 kernel: np.ndarray | None = None) -> OperatorMatrix:
    """Coarse-grained POVM element: (2j+1)/(4pi) sum of w |Omega><Omega| over the cap."""
    _check_order(sys, grid)
    if kernel is None:
        kernel = coherent_kernel(sys, grid)
    inside = region.contains(grid.thetas, grid.phis)
    if not np.any(inside):
        raise ValueError("cap region contains no grid nodes")
    k_in = kernel[inside]
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
