"""Dense complex linear algebra: state vectors, operators, tensor products
and the partial trace.

Composite indexing is row-major throughout: the leftmost tensor factor is
the most significant index. States are compared by |<a|b>|, never
elementwise, so global phases are irrelevant across the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
PROJECTOR_TOL = 1e-10
NORM_TOL = 1e-12

_KINDS = ("generic", "hermitian", "unitary", "projector")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True)
    a.setflags(write=False)
    return a


class StateVector:
    """Normalized pure state on a dim-dimensional Hilbert space."""

    __slots__ = ("dim", "amplitudes")

    def __init__(self, amplitudes, *, normalize: bool = False):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise ValueError("state needs at least one amplitude")
        if not np.isfinite(amps).all():
            raise ValueError("state amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if normalize:
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            amps = amps / norm
        elif abs(norm - 1.0) > NORM_TOL:
            raise ToleranceError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "dim", amps.size)
        object.__setattr__(self, "amplitudes", _readonly(amps))

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>| (global-phase free comparison)."""
        return abs(self.overlap(other))

    def density(self) -> "OperatorMatrix":
        """|psi><psi| as a projector operator."""
        amps = self.amplitudes
        return OperatorMatrix(np.outer(amps, amps.conj()), kind="projector")

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


class OperatorMatrix:
    """Square complex matrix tagged as generic, hermitian, unitary, or projector.

    The tag is verified at construction, so downstream code can rely on it.
    """

    __slots__ = ("dim", "entries", "kind")

    def __init__(self, entries, kind: str = "generic"):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        if kind not in _KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        if kind in ("hermitian", "projector"):
            dev = np.max(np.abs(m - m.conj().T))
            if dev > HERMITIAN_TOL:
                raise ToleranceError(f"hermiticity violated by {dev:.3e} (> {HERMITIAN_TOL})")
        if kind == "unitary":
            dev = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
            if dev > UNITARY_TOL:
                raise ToleranceError(f"unitarity violated by {dev:.3e} (> {UNITARY_TOL})")
        if kind == "projector":
            dev = np.max(np.abs(m @ m - m))
            if dev > PROJECTOR_TOL:
                raise ToleranceError(f"idempotence violated by {dev:.3e} (> {PROJECTOR_TOL})")
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "entries", _readonly(m))
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMatrix is immutable")

    def is_density(self, tol: float = 1e-10) -> bool:
        m = self.entries
        if np.max(np.abs(m - m.conj().T)) > tol:
            return False
        if abs(np.trace(m).real - 1.0) > tol or abs(np.trace(m).imag) > tol:
            return False
        return bool(np.linalg.eigvalsh(m).min() > -tol)

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim}, kind={self.kind!r})"


@dataclass(frozen=True)
class ProductSpace:
    """Ordered tensor-factor layout with row-major composite indexing."""

    factor_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dims must be positive, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.factor_dims)

    @property
    def nfactors(self) -> int:
        return len(self.factor_dims)

    def flat_index(self, multi) -> int:
        """Composite index of a per-factor index tuple (leftmost most significant)."""
        if len(multi) != self.nfactors:
            raise ValueError("index tuple length mismatch")
        flat = 0
        for k, d in zip(multi, self.factor_dims):
            if not 0 <= k < d:
                raise ValueError(f"factor index {k} out of range for dim {d}")
            flat = flat * d + k
        return flat


def tensor(a, b):
    """Kronecker product of two states or two operators (row-major order)."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, OperatorMatrix) and isinstance(b, OperatorMatrix):
        if a.kind == b.kind and a.kind in ("hermitian", "unitary", "projector"):
            kind = a.kind
        elif {a.kind, b.kind} <= {"projector", "hermitian"}:
            kind = "hermitian"
        else:
            kind = "generic"
        return OperatorMatrix(np.kron(a.entries, b.entries), kind=kind)
    raise TypeError("tensor expects two StateVectors or two OperatorMatrices")


def tensor_all(factors):
    out = factors[0]
    for f in factors[1:]:
        out = tensor(out, f)
    return out


def partial_trace(rho: OperatorMatrix, space: ProductSpace, keep) -> OperatorMatrix:
    """Trace out every factor not listed in `keep` (indices into space.factor_dims).

    `rho` must be a density operator on the product space; the reduced matrix
    is again a density operator on the kept factors, in their original order.
    """
    dims = space.factor_dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if not keep:
        raise ValueError("must keep at least one factor")
    if rho.dim != space.total_dim:
        raise ValueError(f"dimension mismatch: rho dim {rho.dim}, space dim {space.total_dim}")
    if not rho.is_density():
        raise ValueError("partial_trace requires a density operator input")

    if len(keep) == n:
        return OperatorMatrix(rho.entries, kind="hermitian")

    t = rho.entries.reshape(dims + dims)
    # pair row/col axes of each traced factor
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for k in range(n):
        if k not in keep:
            col[k] = row[k]
    out_sub = "".join(row[k] for k in keep) + "".join(letters[n + k] for k in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out_sub, t)
    d_keep = int(np.prod([dims[k] for k in keep]))
    reduced = reduced.reshape(d_keep, d_keep)
    reduced = 0.5 * (reduced + reduced.conj().T)
    tr = np.trace(reduced).real
    if abs(tr - 1.0) > 1e-10:
        raise ToleranceError(f"partial trace lost normalization: trace {tr!r}")
    return OperatorMatrix(reduced, kind="hermitian")
