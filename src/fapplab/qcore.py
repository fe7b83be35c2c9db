"""Dense complex linear algebra: state vectors, operators, tensor products
of states and the partial trace.

Composite indexing is row-major throughout: the leftmost tensor factor is
the most significant index. States are compared by |<a|b>|, never
elementwise, so global phases are irrelevant across the package.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ToleranceError

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
PROJECTOR_TOL = 1e-10
NORM_TOL = 1e-12
DENSITY_TOL = 1e-10  # hermiticity, trace and smallest eigenvalue of `is_density`

_KINDS = ("hermitian", "unitary", "projector")


def owned(a, dtype) -> np.ndarray:
    """A read-only copy of `a` as `dtype`, which no caller's array aliases.

    Every value type stores its arrays through this, so a NaN or inf entry is
    refused at construction: NaN passes every `> tol` comparison unnoticed.
    """
    a = np.array(a, dtype=dtype, copy=True)
    if not np.isfinite(a).all():
        raise ValueError("array entries must be finite")
    a.setflags(write=False)
    return a


class Immutable:
    """Base of the slotted value types: attributes are set once, in __init__,
    through object.__setattr__, and can be neither rebound nor deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class StateVector(Immutable):
    """Normalized pure state on a dim-dimensional Hilbert space."""

    __slots__ = ("dim", "amplitudes")

    def __init__(self, amplitudes, *, normalize: bool = False):
        amps = owned(amplitudes, complex).reshape(-1)
        if amps.size < 1:
            raise ValueError("state needs at least one amplitude")
        norm = np.linalg.norm(amps)
        if normalize:
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            amps = owned(amps / norm, complex)
        elif abs(norm - 1.0) > NORM_TOL:
            raise ToleranceError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "dim", amps.size)
        object.__setattr__(self, "amplitudes", amps)

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

    def density(self) -> "OperatorMatrix":
        """|psi><psi| as a projector operator."""
        amps = self.amplitudes
        return OperatorMatrix(np.outer(amps, amps.conj()), kind="projector")

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


class OperatorMatrix(Immutable):
    """Square complex matrix tagged as hermitian, unitary, or projector.

    The tag is verified at construction, so downstream code can rely on it.
    """

    __slots__ = ("dim", "entries", "kind")

    def __init__(self, entries, kind: str):
        m = owned(entries, complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        if kind not in _KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
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
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "kind", kind)

    def is_density(self) -> bool:
        m, tol = self.entries, DENSITY_TOL
        if np.max(np.abs(m - m.conj().T)) > tol:
            return False
        if abs(np.trace(m).real - 1.0) > tol or abs(np.trace(m).imag) > tol:
            return False
        return bool(np.linalg.eigvalsh(m).min() > -tol)

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim}, kind={self.kind!r})"


def tensor_all(factors) -> StateVector:
    """Kronecker product of the states in `factors`, leftmost most significant."""
    return StateVector(functools.reduce(np.kron, [f.amplitudes for f in factors]))


def partial_trace(rho: OperatorMatrix, dims, keep) -> OperatorMatrix:
    """Trace out every factor not listed in `keep` (indices into the tuple of
    factor dims `dims`, leftmost most significant).

    `rho` must be a density operator on the product space; the reduced matrix
    is again a density operator on the kept factors, in their original order.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"factor dims must be positive, got {dims}")
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if not keep:
        raise ValueError("must keep at least one factor")
    if rho.dim != math.prod(dims):
        raise ValueError(f"dimension mismatch: rho dim {rho.dim}, space dims {dims}")
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
    d_keep = math.prod(dims[k] for k in keep)
    reduced = reduced.reshape(d_keep, d_keep)
    reduced = 0.5 * (reduced + reduced.conj().T)
    tr = np.trace(reduced).real
    if abs(tr - 1.0) > DENSITY_TOL:
        raise ToleranceError(f"partial trace lost normalization: trace {tr!r}")
    return OperatorMatrix(reduced, kind="hermitian")
