import numpy as np
import pytest

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def reference_node_overlaps(sys, grid, states, chunk_bytes=8 * 2**20):
    """The overlap kernel as it was before its buffers were reused: fresh
    arrays per chunk, a zero-padding `ifft(n=n_phi)` and an 8 MiB budget.

    Kept as the bit-level reference for `spincoarse._node_overlaps`.
    """
    from fapplab.spincoarse import _check_order, _coherent_amplitudes
    _check_order(sys, grid)
    table = _coherent_amplitudes(sys, grid.thetas[::grid.n_phi], 0).real
    step = max(1, chunk_bytes // (16 * grid.size))
    for start in range(0, len(states), step):
        chunk = slice(start, start + step)
        rows = np.fft.ifft(table * states[chunk, None, :], n=grid.n_phi, axis=-1,
                           norm="forward")
        yield chunk, (np.abs(rows) ** 2).reshape(-1, grid.size)
