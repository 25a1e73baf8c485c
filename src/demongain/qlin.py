"""Dense complex linear algebra for 2- and 4-dimensional systems.

Basis convention: two-qubit basis is |a d> with the agent index major,
i.e. (|0_A 0_D>, |0_A 1_D>, |1_A 0_D>, |1_A 1_D>). Every module in this
package relies on that ordering.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_square(m, dims=(2, 4), stacked: bool = False) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stacked) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] not in dims:
        raise ValueError(f"expected dimension in {dims}, got {m.shape[-1]}")
    return m


def dag(m) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def is_hermitian(m) -> bool:
    """True when every matrix of `m` (a matrix or a stack) is Hermitian within HERMITICITY_TOL."""
    m_dag = dag(m)
    return np.array_equal(m, m_dag) or np.max(np.abs(m - m_dag), initial=0.0) <= HERMITICITY_TOL


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices; first factor is the agent qubit.

    Either factor may be an (..., 2, 2) stack; leading axes broadcast.
    """
    a = _as_square(a, dims=(2,), stacked=True)
    b = _as_square(b, dims=(2,), stacked=True)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def partial_trace(rho, keep: str) -> np.ndarray:
    """Trace out one qubit of a 4x4 operator.

    keep="A" returns the agent marginal, keep="D" the demon marginal.
    """
    rho = _as_square(rho, dims=(4,))
    r = rho.reshape(2, 2, 2, 2)  # (a, d, a', d')
    if keep == "A":
        return np.einsum("ajbj->ab", r)
    if keep == "D":
        return np.einsum("iaib->ab", r)
    raise ValueError(f"keep must be 'A' or 'D', got {keep!r}")


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix, or of a (..., n, n) stack.

    Returns (eigenvalues sorted descending, eigenvectors as columns in the
    matching order), with the input's leading axes. Rejects the input if
    any matrix's max-abs deviation from Hermiticity exceeds HERMITICITY_TOL.
    """
    h = _as_square(h, stacked=True)
    h_dag = dag(h)
    # (h + h^dag)/2 differs from an exactly Hermitian h only in the sign of
    # zero imaginary diagonal parts, which zheevd does not read
    if not np.array_equal(h, h_dag):
        dev = np.max(np.abs(h - h_dag), initial=0.0)
        if not dev <= HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |h - h^dag| = {dev:.3e}")
        h = (h + h_dag) / 2
    w, v = np.linalg.eigh(h)
    return w[..., ::-1], v[..., ::-1]
