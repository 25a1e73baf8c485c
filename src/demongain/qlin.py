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


def _as_square(m, dims=(2, 4)) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] not in dims:
        raise ValueError(f"expected dimension in {dims}, got {m.shape[-1]}")
    return m


def dag(m) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def hermitian(m) -> np.ndarray:
    """(m + m^dag)/2 of a matrix or (..., n, n) stack, the one Hermiticity check.

    Rejects m if any matrix's max-abs deviation from Hermiticity exceeds
    HERMITICITY_TOL or is NaN; an empty stack passes. The sum is halved
    as reals, since complex division flips the sign of some zero parts; so an
    exactly Hermitian m comes back bit for bit but for +0.0 imaginary diagonals.
    """
    m = _as_square(m)
    m_dag = dag(m)
    dev = np.max(np.abs(m - m_dag), initial=0.0)
    if not dev <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |h - h^dag| = {dev:.3e}")
    return (np.add(m, m_dag, order="C").view(float) / 2).view(complex)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices; first factor is the agent qubit.

    Either factor may be an (..., 2, 2) stack; leading axes broadcast.
    """
    a = _as_square(a, dims=(2,))
    b = _as_square(b, dims=(2,))
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def partial_trace(rho, keep: str) -> np.ndarray:
    """Agent (keep="A") or demon (keep="D") marginal of a 4x4 operator or (..., 4, 4) stack."""
    rho = _as_square(rho, dims=(4,))
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))  # (..., a, d, a', d')
    if keep == "A":
        return np.einsum("...ajbj->...ab", r)
    if keep == "D":
        return np.einsum("...iaib->...ab", r)
    raise ValueError(f"keep must be 'A' or 'D', got {keep!r}")


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix, or of a (..., n, n) stack.

    Returns (eigenvalues sorted descending, eigenvectors as columns in the
    matching order), with the input's leading axes, of `hermitian(h)`: for
    an exactly Hermitian h, the matrix zheevd reads is h bit for bit.
    """
    w, v = np.linalg.eigh(hermitian(h))
    return w[..., ::-1], v[..., ::-1]
