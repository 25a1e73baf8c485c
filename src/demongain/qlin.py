"""Dense complex linear algebra for 2- and 4-dimensional systems.

Basis convention: two-qubit basis is |a d> with the agent index major,
i.e. (|0_A 0_D>, |0_A 1_D>, |1_A 0_D>, |1_A 1_D>). Every module in this
package relies on that ordering.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_EIG_FLOOR = -1e-9

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


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


def is_hermitian(m, tol: float = HERMITICITY_TOL) -> bool:
    """True when every matrix of `m` (a matrix or a stack) is Hermitian."""
    return np.max(np.abs(m - dag(m))) <= tol


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices; first factor is the agent qubit."""
    a = _as_square(a, dims=(2,))
    b = _as_square(b, dims=(2,))
    return np.kron(a, b)


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


def eig_hermitian(h, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix, or of a (..., n, n) stack.

    Returns (eigenvalues sorted descending, eigenvectors as columns in the
    matching order), with the input's leading axes. Rejects the input if
    any matrix deviates from Hermiticity by more than `tol` in max-abs.
    """
    h = _as_square(h, stacked=True)
    dev = np.max(np.abs(h - dag(h)))
    if not dev <= tol:
        raise ValueError(f"matrix is not Hermitian: max |h - h^dag| = {dev:.3e}")
    w, v = np.linalg.eigh((h + dag(h)) / 2)
    return w[..., ::-1], v[..., ::-1]


def psd_sqrt(rho, floor: float = PSD_EIG_FLOOR) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [floor, 0) are clamped to zero; anything below `floor`
    is rejected as non-PSD.
    """
    w, v = eig_hermitian(rho)
    if np.min(w) < floor:
        raise ValueError(f"matrix is not PSD: min eigenvalue {np.min(w):.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
