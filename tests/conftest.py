import numpy as np
import pytest

from demongain import qlin
from demongain.tomography import _clamped_sqrt


def random_density(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


# Closed-form oracles of the circuit, checked against the program's paths.

ID4 = np.eye(4, dtype=complex)


def resource_ket(theta: float) -> np.ndarray:
    """Ideal resource state amplitudes in the (|00>,|01>,|10>,|11>) basis."""
    return np.array([-np.sin(theta), 1.0, np.cos(theta), 0.0], dtype=complex) / np.sqrt(2)


def cy_exact(theta: float) -> np.ndarray:
    """Closed-form controlled-Y: exp[-i theta Y_A] on the agent iff demon in |0>."""
    ry = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    return np.kron(ry, np.diag([1, 0])) + np.kron(np.eye(2), np.diag([0, 1]))


def wootters_concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Dense Wootters concurrence of a (4, 4) matrix or (..., 4, 4) stack.

    sqrt(rho) and rho~ = (Y(x)Y) rho* (Y(x)Y) are composed as matrices and
    their product sqrt(rho) rho~ sqrt(rho) decomposed a second time, with
    the clamping and snapping of tomography.concurrence.
    """

    def compose(v, w):
        return (v * w[..., None, :]) @ qlin.dag(v)

    yy = qlin.kron(qlin.PAULI_Y, qlin.PAULI_Y)
    w, v = qlin.eig_hermitian(rho)
    w = np.clip(w, 0.0, None)
    rho_tilde = yy @ compose(v, w).conj() @ yy
    sq = compose(v, _clamped_sqrt(w))
    m = sq @ rho_tilde @ sq
    wm, _ = qlin.eig_hermitian((m + qlin.dag(m)) / 2)
    lam = _clamped_sqrt(wm)
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c) if c.ndim == 0 else c
