import numpy as np
import pytest


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
