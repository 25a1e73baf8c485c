"""Two-qubit circuit blocks for the feedback energy-extraction protocol.

This module is the only description of the preparation circuit: the
state-vector kernel `kets` applies its blocks' factors to kets, and
every state, table and fit model of the protocol is read from those.

The native set is single-qubit rotations R(theta, phi) about axes in the
XY plane and the entangling phase gate U_ZZ = exp[-i (pi/8) Z(x)Z]. A
composite controlled-Z pi/2 block is two U_ZZ gates with a simultaneous
X(x)X echo in between. Three such blocks appear in the circuit (one in
the Bell preparation, two inside the parametric controlled-Y); each may
carry a coherent phase deviation delta_phi relative to its preset pi/2
two-qubit phase. The three deviations are plain numbers, a length-3
sequence or an (m, 3) array of m candidates, checked by `deviations`.

Every block takes scalar angles or arrays of angles; array arguments
broadcast against each other and give an (..., 4, 4) stack whose items
equal the scalar calls bit for bit; `kets` relies on that to build each
block for all rows of deviations in one call.

Angle convention for the controlled-Y: cy(theta) acts as exp[-i theta Y]
on the agent when the demon is in |0>, so that cy(theta) applied to the
odd-parity Bell state yields amplitudes (-sin(theta), 1, cos(theta), 0)/sqrt(2)
in the (|00>, |01>, |10>, |11>) basis.
"""

from __future__ import annotations

import numpy as np

from .qlin import ID2, PAULI_X, PAULI_Y, dag, kron

_XX = kron(PAULI_X, PAULI_X)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_RZ = np.diag(np.exp([0.25j * np.pi, -0.25j * np.pi]))  # Rz(-pi/2)
_RZRZ = kron(_RZ, _RZ)
PLANTED_DELTA_PHI = tuple(d * np.pi / 2 for d in (0.009, 0.068, 0.165))  # as fitted in the paper


def deviations(delta_phi) -> np.ndarray:
    """(m, 3) float rows of three deviations, from a length-3 sequence or an (m, 3) array.

    Each deviation must satisfy |delta_phi| < pi/2, which NaN does not.
    """
    rows = np.atleast_2d(np.asarray(delta_phi, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError("delta_phi must have exactly three entries")
    bad = rows[~(np.abs(rows) < np.pi / 2)]
    if bad.size:
        raise ValueError(f"|delta_phi| must be < pi/2, got {bad[0]}")
    return rows


def in_range(values, name: str, high: float, shown: str) -> np.ndarray:
    """`values` as a float array; each must lie in [0, high], printed as `shown`."""
    values = np.asarray(values, dtype=float)
    bad = values[~((values >= 0.0) & (values <= high))]
    if bad.size:
        raise ValueError(f"{name} must lie in [0, {shown}], got {bad[0]}")
    return values


def local_rot(theta, phi, target: str) -> np.ndarray:
    """exp[-i (theta/2) (cos(phi) X + sin(phi) Y)] on the agent ("A") or the demon ("D")."""
    if target not in ("A", "D"):
        raise ValueError(f"target must be 'A' or 'D', got {target!r}")
    theta, phi = (np.asarray(x, dtype=float)[..., None, None] for x in (theta, phi))
    axis = np.cos(phi) * PAULI_X + np.sin(phi) * PAULI_Y
    u2 = np.cos(theta / 2) * ID2 - 1j * np.sin(theta / 2) * axis
    return kron(u2, ID2) if target == "A" else kron(ID2, u2)


_H_A = kron(_HADAMARD, ID2)
_BELL_OPEN = local_rot(np.pi / 2, np.pi / 2, "A") @ local_rot(np.pi / 2, np.pi / 2, "D")
_BELL_CLOSE = local_rot(np.pi / 2, np.pi, "A")


def u_zz(delta_phi=0.0) -> np.ndarray:
    """exp[-i (pi/8 + delta_phi/4) Z(x)Z]; half of a controlled-Z pi/2 block."""
    angle = np.pi / 8 + np.asarray(delta_phi, dtype=float)[..., None] / 4
    zz = np.array([1, -1, -1, 1])
    diag = np.exp(-1j * angle * zz)
    out = np.zeros(diag.shape + (4,), dtype=complex)
    out[..., range(4), range(4)] = diag
    return out


def cz_half(delta_phi=0.0) -> np.ndarray:
    """Controlled-Z pi/2 block: u_zz . (X(x)X) . u_zz . (X(x)X).

    Total two-qubit phase is pi/2 + delta_phi; the deviation is split
    evenly over the two u_zz halves (the split is unobservable at the
    composite level since the halves commute).
    """
    half = u_zz(delta_phi)
    return half @ _XX @ half @ _XX


def _cnot_d_to_a(delta_phi) -> np.ndarray:
    """CNOT with demon control and agent target, built from one cz_half block."""
    cz = _RZRZ @ cz_half(delta_phi)
    cz = np.exp(-1j * np.pi / 4) * cz  # fixes cz to diag(1,1,1,-1) at zero noise
    return _H_A @ cz @ _H_A


def bell_prep(delta_phi=0.0) -> np.ndarray:
    """Preparation block mapping |00> to the odd-parity Bell state.

    Simultaneous pi/2 rotations about Y on both qubits, one controlled-Z
    pi/2 block (deviation delta_phi_1), and a closing pi/2 rotation about
    -X on the agent. With zero noise the output on |00> is
    (|01> + |10>)/sqrt(2) up to a global phase.
    """
    return _BELL_CLOSE @ cz_half(delta_phi) @ _BELL_OPEN


def cy(theta, delta_phi_2=0.0, delta_phi_3=0.0) -> np.ndarray:
    """Parametric controlled-Y, decomposed around cz_half blocks 2 and 3.

    Decomposition: CNOT(slot 3) . Ry_A(theta) . CNOT(slot 2) . Ry_A(theta),
    with the CNOTs (demon control) flipping the sign of the second agent
    rotation on the |1_D> branch so the two halves cancel there.
    """
    ry_half = local_rot(theta, np.pi / 2, "A")
    return _cnot_d_to_a(delta_phi_3) @ ry_half @ _cnot_d_to_a(delta_phi_2) @ ry_half


def kets(delta_phi, thetas) -> np.ndarray:
    """(m, n, 4) circuit output on |00> for m rows of deviations and n angles.

    `delta_phi` is a length-3 sequence (m = 1) or an (m, 3) array. Column 0
    of bell_prep, then the four factors of cy applied to the state vectors,
    so no (m, n, 4, 4) product is formed: one chain per row, with each
    block built for all rows in one call (both CNOTs in one).
    Each angle must lie in [0, pi/2] and the deviations pass `deviations`:
    every state, table and fit model is checked here.
    """
    rows = deviations(delta_phi)
    ry_half = local_rot(in_range(thetas, "theta", np.pi / 2, "pi/2"), np.pi / 2, "A")
    cnot2, cnot3 = _cnot_d_to_a(rows[:, 1:].T)[:, :, None]  # slot 2's and slot 3's, (m, 1, 4, 4)
    s = ry_half @ bell_prep(rows[:, 0])[:, None, :, :1]  # (m, n, 4, 1) columns
    return (cnot3 @ (ry_half @ (cnot2 @ s)))[..., 0]


def apply(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Conjugate a density matrix by a unitary: U rho U^dag."""
    m = np.asarray(u, dtype=complex)
    return m @ rho @ dag(m)
