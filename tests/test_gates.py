from itertools import product

import numpy as np
import pytest

from demongain import gates, noisefit, protocol
from demongain.gates import (
    PLANTED_DELTA_PHI, apply, bell_prep, cy, cz_half, deviations, kets, local_rot, u_zz,
)
from demongain.noisefit import _GRID
from demongain.protocol import CONDITIONAL_SWAP, ProtocolConfig
from demongain.qlin import ID2, PAULI_X, PAULI_Y, kron

from conftest import cy_exact, haar_unitary, random_density

BELL = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
SWAP = CONDITIONAL_SWAP[0]


def max_abs_after_phase(u, v):
    """Max-abs difference after aligning global phase on the largest entry."""
    k = np.argmax(np.abs(v))
    return np.max(np.abs(u - (u.flat[k] / v.flat[k]) * v))


def test_deviations_validation():
    with pytest.raises(ValueError, match="^delta_phi must have exactly three entries$"):
        deviations((0.0, 0.0))
    with pytest.raises(ValueError, match=r"^\|delta_phi\| must be < pi/2, got 1.5707963267948966$"):
        deviations((np.pi / 2, 0.0, 0.0))
    with pytest.raises(ValueError, match="^delta_phi must have exactly three entries$"):
        deviations(np.zeros((2, 1, 3)))
    rows = np.array([[0.1, -0.0, 0.2], [-1.5, 1.5, 0.0]])
    assert deviations(rows).tobytes() == rows.tobytes()
    assert deviations([0.1, -0.0, 0.2]).tobytes() == rows[:1].tobytes()


# Every entry point that reads deviations refuses a bad one with the
# message of gates.deviations, raised where gates.kets reads them.
_THETAS = np.linspace(0, np.pi / 2, 5)
_TABLE = protocol.outcome_table_exact(_THETAS, (0.0, 0.0, 0.0))
_ENTRY_POINTS = {
    "kets": lambda d: kets(d, _THETAS),
    "model_cells": lambda d: noisefit.model_cells(d, _THETAS),
    "residual": lambda d: noisefit.residual(d, _TABLE),
    "outcome_table_exact": lambda d: protocol.outcome_table_exact(_THETAS, d),
    "run_shots": lambda d: protocol.run_shots(_THETAS, d, 10, 0),
    "prepare_resource": lambda d: protocol.prepare_resource(ProtocolConfig(_THETAS, d)),
    "fit init": lambda d: noisefit.fit(_TABLE, init=d),
}
_BAD = {
    "two entries": ((0.1, 0.2), "^delta_phi must have exactly three entries$"),
    "+pi/2": ((np.pi / 2, 0.0, 0.0), r"^\|delta_phi\| must be < pi/2, got 1.5707963267948966$"),
    "-pi/2": ((0.0, -np.pi / 2, 0.0), r"^\|delta_phi\| must be < pi/2, got -1.5707963267948966$"),
    "NaN": ((0.0, 0.0, np.nan), r"^\|delta_phi\| must be < pi/2, got nan$"),
}


@pytest.mark.parametrize("bad", _BAD)
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_every_entry_point_refuses_bad_deviations(entry, bad):
    value, message = _BAD[bad]
    with pytest.raises(ValueError, match=message):
        _ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", [e for e in _ENTRY_POINTS if e not in ("kets", "model_cells")])
def test_one_triple_entry_points_refuse_a_stack(entry):
    # kets and model_cells take (m, 3) candidates; the others one triple
    with pytest.raises(ValueError, match="^delta_phi must have exactly three entries$"):
        _ENTRY_POINTS[entry](np.zeros((2, 3)))


class TestLocalRot:
    def test_pi_about_x_is_pauli(self):
        u = local_rot(np.pi, 0.0, "A")
        assert np.allclose(u, -1j * kron(PAULI_X, ID2))

    def test_zero_angle_identity(self):
        for phi in (0.0, 1.0, 2.5):
            assert np.allclose(local_rot(0.0, phi, "D"), np.eye(4))

    def test_half_pi_about_y_superposes(self):
        u = local_rot(np.pi / 2, np.pi / 2, "A")
        out = u @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(out, np.array([1, 0, 1, 0]) / np.sqrt(2))

    def test_rejects_other_targets(self):
        with pytest.raises(ValueError, match=r"^target must be 'A' or 'D', got 'B'$"):
            local_rot(0.1, 0.0, "B")


class TestUzz:
    def test_ideal_diagonal(self):
        expect = np.diag(np.exp(-1j * np.pi / 8 * np.array([1, -1, -1, 1])))
        assert np.allclose(u_zz(), expect)

    def test_composition_doubles_angle(self):
        u = u_zz()
        expect = np.diag(np.exp(-1j * np.pi / 4 * np.array([1, -1, -1, 1])))
        assert np.allclose(u @ u, expect)

    def test_unitary_for_any_deviation(self, rng):
        for d in rng.uniform(-1, 1, 5):
            u = u_zz(d)
            assert np.allclose(u.conj().T @ u, np.eye(4))


class TestCzHalf:
    def test_ideal_equals_quarter_zz(self):
        expect = np.diag(np.exp(-1j * np.pi / 4 * np.array([1, -1, -1, 1])))
        assert np.allclose(cz_half(), expect, atol=1e-12)

    def test_half_pi_deviation_doubles_phase(self):
        got = cz_half(np.pi / 2 - 1e-9)
        expect = np.diag(np.exp(-1j * np.pi / 2 * np.array([1, -1, -1, 1])))
        assert np.max(np.abs(got - expect)) < 1e-8


class TestBellPrep:
    def test_maps_vacuum_to_odd_bell(self):
        psi = bell_prep() @ np.array([1, 0, 0, 0], dtype=complex)
        assert abs(np.vdot(BELL, psi)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_output_concurrence_is_one(self):
        from demongain.tomography import concurrence

        psi = bell_prep() @ np.array([1, 0, 0, 0], dtype=complex)
        assert concurrence(np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-10)

    def test_noisy_fidelity_regression(self):
        # frozen output of this simulator at the largest paper deviation
        psi = bell_prep(0.165 * np.pi / 2) @ np.array([1, 0, 0, 0], dtype=complex)
        fid = abs(np.vdot(BELL, psi)) ** 2
        assert fid < 1.0
        assert fid == pytest.approx(0.9833000510084537, abs=1e-12)


class TestControlledY:
    def test_zero_angle_identity(self):
        assert max_abs_after_phase(cy(0.0), np.eye(4)) < 1e-12

    @pytest.mark.parametrize("theta", np.arange(0, np.pi / 2 + 1e-9, np.pi / 8))
    def test_matches_closed_form(self, theta):
        assert max_abs_after_phase(cy(theta), cy_exact(theta)) <= 1e-9

    def test_bell_to_resource_state(self):
        th = 1.1
        psi = cy(th) @ BELL
        expect = np.array([-np.sin(th), 1, np.cos(th), 0], dtype=complex) / np.sqrt(2)
        assert max_abs_after_phase(psi.reshape(4, 1), expect.reshape(4, 1)) < 1e-12

    def test_demon_zero_block_rotation(self):
        # on the demon-|0> block cy(theta) acts as exp[-i theta Y_A]
        th = 0.9
        u = cy(th)
        block = u[np.ix_([0, 2], [0, 2])]
        ry = np.cos(th) * ID2 - 1j * np.sin(th) * PAULI_Y
        assert np.max(np.abs(block - ry)) < 1e-12
        assert np.max(np.abs(u[np.ix_([1, 3], [1, 3])] - ID2)) < 1e-12


class TestSwap:
    def test_exchanges_basis_states(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1  # |0_A 1_D>
        out = SWAP @ v
        assert out[2] == 1  # |1_A 0_D>

    def test_involution(self):
        assert np.allclose(SWAP @ SWAP, np.eye(4))

    def test_conjugation_swaps_factors(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(SWAP @ kron(a, b) @ SWAP.conj().T, kron(b, a))

    def test_bits_equal_the_literal(self):
        literal = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        expected = np.array([literal, np.eye(4, dtype=complex)])
        assert CONDITIONAL_SWAP.dtype == expected.dtype and CONDITIONAL_SWAP.shape == (2, 4, 4)
        assert CONDITIONAL_SWAP.tobytes() == expected.tobytes()


class TestApply:
    def test_identity(self, rng):
        rho = random_density(rng)
        assert np.allclose(apply(np.eye(4, dtype=complex), rho), rho)

    def test_bell_state_swap_invariant(self):
        rho = np.outer(BELL, BELL.conj())
        assert np.allclose(apply(SWAP, rho), rho)

    def test_preserves_trace_spectrum_purity(self, rng):
        rho = random_density(rng)
        u = kron(haar_unitary(rng), haar_unitary(rng))
        out = apply(u, rho)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(out)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-12
        )


def test_zero_noise_gates_equal_ideal():
    assert np.array_equal(cz_half(0.0), cz_half())
    assert np.array_equal(bell_prep(0.0), bell_prep())
    assert np.array_equal(cy(0.4, 0.0, 0.0), cy(0.4))


def test_all_gates_unitary_under_noise():
    for u in (
        bell_prep(PLANTED_DELTA_PHI[0]),
        cy(0.7, *PLANTED_DELTA_PHI[1:]),
        cz_half(PLANTED_DELTA_PHI[2]),
        SWAP,
        local_rot(1.2, 0.3, "D"),
    ):
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10


class TestBatched:
    """Array arguments give stacks whose items equal the scalar calls exactly."""

    def test_blocks_equal_per_item_calls(self, rng):
        th = rng.uniform(0, np.pi / 2, 40)
        d = rng.uniform(-0.7, 0.7, (40, 3))
        stacks = {
            "u_zz": (u_zz(d[:, 0]), lambda i: u_zz(d[i, 0])),
            "cz_half": (cz_half(d[:, 1]), lambda i: cz_half(d[i, 1])),
            "bell_prep": (bell_prep(d[:, 2]), lambda i: bell_prep(d[i, 2])),
            "cy": (cy(th, d[:, 1], d[:, 2]), lambda i: cy(th[i], d[i, 1], d[i, 2])),
            "local_rot": (local_rot(th, d[:, 0], "D"), lambda i: local_rot(th[i], d[i, 0], "D")),
        }
        for name, (stack, item) in stacks.items():
            assert stack.shape == (40, 4, 4), name
            for i in range(40):
                assert np.array_equal(stack[i], item(i)), (name, i)

    def test_angles_broadcast(self):
        assert cy(np.zeros((2, 1)), np.zeros(3)).shape == (2, 3, 4, 4)

    def test_kron_of_stacks(self, rng):
        a = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        b = rng.normal(size=(2, 2))
        got = kron(a, b)
        assert got.shape == (3, 4, 4)
        for i in range(3):
            assert np.array_equal(got[i], np.kron(a[i], b))

    def test_kets_match_block_product(self, rng):
        params = rng.uniform(-0.4, 0.4, (5, 3))
        thetas = np.linspace(0, np.pi / 2, 7)
        got = kets(params, thetas)
        assert got.shape == (5, 7, 4)
        for m, (d1, d2, d3) in enumerate(params):
            for n, th in enumerate(thetas):
                ref = cy(th, d2, d3) @ bell_prep(d1)[:, 0]
                assert np.max(np.abs(got[m, n] - ref)) < 1e-14

    def test_kets_equal_per_row_calls(self, rng):
        # the fit's candidate shapes: the seed grid, linearization stars
        # x, x +- h e_k, and the repeated rows of a first lockstep round;
        # then rows that share only a prefix, which kets evaluates once
        def stars(xs):
            return np.concatenate([[x, *(x + s * 1e-6 * e for e in np.eye(3) for s in (1, -1))]
                                   for x in xs])

        one_star = stars(rng.uniform(-0.3, 0.3, (1, 3)))
        # 3 x 5 x 2 distinct phases: the pair key i1 * 5 + i2 is unique only
        # when it scales slot 1's index by slot 2's count
        product_grid = np.array(list(product(*(rng.uniform(-0.3, 0.3, k) for k in (3, 5, 2)))))
        cases = {
            "grid": _GRID,
            "one star": one_star,
            "20 stars": stars(rng.uniform(-0.3, 0.3, (20, 3))),
            "20 identical stars": np.tile(one_star, (20, 1)),
            "signed zeros": np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.1, -0.0, 0.0]]),
            "random": rng.uniform(-0.7, 0.7, (50, 3)),
            "equal dphi_2 under other dphi_1": np.array(
                [[0.1, 0.3, 0.05], [0.2, 0.3, 0.05], [0.2, 0.3, -0.1], [0.1, -0.2, 0.05]]),
            "equal (dphi_1, dphi_2) under other dphi_3": np.array(
                [[0.1, 0.3, -0.2], [0.1, 0.3, 0.0], [0.2, 0.3, 0.0], [0.1, 0.3, 0.4]]),
            "3x5x2 product grid": product_grid,
            "3x5x2 product grid, shuffled": rng.permutation(product_grid),
        }
        thetas = np.linspace(0, np.pi / 2, 17)
        for name, params in cases.items():
            rows = np.array([kets(p[None], thetas)[0] for p in params])
            assert np.array_equal(kets(params, thetas), rows), name
            assert kets(params, []).shape == (len(params), 0, 4), name
        assert kets(np.empty((0, 3)), thetas).shape == (0, 17, 4)

    def test_kets_build_each_block_in_one_call(self, monkeypatch):
        seen = {"bell_prep": [], "_cnot_d_to_a": []}

        def counted(block, calls):
            def build(delta_phi):
                calls.append(delta_phi)
                return block(delta_phi)
            return build

        for name, calls in seen.items():
            monkeypatch.setattr(gates, name, counted(getattr(gates, name), calls))
        # the seed grid, and a grid whose slots hold 3, 5 and 2 other phases
        axes = (0.01 * np.arange(1, 4), 0.1 + 0.01 * np.arange(5), 0.2 + 0.01 * np.arange(2))
        for grid in (_GRID, np.array(list(product(*axes)))):
            for calls in seen.values():
                calls.clear()
            kets(grid, np.linspace(0, np.pi / 2, 17))
            # one bell_prep on slot 1's column, one CNOT stack of slot 2's and slot 3's columns
            assert [d.tolist() for d in seen["bell_prep"]] == [grid[:, 0].tolist()]
            assert [d.tolist() for d in seen["_cnot_d_to_a"]] == [grid[:, 1:].T.tolist()]
