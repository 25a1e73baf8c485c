import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demongain import qlin
from demongain.qlin import ID2, PAULI_X, PAULI_Y, eig_hermitian, kron, partial_trace

from conftest import random_density


def _rand_c22(rng):
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(ID2, ID2), np.eye(4))

    def test_sigma_y_pair(self):
        # anti-diagonal (-1, 1, 1, -1) read from top-right to bottom-left
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[3, 0] = -1
        expected[1, 2] = expected[2, 1] = 1
        assert np.allclose(kron(PAULI_Y, PAULI_Y), expected)

    def test_brute_force_index_formula(self, rng):
        a, b = _rand_c22(rng), _rand_c22(rng)
        k = kron(a, b)
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    for m in range(2):
                        assert k[2 * i + j, 2 * l + m] == pytest.approx(a[i, l] * b[j, m])

    def test_projector_embedding(self):
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        assert np.allclose(kron(p1, ID2), np.diag([0, 0, 1, 1]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            kron(np.eye(4), np.eye(2))

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_mixed_product_rule(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = (_rand_c22(rng) for _ in range(4))
        assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d))


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(partial_trace(rho, "D"), ID2 / 2)
        assert np.allclose(partial_trace(rho, "A"), ID2 / 2)

    def test_product_state_factorizes(self, rng):
        # keep names the subsystem that is kept
        a, b = random_density(rng)[:2, :2], random_density(rng)[:2, :2]
        a, b = a / np.trace(a), b / np.trace(b)
        assert np.allclose(partial_trace(kron(a, b), "A"), a)
        assert np.allclose(partial_trace(kron(a, b), "D"), b)

    def test_resource_state_marginals(self):
        # amplitudes (-sin, 1, cos, 0)/sqrt(2) at theta = pi/3: demon marginal
        # is balanced for every theta, agent marginal is diag(7/8, 1/8)
        th = np.pi / 3
        psi = np.array([-np.sin(th), 1, np.cos(th), 0], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(np.diag(partial_trace(rho, "D")).real, [0.5, 0.5])
        assert np.allclose(np.diag(partial_trace(rho, "A")).real, [7 / 8, 1 / 8])

    @pytest.mark.parametrize("keep", ["A", "D"])
    def test_stack_matches_single(self, rng, keep):
        stack = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
        got = partial_trace(stack, keep)
        assert got.shape == (2, 3, 2, 2)
        for i in range(2):
            for j in range(3):
                assert got[i, j].tobytes() == partial_trace(stack[i, j], keep).tobytes()

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_trace_out_scales_by_trace(self, seed):
        rng = np.random.default_rng(seed)
        a, b = _rand_c22(rng), _rand_c22(rng)
        assert np.allclose(partial_trace(kron(a, b), "D"), b * np.trace(a), atol=1e-12)
        assert np.allclose(partial_trace(kron(a, b), "A"), a * np.trace(b), atol=1e-12)


class TestHermitian:
    DIAG = np.arange(4)

    def test_exact_stack_comes_back_equal(self, rng):
        # only -0.0 imaginary diagonal parts change, to +0.0
        h = np.array([random_density(rng) for _ in range(6)])
        h.imag[:, self.DIAG, self.DIAG] = np.where(np.arange(4) % 2, -0.0, 0.0)
        assert np.array_equal(h, qlin.dag(h))
        want = h.copy()
        want.imag[:, self.DIAG, self.DIAG] = 0.0
        assert qlin.hermitian(h).tobytes() == want.tobytes()

    def test_near_hermitian_stack_is_symmetrized(self, rng):
        h = np.array([random_density(rng) for _ in range(6)])
        h[2, 1, 0] += 1e-12
        h[4, 3, 2] -= 1e-12j
        got = qlin.hermitian(h)
        assert np.array_equal(got, qlin.dag(got)) and not np.array_equal(got, h)
        swap = lambda x: x.swapaxes(-1, -2)
        assert got.real.tobytes() == ((h.real + swap(h.real)) / 2).tobytes()
        assert got.imag.tobytes() == ((h.imag - swap(h.imag)) / 2).tobytes()

    def test_keeps_the_sign_of_zero_real_parts(self):
        # (m + m^dag) / 2 in complex arithmetic turns some -0.0 real parts
        # into +0.0, in either triangle, depending on the imaginary part's sign
        h = np.eye(4, dtype=complex)
        for (i, j), y in {(1, 0): 1.0, (2, 0): -1.0, (3, 1): 0.0, (3, 2): -0.0}.items():
            h[i, j], h[j, i] = complex(-0.0, y), complex(-0.0, -y)
        got = qlin.hermitian(h)
        assert got.real.tobytes() == h.real.tobytes()
        assert np.signbit(got.real).sum() == 8
        got, want = eig_hermitian(h), np.linalg.eigh(h)
        assert got[0].tobytes() == want[0][::-1].tobytes()
        assert got[1].tobytes() == want[1][:, ::-1].tobytes()

    @pytest.mark.parametrize("dev", [1e-9, np.nan])
    def test_rejects_deviation_and_nan(self, rng, dev):
        h = np.array([random_density(rng) for _ in range(3)])
        h[1, 0, 2] += dev
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max \|h - h\^dag\| = "):
            qlin.hermitian(h)

    def test_tolerance_is_inclusive(self):
        h = np.eye(4, dtype=complex)
        h[0, 1] = qlin.HERMITICITY_TOL
        assert np.array_equal(qlin.hermitian(h)[0, 1], qlin.HERMITICITY_TOL / 2)

    def test_empty_stack_passes(self):
        assert qlin.hermitian(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            qlin.hermitian(np.ones((4, 3)))


class TestEigHermitian:
    def test_diagonal(self):
        w, _ = eig_hermitian(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        assert np.allclose(w, [0.5, 0.5, 0, 0])

    def test_pauli_spectrum(self):
        w, _ = eig_hermitian(kron(PAULI_X, ID2))
        assert np.allclose(w, [1, 1, -1, -1])

    def test_bell_spin_flip_product(self):
        psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        yy = kron(PAULI_Y, PAULI_Y)
        rho_tilde = yy @ rho.conj() @ yy
        # a pure state's projector is its own square root
        w, _ = eig_hermitian(rho @ rho_tilde @ rho)
        assert np.allclose(w, [1, 0, 0, 0], atol=1e-10)

    def test_reconstruction(self, rng):
        h = random_density(rng)
        w, v = eig_hermitian(h)
        assert np.max(np.abs(h - (v * w) @ v.conj().T)) <= 1e-10

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(m)

    def test_stack_matches_single(self, rng):
        stack = np.array([random_density(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        w, v = eig_hermitian(stack)
        assert w.shape == (2, 3, 4) and v.shape == (2, 3, 4, 4)
        for i in range(2):
            for j in range(3):
                wi, vi = eig_hermitian(stack[i, j])
                assert np.array_equal(w[i, j], wi) and np.array_equal(v[i, j], vi)

    def test_rejects_non_hermitian_stack_member(self, rng):
        stack = np.array([random_density(rng) for _ in range(5)])
        stack[2, 1, 3] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(stack)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.full((4, 4), np.nan))

    def test_exact_stack_decomposes_as_given_bit_for_bit(self, rng):
        # qlin.hermitian of an exactly Hermitian stack changes only its -0.0
        # imaginary diagonal parts, which zheevd does not read; so
        # eig_hermitian decomposes h as it is
        h = np.array([random_density(rng) for _ in range(6)])
        diag = np.arange(4)
        h.imag[:, diag, diag] = -0.0
        assert np.array_equal(h, qlin.dag(h)) and np.signbit(h.imag[:, diag, diag]).all()
        w, v = np.linalg.eigh((h + qlin.dag(h)) / 2)
        got = eig_hermitian(h)
        assert got[0].tobytes() == w[..., ::-1].tobytes() and got[1].tobytes() == v[..., ::-1].tobytes()
        w, v = np.linalg.eigh(h)
        assert got[0].tobytes() == w[..., ::-1].tobytes() and got[1].tobytes() == v[..., ::-1].tobytes()

    def test_empty_stack(self):
        w, v = eig_hermitian(np.zeros((0, 4, 4)))
        assert w.shape == (0, 4) and v.shape == (0, 4, 4)

    def test_near_hermitian_stack_is_symmetrized(self, rng):
        h = np.array([random_density(rng) for _ in range(6)])
        h[2, 1, 0] += 1e-12  # eigh reads the lower triangle
        w, v = np.linalg.eigh((h + qlin.dag(h)) / 2)
        got = eig_hermitian(h)
        assert got[0].tobytes() == w[..., ::-1].tobytes() and got[1].tobytes() == v[..., ::-1].tobytes()
        assert got[1].tobytes() != np.linalg.eigh(h)[1][..., ::-1].tobytes()

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_density_eigenvalues_sum_to_one(self, seed):
        rho = random_density(np.random.default_rng(seed))
        w, _ = eig_hermitian(rho)
        assert abs(w.sum() - 1.0) <= 1e-10


def test_adjoint_round_trip(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(qlin.dag(qlin.dag(m)), m)
