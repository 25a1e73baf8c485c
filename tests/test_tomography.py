"""Tests for nine-setting tomography, concurrence, and the bootstrap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demongain import tomography as tg
from demongain.gates import bell_prep
from demongain.protocol import prepare_resource, ProtocolConfig, analytic_concurrence
from demongain.qlin import ID2, ID4, PAULI_X, PAULI_Y, PAULI_Z, kron
from demongain.tomography import (
    bootstrap,
    concurrence,
    exact_moment_probs,
    fit_c0,
    linear_inversion,
    purity,
    read_counts_csv,
    setting_probs,
    simulate_setting,
    simulate_tomogram_counts,
    tomography_study,
    write_counts_csv,
)

from conftest import random_density, haar_unitary

BELL = prepare_resource(ProtocolConfig(theta=0.0))


class TestSettingProbs:
    def test_bell_zz_perfectly_correlated(self):
        # [TRIVIAL] Psi+ = (|01> + |10>)/sqrt(2): Z outcomes anti-aligned
        p = setting_probs(BELL, ("Z", "Z"))
        assert np.allclose(p, [0.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_bell_xx_correlated(self):
        # [DERIVED] <X X> = +1 on Psi+, so outcomes (++, --) each 1/2
        p = setting_probs(BELL, ("X", "X"))
        assert np.allclose(p, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_maximally_mixed_uniform(self):
        for s in tg.ALL_SETTINGS:
            assert np.allclose(setting_probs(ID4 / 4, s), 0.25, atol=1e-12)

    def test_zz_sign_convention(self):
        # [TRIVIAL] |0> is "+": <Z> = Pr(0) - Pr(1) = +1 on |00>
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert np.allclose(setting_probs(rho, ("Z", "Z")), [1, 0, 0, 0])


class TestLinearInversion:
    def test_exact_probs_recover_state(self, rng):
        # [DERIVED] infinite-shot inversion is exact
        for _ in range(20):
            rho = random_density(rng)
            rho_hat = linear_inversion(exact_moment_probs(rho))
            assert np.max(np.abs(rho_hat - rho)) < 1e-12

    def test_resource_states_recovered(self):
        for theta in np.linspace(0, np.pi / 2, 9):
            rho = prepare_resource(ProtocolConfig(theta=float(theta)))
            rho_hat = linear_inversion(exact_moment_probs(rho))
            assert np.max(np.abs(rho_hat - rho)) < 1e-12

    def test_accepts_counts(self):
        counts = simulate_tomogram_counts(BELL, shots=200, seed=7)
        rho_hat = linear_inversion(counts)
        assert abs(np.trace(rho_hat) - 1.0) < 1e-12
        assert np.allclose(rho_hat, rho_hat.conj().T)

    def test_finite_shots_can_be_unphysical(self):
        # Small-shot inversions routinely leave the PSD cone.
        found_negative = False
        found_purity_above_one = False
        for seed in range(30):
            rho_hat = linear_inversion(simulate_tomogram_counts(BELL, 50, seed))
            w = np.linalg.eigvalsh(rho_hat)
            found_negative |= w.min() < -1e-6
            found_purity_above_one |= purity(rho_hat) > 1.0
        assert found_negative and found_purity_above_one

    def test_missing_setting_rejected(self):
        probs = exact_moment_probs(BELL)
        del probs[("X", "Y")]
        with pytest.raises(ValueError, match="missing"):
            linear_inversion(probs)

    def test_bad_shape_rejected(self):
        probs = exact_moment_probs(BELL)
        probs[("X", "Y")] = np.ones(3)
        with pytest.raises(ValueError, match="4 outcome"):
            linear_inversion(probs)

    def test_all_zero_setting_rejected(self):
        counts = simulate_tomogram_counts(BELL, 100, seed=7)
        counts[("X", "Y")] = np.zeros(4)
        with pytest.raises(ValueError, match=r"setting \('X', 'Y'\) has no counts"):
            linear_inversion(counts)

    def test_negative_counts_rejected(self):
        counts = simulate_tomogram_counts(BELL, 100, seed=7)
        counts[("Z", "X")] = np.array([60, -10, 30, 20])
        with pytest.raises(ValueError, match=r"setting \('Z', 'X'\) has negative"):
            linear_inversion(counts)

    def test_bad_member_of_stack_rejected(self):
        stack = np.ones((5, 9, 4))
        stack[3, 4, 2] = -1.0
        with pytest.raises(ValueError, match=r"setting \('Y', 'Y'\) has negative"):
            linear_inversion(stack)
        stack[3, 4] = 0.0
        with pytest.raises(ValueError, match=r"setting \('Y', 'Y'\) has no counts"):
            linear_inversion(stack)

    def test_array_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(\.\.\., 9, 4\)"):
            linear_inversion(np.ones((8, 4)))

    def test_dict_and_array_inputs_agree(self):
        counts = simulate_tomogram_counts(BELL, 100, seed=7)
        stacked = np.array([counts[s] for s in tg.ALL_SETTINGS])
        assert np.array_equal(linear_inversion(counts), linear_inversion(stacked))


class TestConcurrence:
    def test_bell_state_one(self):
        assert concurrence(BELL) == pytest.approx(1.0, abs=1e-10)

    def test_separable_zero(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_zero(self):
        assert concurrence(ID4 / 4) == pytest.approx(0.0, abs=1e-12)

    def test_resource_state_pi_third(self):
        # [DERIVED] C(theta) = cos(theta): C(pi/3) = 1/2
        rho = prepare_resource(ProtocolConfig(theta=np.pi / 3))
        assert concurrence(rho) == pytest.approx(0.5, abs=1e-10)

    def test_cosine_law_fine_grid(self):
        for theta in np.linspace(0, np.pi / 2, 33):
            rho = prepare_resource(ProtocolConfig(theta=float(theta)))
            assert concurrence(rho) == pytest.approx(
                analytic_concurrence(float(theta)), abs=1e-10
            )

    def test_local_unitary_invariance(self, rng):
        rho = prepare_resource(ProtocolConfig(theta=np.pi / 5))
        c_ref = concurrence(rho)
        for _ in range(25):
            u = kron(haar_unitary(rng), haar_unitary(rng))
            assert concurrence(u @ rho @ u.conj().T) == pytest.approx(c_ref, abs=1e-9)

    def test_tolerates_linear_inversion_output(self):
        rho_hat = linear_inversion(simulate_tomogram_counts(BELL, 100, seed=3))
        c = concurrence(rho_hat)
        assert 0.0 <= c <= 1.0 + 1e-9

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            concurrence(m)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_bounded_on_random_states(self, seed):
        rho = random_density(np.random.default_rng(seed))
        assert -1e-12 <= concurrence(rho) <= 1.0 + 1e-9


class TestPurity:
    def test_pure_state_one(self):
        assert purity(BELL) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        assert purity(ID4 / 4) == pytest.approx(0.25, abs=1e-12)

    def test_raw_not_clamped(self):
        # purity operates on the raw inversion, eigenvalues and all
        rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        assert purity(rho) == pytest.approx(1.1**2 + 0.01, abs=1e-12)


class TestStackedKernels:
    """A stack of R items gives what R single-item calls give."""

    @pytest.fixture
    def counts(self):
        rho = prepare_resource(ProtocolConfig(theta=np.pi / 5))
        return np.array([
            [simulate_tomogram_counts(rho, 80, seed)[s] for s in tg.ALL_SETTINGS]
            for seed in range(40)
        ])

    def test_linear_inversion(self, counts):
        stacked = linear_inversion(counts)
        assert stacked.shape == (40, 4, 4)
        single = np.array([linear_inversion(c) for c in counts])
        assert np.max(np.abs(stacked - single)) <= 1e-14

    def test_concurrence_and_purity(self, counts):
        rhos = linear_inversion(counts)
        for f in (concurrence, purity):
            stacked = f(rhos)
            assert stacked.shape == (40,)
            assert np.max(np.abs(stacked - [f(r) for r in rhos])) <= 1e-14

    def test_leading_axes_kept(self, counts):
        rhos = linear_inversion(counts.reshape(4, 10, 9, 4))
        assert rhos.shape == (4, 10, 4, 4)
        assert concurrence(rhos).shape == purity(rhos).shape == (4, 10)

    def test_single_matrix_gives_float(self):
        assert isinstance(concurrence(BELL), float)

    def test_non_hermitian_member_rejected(self, counts):
        rhos = linear_inversion(counts)
        rhos[17, 0, 1] += 1e-6
        for f in (concurrence, purity):
            with pytest.raises(ValueError, match="Hermitian"):
                f(rhos)


class TestSimulateSetting:
    def test_deterministic(self):
        a = simulate_setting(BELL, ("X", "Y"), 500, seed=42)
        b = simulate_setting(BELL, ("X", "Y"), 500, seed=42)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = simulate_setting(BELL, ("X", "Y"), 500, seed=42)
        b = simulate_setting(BELL, ("X", "Y"), 500, seed=43)
        assert not np.array_equal(a, b)

    def test_total_counts(self):
        counts = simulate_tomogram_counts(BELL, 250, seed=1)
        assert all(v.sum() == 250 for v in counts.values())

    def test_zero_probability_outcomes_never_drawn(self):
        # Psi+ has zero weight on (++, --) in the (Z, Z) basis
        c = simulate_setting(BELL, ("Z", "Z"), 10_000, seed=5)
        assert c[0] == 0 and c[3] == 0

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError, match="shots"):
            simulate_setting(BELL, ("Z", "Z"), 0, seed=1)


class TestBootstrap:
    def test_deterministic(self):
        rho_hat = linear_inversion(simulate_tomogram_counts(BELL, 100, seed=9))
        a = bootstrap(rho_hat, 100, 50, seed=4)
        b = bootstrap(rho_hat, 100, 50, seed=4)
        assert a.lower == b.lower and a.upper == b.upper and a.point == b.point

    def test_interval_ordering(self):
        rho = prepare_resource(ProtocolConfig(theta=np.pi / 4))
        rho_hat = linear_inversion(simulate_tomogram_counts(rho, 200, seed=2))
        s = bootstrap(rho_hat, 200, 100, seed=0)
        for k in ("concurrence", "purity"):
            assert s.lower[k] <= s.upper[k]

    def test_width_shrinks_with_shots(self):
        # bootstrap width ~ 1/sqrt(shots)
        widths = []
        for shots in (100, 10_000):
            t = tomography_study(BELL, shots=shots, resamples=200, seed=8)
            b = t.bootstrap
            widths.append(b.upper["concurrence"] - b.lower["concurrence"])
        assert widths[1] < widths[0] / 3

    def test_matches_per_resample_loop(self):
        # resample r draws the nine settings in turn from Philox(seed, r)
        rho_hat = linear_inversion(simulate_tomogram_counts(BELL, 100, seed=9))
        s = bootstrap(rho_hat, 100, 60, seed=4)
        dists = [setting_probs(rho_hat, st) for st in tg.ALL_SETTINGS]
        conc, pur = [], []
        for r in range(60):
            rng = np.random.Generator(np.random.Philox(key=[4, r]))
            counts = dict(zip(tg.ALL_SETTINGS, [rng.multinomial(100, p) for p in dists]))
            conc.append(concurrence(linear_inversion(counts)))
            pur.append(purity(linear_inversion(counts)))
        for k, v in (("concurrence", conc), ("purity", pur)):
            assert abs(s.lower[k] - np.percentile(v, 16.0)) <= 1e-14
            assert abs(s.upper[k] - np.percentile(v, 84.0)) <= 1e-14

    def test_rejects_unnormalizable_setting(self):
        with pytest.raises(ValueError, match="not normalizable"):
            bootstrap(np.zeros((4, 4), dtype=complex), 100, 10, seed=0)

    def test_rejects_too_few_resamples(self):
        with pytest.raises(ValueError, match="resamples"):
            bootstrap(BELL, 100, 1, seed=0)


class TestTomographyStudy:
    def test_near_pure_recovery(self):
        t = tomography_study(BELL, shots=100_000, resamples=0, seed=13)
        assert t.concurrence == pytest.approx(1.0, abs=0.02)
        assert t.purity == pytest.approx(1.0, abs=0.02)
        assert np.max(np.abs(t.rho_hat - BELL)) < 0.02

    def test_resamples_zero_skips_bootstrap(self):
        t = tomography_study(BELL, shots=100, resamples=0, seed=13)
        assert t.bootstrap is None


class TestFitC0:
    def test_exact_cosine_points(self):
        # [DERIVED] noiseless cosine data recovers the amplitude exactly
        thetas = np.linspace(0, np.pi / 2, 9)
        pts = [(float(t), 0.87 * np.cos(t)) for t in thetas]
        c0, err = fit_c0(pts)
        assert c0 == pytest.approx(0.87, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_single_point(self):
        c0, err = fit_c0([(0.0, 0.93)])
        assert c0 == pytest.approx(0.93, abs=1e-12)
        assert err == 0.0

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        thetas = np.linspace(0, np.pi / 2, 17)
        pts = [(float(t), 0.87 * np.cos(t) + rng.normal(0, 0.01)) for t in thetas]
        c0, err = fit_c0(pts)
        assert c0 == pytest.approx(0.87, abs=0.02)
        assert 0 < err < 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_c0([])

    def test_rejects_degenerate_design(self):
        with pytest.raises(ValueError, match="unidentifiable"):
            fit_c0([(np.pi / 2, 0.1)])


class TestCountsCsv:
    def test_round_trip(self, tmp_path):
        counts = simulate_tomogram_counts(BELL, 100, seed=6)
        path = tmp_path / "counts.csv"
        write_counts_csv(path, counts)
        back = read_counts_csv(path)
        assert set(back) == set(counts)
        for s in counts:
            assert np.array_equal(back[s], counts[s])
