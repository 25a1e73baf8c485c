"""Tests for nine-setting tomography, concurrence, and the bootstrap."""

import csv
import inspect
import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demongain import cli, gates, noisefit, protocol, qlin, tomography as tg
from demongain.cli import main
from demongain.gates import PLANTED_DELTA_PHI, bell_prep
from demongain.protocol import prepare_resource, ProtocolConfig, analytic_concurrence
from demongain.qlin import ID2, PAULI_X, PAULI_Y, PAULI_Z, kron
from demongain.shared import draw_probs, stream
from demongain.tomography import (
    bootstrap,
    concurrence,
    fit_c0,
    linear_inversion,
    purity,
    setting_probs,
    simulate_tomogram_counts,
    tomography_study,
    write_counts_csv,
)

from conftest import (
    ID4,
    clamped_sqrt_oracle,
    concurrence_oracle,
    draw_resamples,
    freqs_oracle,
    haar_unitary,
    overlap_oracle,
    random_density,
    record_drawn_keys,
    tomogram_counts_oracle,
    wootters_concurrence,
)

BELL = prepare_resource(ProtocolConfig(theta=0.0))


XX, XY, ZX, YY, ZZ = (tg.ALL_SETTINGS.index(tuple(s)) for s in ("XX", "XY", "ZX", "YY", "ZZ"))

# the nine theta of manifests/tomo_default.json, at the planted noise
STUDY = prepare_resource(ProtocolConfig(theta=np.linspace(0, np.pi / 2, 9),
                                        delta_phi=PLANTED_DELTA_PHI))


def study_blocks(seed: int, resamples: int = 500) -> list[np.ndarray]:
    """The nine (resamples, 9, 4) bootstrap blocks of STUDY's tomograms at `seed`."""
    rho_hat = linear_inversion(simulate_tomogram_counts(STUDY, 100, seed))
    return [draw_resamples(r, 100, resamples, seed, index=i) for i, r in enumerate(rho_hat)]


def _rounded(probs):
    """The draw rule of the samplers: 12 decimals, then renormalized."""
    p = np.round(probs, 12)
    return p / p.sum(axis=-1, keepdims=True)


class TestSettingProbs:
    def test_shape_and_order(self):
        assert tg.ALL_SETTINGS[:2] == (("X", "X"), ("X", "Y"))
        assert tg.ALL_SETTINGS[-1] == ("Z", "Z")
        assert setting_probs(BELL).shape == (9, 4)

    def test_bell_zz_perfectly_correlated(self):
        # [TRIVIAL] Psi+ = (|01> + |10>)/sqrt(2): Z outcomes anti-aligned
        p = setting_probs(BELL)[ZZ]
        assert np.allclose(p, [0.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_bell_xx_correlated(self):
        # [DERIVED] <X X> = +1 on Psi+, so outcomes (++, --) each 1/2
        p = setting_probs(BELL)[XX]
        assert np.allclose(p, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_maximally_mixed_uniform(self):
        assert np.allclose(setting_probs(ID4 / 4), 0.25, atol=1e-12)

    def test_zz_sign_convention(self):
        # [TRIVIAL] |0> is "+": <Z> = Pr(0) - Pr(1) = +1 on |00>
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert np.allclose(setting_probs(rho)[ZZ], [1, 0, 0, 0])

    def test_rejects_unnormalizable_setting(self):
        with pytest.raises(ValueError, match=r"setting \('X', 'X'\) diagonal not normalizable"):
            setting_probs(np.zeros((4, 4), dtype=complex))

    def test_rejects_unnormalizable_member_of_stack(self):
        # the zero matrix has no weight on any outcome of any setting
        stack = np.array([BELL, BELL, BELL])
        stack[1] = 0.0
        with pytest.raises(ValueError, match=r"setting \('X', 'X'\) diagonal not normalizable"):
            setting_probs(stack)


# valid entries of many magnitudes, whose sums round differently in another
# order, with -0.0 and subnormals; then a few replaced by refused ones
FREQ_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 0.1, 0.7, 1.0, 1e16]),
    st.floats(0.0, 1e20), st.integers(0, 10**6).map(float))
FREQ_REFUSED = st.sampled_from([np.inf, -np.inf, np.nan, -1.0, -5e-324])


class TestLinearInversion:
    def test_exact_probs_recover_state(self, rng):
        # [DERIVED] infinite-shot inversion is exact
        for _ in range(20):
            rho = random_density(rng)
            rho_hat = linear_inversion(setting_probs(rho))
            assert np.max(np.abs(rho_hat - rho)) < 1e-12

    def test_resource_states_recovered(self):
        for theta in np.linspace(0, np.pi / 2, 9):
            rho = prepare_resource(ProtocolConfig(theta=float(theta)))
            rho_hat = linear_inversion(setting_probs(rho))
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

    def test_all_zero_setting_rejected(self):
        counts = simulate_tomogram_counts(BELL, 100, seed=7)
        counts[XY] = 0
        with pytest.raises(ValueError, match=r"setting \('X', 'Y'\) has no counts"):
            linear_inversion(counts)

    def test_negative_counts_rejected(self):
        counts = simulate_tomogram_counts(BELL, 100, seed=7)
        counts[ZX] = [60, -10, 30, 20]
        with pytest.raises(ValueError, match=r"setting \('Z', 'X'\) has negative"):
            linear_inversion(counts)

    def test_non_finite_probability_rejected(self):
        probs = setting_probs(BELL)
        probs[YY, 1] = np.nan
        with pytest.raises(ValueError, match=r"setting \('Y', 'Y'\) has negative or non-finite"):
            linear_inversion(probs)

    def test_bad_member_of_stack_rejected(self):
        stack = np.ones((5, 9, 4))
        stack[3, 4, 2] = -1.0
        with pytest.raises(ValueError, match=r"setting \('Y', 'Y'\) has negative"):
            linear_inversion(stack)
        stack[3, 4] = 0.0
        with pytest.raises(ValueError, match=r"setting \('Y', 'Y'\) has no counts"):
            linear_inversion(stack)

    def test_first_bad_setting_named_across_stack(self):
        # settings are checked in ALL_SETTINGS order over the whole stack, so
        # item 1's empty ('X', 'Y') is named before item 0's negative ('Z', 'Z')
        stack = np.ones((2, 9, 4))
        stack[0, ZZ, 0] = -1.0
        stack[1, XY] = 0.0
        with pytest.raises(ValueError, match=r"setting \('X', 'Y'\) has no counts"):
            linear_inversion(stack)

    @pytest.mark.parametrize("bad, what", [
        ([np.nan, 50, 25, 25], "negative or non-finite counts"),
        ([np.inf, 50, 25, 25], "negative or non-finite counts"),
        ([-np.inf, 50, 25, 25], "negative or non-finite counts"),
        ([60, -10, 30, 20], "negative or non-finite counts"),
        ([0, 0, 0, 0], "no counts"),
    ])
    def test_bad_setting_in_resample_block_named(self, bad, what):
        block = np.tile(simulate_tomogram_counts(BELL, 100, seed=7).astype(float), (50, 1, 1))
        block[37, YY] = bad
        with pytest.raises(ValueError, match=rf"^setting \('Y', 'Y'\) has {what}$"):
            linear_inversion(block)

    def test_float_view_equals_the_complex_contraction_bit_for_bit(self, rng):
        # _INVERSION contracts the real frequencies without complex
        # arithmetic; the complex einsum with _inversion_map gives the same bits
        rho_hat = linear_inversion(simulate_tomogram_counts(BELL, 100, seed=5))
        block = draw_resamples(rho_hat, 100, 500, seed=5)
        probs = setting_probs(np.array([random_density(rng) for _ in range(200)]))
        for counts in (block, probs):
            want = np.einsum("...ji,jixy->...xy", tg._freqs(counts), tg._inversion_map())
            assert linear_inversion(counts).tobytes() == want.tobytes()

    @given(st.integers(0, 2).flatmap(lambda n: st.lists(FREQ_VALUES, min_size=36 * n, max_size=36 * n)),
           st.lists(st.tuples(st.integers(0, 10**6), FREQ_REFUSED), max_size=3),
           st.integers(-1, 8), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_totals_equal_the_sum_form_bit_for_bit(self, entries, refused, zero, as_counts):
        # each setting's total is v.sum(axis=-1)'s, so the frequencies and
        # the refusals are those of the sum form; `zero` empties a setting
        # with -0.0 entries, counts are whole numbers
        v = np.array(entries, dtype=float)
        for at, value in refused if v.size else ():
            v[at % v.size] = value
        v = v.reshape(-1, 9, 4)
        if zero >= 0:
            v[:, zero] = -0.0
        if as_counts:
            v = (np.nan_to_num(np.abs(v), posinf=0.0) % 1000).astype(np.int64)
        results = []
        for f in (tg._freqs, freqs_oracle):
            with np.errstate(invalid="ignore", over="ignore"):
                try:
                    results.append(f(v).tobytes())
                except ValueError as err:
                    results.append(str(err))
        assert results[0] == results[1]

    def test_totals_round_as_the_sum_form_on_random_rows(self):
        # 20,000 settings of many magnitudes, where another order of the
        # three adds would round differently in some of them
        rng = np.random.default_rng(7)
        v = rng.random((500, 9, 4)) * 10.0 ** rng.integers(-20, 20, size=(500, 9, 4))
        for counts in (v, v[:, :, ::-1], rng.integers(1, 100, size=(500, 9, 4))):
            assert tg._freqs(counts).tobytes() == freqs_oracle(counts).tobytes()

    def test_array_shape_rejected(self):
        for shape in [(8, 4), (36,), (2, 4, 9)]:
            with pytest.raises(ValueError, match=r"\(\.\.\., 9, 4\)"):
                linear_inversion(np.ones(shape))

    def test_bad_shape_rejected(self):
        # every setting needs all four outcomes
        with pytest.raises(ValueError, match=r"got shape \(9, 3\)"):
            linear_inversion(setting_probs(BELL)[:, :3])


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

    def test_one_eigendecomposition_per_stack(self, monkeypatch):
        calls = []
        eig = qlin.eig_hermitian
        monkeypatch.setattr(qlin, "eig_hermitian", lambda h: calls.append(h.shape) or eig(h))
        rhos = prepare_resource(ProtocolConfig(theta=np.linspace(0, np.pi / 2, 5)))
        concurrence(linear_inversion(simulate_tomogram_counts(rhos, 100, seed=3)))
        assert calls == [(5, 4, 4)]

    def test_matches_dense_oracle_on_random_states(self, rng):
        # measured: 6.1e-13 on this draw, at most 1.2e-12 on two other seeds
        rhos = np.array([random_density(rng) for _ in range(2000)])
        assert np.max(np.abs(concurrence(rhos) - wootters_concurrence(rhos))) <= 1e-11

    def test_matches_dense_oracle_on_bootstrap_resamples(self):
        # the non-PSD inversions of 500-resample bootstrap stacks at the 9
        # theta of manifests/tomo_default.json, seeds 0-19; measured: at most
        # 2.7e-11, from square roots of lambda_i^2 just above the snap to 0
        rhos = prepare_resource(ProtocolConfig(theta=np.linspace(0, np.pi / 2, 9)))
        worst = 0.0
        for seed in range(20):
            rho_hat = linear_inversion(simulate_tomogram_counts(rhos, 100, seed))
            dists = draw_probs(setting_probs(rho_hat))
            counts = np.array([
                stream(seed, "bootstrap", i).multinomial(100, d, size=(500, 9))
                for i, d in enumerate(dists)
            ])
            rho_r = linear_inversion(counts)
            worst = max(worst, np.max(np.abs(concurrence(rho_r) - wootters_concurrence(rho_r))))
        assert worst <= 1e-10

    def test_overlap_equals_the_conjugate_first_form_bit_for_bit(self, monkeypatch):
        # K is conjugated once, after the product; oracle: dag(v) @ (sign * v_rev.conj()).
        # With unit eigenvalues S is K itself, and it reaches S S^dag through dag
        seen = []
        monkeypatch.setattr(tg, "dag", lambda m: seen.append(m) or qlin.dag(m))
        for block in study_blocks(seed=5):
            _, v = qlin.eig_hermitian(linear_inversion(block))
            tg._spin_flip(np.ones(v.shape[:-1]), v)
            assert seen.pop().tobytes() == overlap_oracle(v).tobytes()

    @given(st.lists(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1e-13, 1e-14, 1.0, 1.0 + 2**-52, -1e-15]),
        st.floats(-2.0, 2.0), st.floats(0.0, 1e6)), min_size=4, max_size=4), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_clamped_sqrt_equals_the_max_form_bit_for_bit(self, rows):
        # on descending input, column 0 is the max that the snap threshold scales by
        w = -np.sort(-np.array(rows, dtype=float).reshape(-1, 4), axis=-1)
        assert tg._clamped_sqrt(w.copy()).tobytes() == clamped_sqrt_oracle(w.copy()).tobytes()

    def test_bootstrap_scores_equal_the_parent_forms_bit_for_bit(self):
        # concurrence through overlap_oracle and clamped_sqrt_oracle; purity of the checked stack
        for seed in (0, 1):
            for block in study_blocks(seed):
                rho_r = linear_inversion(block)
                want = concurrence_oracle(rho_r).tobytes()
                c, p = tg._scores(rho_r)
                assert c.tobytes() == concurrence(rho_r).tobytes() == want
                assert p.tobytes() == purity(rho_r).tobytes()

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

    def test_exact_stack_sums_the_raw_entries_bit_for_bit(self, rng):
        # a 500-resample inversion block, and random states with -0.0 imaginary diagonals
        rho_hat = linear_inversion(simulate_tomogram_counts(BELL, 100, seed=3))
        block = linear_inversion(draw_resamples(rho_hat, 100, 500, seed=3))
        states = np.array([random_density(rng) for _ in range(50)])
        states.imag[:, np.arange(4), np.arange(4)] = -0.0
        for rho in (block, states):
            assert np.array_equal(rho, qlin.dag(rho))
            raw = np.sum(rho.real**2 + rho.imag**2, axis=(-2, -1))
            assert purity(rho).tobytes() == raw.tobytes()

    def test_empty_stack(self):
        assert purity(np.zeros((0, 4, 4))).shape == (0,)

    @pytest.mark.parametrize("dev", [1e-9, np.nan])
    def test_refused_as_eig_hermitian_refuses(self, dev):
        # one check in qlin: the same message from both callers
        rho = ID4 / 4
        rho[0, 3] += dev
        messages = []
        for f in (purity, qlin.eig_hermitian):
            with pytest.raises(ValueError) as err:
                f(rho)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("matrix is not Hermitian: max |h - h^dag| = ")


class TestStackedKernels:
    """A stack of R items gives what R single-item calls give."""

    @pytest.fixture
    def counts(self):
        rho = prepare_resource(ProtocolConfig(theta=np.pi / 5))
        return np.array([simulate_tomogram_counts(rho, 80, seed) for seed in range(40)])

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
    """simulate_tomogram_counts draws each setting from its own stream."""

    def test_deterministic(self):
        a = simulate_tomogram_counts(BELL, 500, seed=42)
        b = simulate_tomogram_counts(BELL, 500, seed=42)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = simulate_tomogram_counts(BELL, 500, seed=42)
        b = simulate_tomogram_counts(BELL, 500, seed=43)
        assert not np.array_equal(a[XY], b[XY])

    def test_setting_streams(self):
        # setting j draws its multinomial from Philox(key=[seed, j]), with
        # the probabilities rounded to 12 decimals and renormalized
        counts = simulate_tomogram_counts(BELL, 300, seed=11)
        for j, p in enumerate(_rounded(setting_probs(BELL))):
            rng = np.random.Generator(np.random.Philox(key=[11, j]))
            assert np.array_equal(counts[j], rng.multinomial(300, p))

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 10])
    def test_equals_a_new_philox_per_key_bit_for_bit(self, seed):
        # one Philox, reset to the start of each key's stream, draws what
        # a new Philox(key=[seed + i, j]) per theta i and setting j draws
        for rhos in (STUDY, STUDY[4]):
            counts = simulate_tomogram_counts(rhos, 100, seed)
            want = tomogram_counts_oracle(rhos, 100, seed)
            assert counts.shape == want.shape and counts.dtype == want.dtype
            assert counts.tobytes() == want.tobytes()

    def test_one_philox_per_call(self, monkeypatch):
        made = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: made.append(a) or philox(*a, **k))
        simulate_tomogram_counts(STUDY, 100, seed=4)
        assert len(made) == 1

    def test_total_counts(self):
        counts = simulate_tomogram_counts(BELL, 250, seed=1)
        assert counts.shape == (9, 4)
        assert np.all(counts.sum(axis=1) == 250)

    def test_zero_probability_outcomes_never_drawn(self):
        # Psi+ has zero weight on (++, --) in the (Z, Z) basis
        c = simulate_tomogram_counts(BELL, 10_000, seed=5)[ZZ]
        assert c[0] == 0 and c[3] == 0

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError, match="shots"):
            simulate_tomogram_counts(BELL, 0, seed=1)

    def test_seeds_above_2_63_keep_their_keys(self):
        # a key built from a list of Python ints goes through float64 at or
        # above 2**63, where 2**63 + 1 and 2**63 + 92 both round to 2**63
        counts = [simulate_tomogram_counts(BELL, 500, seed=2**63 + k) for k in (0, 1, 92)]
        assert not np.array_equal(counts[0], counts[1])
        assert not np.array_equal(counts[1], counts[2])
        for j, p in enumerate(_rounded(setting_probs(BELL))):
            key = np.array([2**63 + 92, j], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(counts[2][j], rng.multinomial(500, p))

    def test_last_key_below_2_64(self):
        stack = np.array([BELL, BELL])
        top = simulate_tomogram_counts(stack, 100, seed=2**64 - 2)
        assert np.array_equal(top[1], simulate_tomogram_counts(BELL, 100, seed=2**64 - 1))
        with pytest.raises(ValueError, match=r"seed \+ theta index must stay below 2\*\*64"):
            simulate_tomogram_counts(stack, 100, seed=2**64 - 1)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            simulate_tomogram_counts(BELL, 100, seed=-1)


class TestBatched:
    """A theta stack gives items equal to the single calls bit for bit."""

    def test_items_equal_single_calls(self):
        thetas = np.array([0.2, 0.9, 1.4])
        rhos = prepare_resource(ProtocolConfig(theta=thetas, delta_phi=PLANTED_DELTA_PHI))
        probs = setting_probs(rhos)
        counts = simulate_tomogram_counts(rhos, 100, seed=17)
        rho_hat = linear_inversion(counts)
        conc, pur = concurrence(rho_hat), purity(rho_hat)
        assert probs.shape == counts.shape == (3, 9, 4) and rho_hat.shape == (3, 4, 4)
        for i, rho in enumerate(rhos):
            assert np.array_equal(probs[i], setting_probs(rho))
            single = simulate_tomogram_counts(rho, 100, seed=17 + i)
            assert np.array_equal(counts[i], single)
            assert np.array_equal(rho_hat[i], linear_inversion(single))
            assert np.array_equal(conc[i], concurrence(rho_hat[i]))
            assert np.array_equal(pur[i], purity(rho_hat[i]))


class TestBootstrap:
    def test_deterministic(self):
        rho_hat = linear_inversion(simulate_tomogram_counts(BELL, 100, seed=9))
        a = bootstrap(draw_resamples(rho_hat, 100, 50, seed=4))
        b = bootstrap(draw_resamples(rho_hat, 100, 50, seed=4))
        assert a.lower == b.lower and a.upper == b.upper

    def test_interval_ordering(self):
        rho = prepare_resource(ProtocolConfig(theta=np.pi / 4))
        rho_hat = linear_inversion(simulate_tomogram_counts(rho, 200, seed=2))
        s = bootstrap(draw_resamples(rho_hat, 200, 100, seed=0))
        for k in ("concurrence", "purity"):
            assert s.lower[k] <= s.upper[k]

    def test_width_shrinks_with_shots(self):
        # bootstrap width ~ 1/sqrt(shots)
        widths = []
        for shots in (100, 10_000):
            _, _, (b,) = tomography_study(BELL[None], shots=shots, resamples=200, seed=8)
            widths.append(b.upper["concurrence"] - b.lower["concurrence"])
        assert widths[1] < widths[0] / 3

    def test_matches_per_resample_loop(self):
        # resample after resample, the nine settings draw in turn from the
        # one stream keyed by (seed, "bootstrap", index), from the setting
        # probabilities rounded as for the counts; scored in reverse order
        rho_hat = linear_inversion(simulate_tomogram_counts(BELL, 100, seed=9))
        s = bootstrap(draw_resamples(rho_hat, 100, 60, seed=4, index=2))
        dists = _rounded(setting_probs(rho_hat))
        rng = stream(4, "bootstrap", 2)
        draws = [np.array([rng.multinomial(100, p) for p in dists]) for _ in range(60)]
        conc, pur = [], []
        for counts in reversed(draws):
            conc.append(concurrence(linear_inversion(counts)))
            pur.append(purity(linear_inversion(counts)))
        for k, v in (("concurrence", conc), ("purity", pur)):
            assert abs(s.lower[k] - np.percentile(v, 16.0)) <= 1e-14
            assert abs(s.upper[k] - np.percentile(v, 84.0)) <= 1e-14

    @pytest.mark.parametrize("resamples", [2, 500])
    def test_draws_from_one_generator(self, resamples, monkeypatch):
        # all of a theta's resamples are one block from one stream; the
        # counts draw from nine raw keys
        keys = record_drawn_keys(monkeypatch)
        tomography_study(BELL[None], 100, resamples, seed=4)
        assert len(keys) == 9 + 1
        assert len(set(keys)) == len(keys)

    def test_interval_equals_np_percentile_bit_for_bit(self, monkeypatch):
        # bootstrap applies np.percentile's linear rule itself; oracle: np.percentile
        # on (2, R) scores for R = 2..1000, a third of them rounded to hold ties
        rng = np.random.default_rng(11)
        monkeypatch.setattr(tg, "linear_inversion", lambda counts: counts)
        monkeypatch.setattr(tg, "_scores", lambda rho: (rho[:, 0, 0], rho[:, 0, 1]))
        for r in range(2, 1001):
            scores = rng.normal(size=(2, r))
            if r % 3 == 0:
                scores = np.round(scores, 1)
            counts = np.zeros((r, 9, 4))
            counts[:, 0, :2] = scores.T
            s = bootstrap(counts)
            lo, hi = np.percentile(scores, tg.PERCENTILES, axis=-1)
            assert [*s.lower.values(), *s.upper.values()] == [*lo.tolist(), *hi.tolist()], r

    def test_one_hermiticity_check_per_block(self, monkeypatch):
        calls = []
        hermitian = qlin.hermitian
        monkeypatch.setattr(qlin, "hermitian", lambda m: calls.append(np.shape(m)) or hermitian(m))
        bootstrap(study_blocks(seed=3)[2])
        assert calls == [(500, 4, 4)]

    @pytest.mark.parametrize("dev", [1e-9, np.nan])
    def test_block_refused_as_eig_hermitian_refuses(self, dev, monkeypatch):
        block = study_blocks(seed=3)[2]
        rho_r = linear_inversion(block)
        rho_r[321, 0, 3] += dev
        with pytest.raises(ValueError) as want:
            qlin.eig_hermitian(rho_r)
        monkeypatch.setattr(tg, "linear_inversion", lambda counts: rho_r)
        with pytest.raises(ValueError) as err:
            bootstrap(block)
        assert str(err.value) == str(want.value)
        assert str(err.value).startswith("matrix is not Hermitian: max |h - h^dag| = ")

    def test_rejects_unnormalizable_setting(self):
        with pytest.raises(ValueError, match="not normalizable"):
            bootstrap(draw_resamples(np.zeros((4, 4), dtype=complex), 100, 10, seed=0))

    def test_rejects_too_few_resamples(self):
        with pytest.raises(ValueError, match="resamples"):
            bootstrap(draw_resamples(BELL, 100, 1, seed=0))


class TestTomographyStudy:
    def test_near_pure_recovery(self):
        _, rho_hat, _ = tomography_study(BELL[None], shots=100_000, resamples=0, seed=13)
        assert concurrence(rho_hat[0]) == pytest.approx(1.0, abs=0.02)
        assert purity(rho_hat[0]) == pytest.approx(1.0, abs=0.02)
        assert np.max(np.abs(rho_hat[0] - BELL)) < 0.02

    def test_resamples_zero_skips_bootstrap(self):
        _, _, boots = tomography_study(BELL[None], shots=100, resamples=0, seed=13)
        assert boots is None

    def test_counts_and_metrics(self):
        # state i draws its counts from seed + i and bootstraps as index i
        rhos = np.array([BELL, prepare_resource(ProtocolConfig(theta=0.8))])
        counts, rho_hat, boots = tomography_study(rhos, shots=100, resamples=20, seed=13)
        assert np.array_equal(counts, simulate_tomogram_counts(rhos, 100, seed=13))
        assert np.array_equal(rho_hat, linear_inversion(counts))
        assert len(boots) == 2
        for i, b in enumerate(boots):
            assert b.resamples == 20
            assert b == bootstrap(draw_resamples(rho_hat[i], 100, 20, seed=13, index=i))


THETAS9 = prepare_resource(ProtocolConfig(theta=np.linspace(0, np.pi / 2, 9)))


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request):
    """Pin the test's thread, and so the helper it starts, to its first one or two CPUs.

    tomography_study takes the one path on either: a lost hand-off would
    hang on one CPU, where the two threads cannot run side by side.
    """
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    own = os.sched_getaffinity(0)
    if len(own) < request.param:
        pytest.skip(f"needs {request.param} CPUs, the process has {len(own)}")
    os.sched_setaffinity(0, sorted(own)[:request.param])
    yield
    os.sched_setaffinity(0, own)


def _drawing_threads(monkeypatch):
    """theta index -> the thread that drew its bootstrap block."""
    threads = {}
    real = tg.stream

    def stream(seed, purpose, index):
        threads[index] = threading.current_thread()
        return real(seed, purpose, index)

    monkeypatch.setattr(tg, "stream", stream)
    return threads


class TestDrawsAhead:
    """tomography_study's one-ahead bootstrap draws change neither results nor threads."""

    @pytest.mark.parametrize("n", [1, 2, 9])
    @pytest.mark.parametrize("resamples", [2, 500])
    def test_equals_draw_then_score_on_the_main_thread(self, n, resamples, cpus, monkeypatch):
        threads = _drawing_threads(monkeypatch)
        counts, rho_hat, boots = tomography_study(THETAS9[:n], 100, resamples, seed=11)
        assert len(boots) == n
        for i, b in enumerate(boots):
            assert b == bootstrap(draw_resamples(rho_hat[i], 100, resamples, seed=11, index=i))
        # the helper thread draws every block, the first one included
        main = threading.main_thread()
        on_main = [threads[i] is main for i in range(n)]
        assert on_main == [False] * n

    def test_never_asks_for_the_cpu_count(self, monkeypatch):
        # the helper thread draws ahead whatever the host: one path, no probe
        def ask(*args):
            raise AssertionError("tomography_study asked for the CPU count")

        monkeypatch.setattr(os, "sched_getaffinity", ask, raising=False)
        monkeypatch.setattr(os, "cpu_count", ask)
        threads = _drawing_threads(monkeypatch)
        _, rho_hat, boots = tomography_study(THETAS9[:3], 100, 2, seed=1)
        assert boots == [bootstrap(draw_resamples(r, 100, 2, seed=1, index=i)) for i, r in enumerate(rho_hat)]
        assert sum(t is not threading.main_thread() for t in threads.values()) == 3

    def test_equal_under_fast_thread_switching(self):
        # a lost or reordered handoff between the helper and the caller would
        # hang or swap blocks; switching threads every microsecond exposes it
        _, rho_hat, _ = tomography_study(THETAS9, 100, 0, seed=5)
        want = [bootstrap(draw_resamples(r, 100, 2, seed=5, index=i)) for i, r in enumerate(rho_hat)]
        got = []
        study = threading.Thread(target=lambda: got.extend(
            tomography_study(THETAS9, 100, 2, seed=5)[2] for _ in range(30)), daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            study.start()
            study.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not study.is_alive()
        assert got == [want] * 30

    def test_layer_functions_run_on_the_main_thread(self, monkeypatch):
        # perfbench's Tracer keeps one span stack, and the reachability test's
        # profiler sees only the thread that set it
        modules = [qlin, gates, protocol, tg, noisefit, cli]
        off_main = []

        def guarded(name, fn):
            def call(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(name)
                return fn(*args, **kwargs)
            return call

        wrappers = {
            id(fn): (fn, guarded(f"{mod.__name__}.{name}", fn))
            for mod in modules for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
        }
        for mod in modules:  # names imported by value too, such as tomography.kron
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    monkeypatch.setattr(mod, name, wrappers[id(obj)][1])
        threads = _drawing_threads(monkeypatch)
        tg.tomography_study(THETAS9, 100, 50, seed=3)
        assert sum(t is not threading.main_thread() for t in threads.values()) == 9
        assert off_main == []

    def test_a_failing_draw_raises_from_the_study(self, cpus, monkeypatch):
        # block 0, drawn before anything is scored, and a later block
        real = tg.stream
        for failing in (0, 3):
            boom = RuntimeError(f"draw {failing} failed")

            def stream_failing(seed, purpose, index):
                if index == failing:
                    raise boom
                return real(seed, purpose, index)

            monkeypatch.setattr(tg, "stream", stream_failing)
            before = threading.active_count()
            with pytest.raises(RuntimeError) as exc:
                tomography_study(THETAS9, 100, 50, seed=3)
            assert exc.value is boom
            assert threading.active_count() == before

    def test_a_failing_score_raises_from_the_study(self, cpus, monkeypatch):
        boom = RuntimeError("score failed")
        scored, alive = [], []
        real = tg.bootstrap

        def bootstrap_failing_at_2(counts):
            if len(scored) == 2:
                alive.append(threading.active_count())
                raise boom
            scored.append(real(counts))
            return scored[-1]

        monkeypatch.setattr(tg, "bootstrap", bootstrap_failing_at_2)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as exc:
            tomography_study(THETAS9, 100, 50, seed=3)
        assert exc.value is boom
        # the helper thread was drawing ahead when theta 2 failed
        assert alive == [before + 1]
        assert threading.active_count() == before

    def test_rejects_one_resample(self):
        with pytest.raises(ValueError, match="resamples must be >= 2"):
            tomography_study(BELL[None], 100, 1, seed=0)

    def test_draws_at_most_one_theta_ahead(self, cpus, monkeypatch):
        # memory holds two blocks at most: stacking all nine thetas' draws
        # at once once raised perfbench's peak RSS from 43.0 to 50.5 MB
        asked, ahead = [], []
        real_stream, real_bootstrap = tg.stream, tg.bootstrap

        def stream(seed, purpose, index):
            asked.append(index)
            return real_stream(seed, purpose, index)

        def bootstrap(counts):
            ahead.append(max(asked) - len(ahead))
            return real_bootstrap(counts)

        monkeypatch.setattr(tg, "stream", stream)
        monkeypatch.setattr(tg, "bootstrap", bootstrap)
        tomography_study(THETAS9, 100, 50, seed=3)
        assert sorted(asked) == list(range(9))
        assert len(ahead) == 9 and max(ahead) <= 1


def _tomo_point(tmp_path, section):
    """The one per-theta record that `demongain tomo` writes for theta = 0."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tomo": {"thetas": [0.0], **section}}))
    assert main(["tomo", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 0
    (point,) = json.loads((tmp_path / "out/tomo_metrics.json").read_text())["points"]
    return point


class TestTomogram:
    """The per-theta tomogram record of tomo_metrics.json."""

    def test_json_without_counts(self, tmp_path):
        d = _tomo_point(tmp_path, {"exact_moments": True})
        rho_hat = linear_inversion(setting_probs(BELL))
        assert d == {
            "theta": 0.0,
            "concurrence": float(concurrence(rho_hat)),
            "purity": float(purity(rho_hat)),
        }

    def test_json_with_bootstrap(self, tmp_path):
        # the point's metrics, resamples and percentiles are written once,
        # not again in its bootstrap
        d = _tomo_point(tmp_path, {"shots_per_setting": 70, "resamples": 10, "seed": 2})
        _, rho_hat, (boot,) = tomography_study(BELL[None], shots=70, resamples=10, seed=2)
        assert d == {
            "theta": 0.0,
            "concurrence": float(concurrence(rho_hat[0])),
            "purity": float(purity(rho_hat[0])),
            "bootstrap": {"lower": boot.lower, "upper": boot.upper},
        }


class TestLastBitIndependence:
    """Tomography outputs do not hinge on the last bits of rho."""

    def test_perturbed_state_gives_the_same_study(self):
        # the 9 theta, shots, resamples and seed of manifests/tomo_default.json
        a = np.random.default_rng(1).normal(size=(4, 4, 2)) @ [1, 1j]
        h = a + a.conj().T
        h -= np.trace(h).real / 4 * ID4  # fixed traceless Hermitian direction
        h /= np.max(np.abs(h))
        rhos = prepare_resource(ProtocolConfig(theta=np.linspace(0, np.pi / 2, 9)))
        (ct, rt, bt), (cu, ru, bu) = (
            tomography_study(r, 100, 500, 20240901) for r in (rhos, rhos + 1e-16 * h)
        )
        assert np.array_equal(ct, cu)
        assert np.max(np.abs(concurrence(rt) - concurrence(ru))) <= 1e-12
        assert np.max(np.abs(purity(rt) - purity(ru))) <= 1e-12
        for t, u in zip(bt, bu):
            for k in ("concurrence", "purity"):
                assert abs(t.lower[k] - u.lower[k]) <= 1e-12
                assert abs(t.upper[k] - u.upper[k]) <= 1e-12


class TestFitC0:
    def test_exact_cosine_points(self):
        # [DERIVED] noiseless cosine data recovers the amplitude exactly
        thetas = np.linspace(0, np.pi / 2, 9)
        c0, err = fit_c0(thetas, 0.87 * np.cos(thetas))
        assert c0 == pytest.approx(0.87, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_single_point(self):
        c0, err = fit_c0([0.0], [0.93])
        assert c0 == pytest.approx(0.93, abs=1e-12)
        assert err == 0.0

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        thetas = np.linspace(0, np.pi / 2, 17)
        c0, err = fit_c0(thetas, 0.87 * np.cos(thetas) + rng.normal(0, 0.01, thetas.size))
        assert c0 == pytest.approx(0.87, abs=0.02)
        assert 0 < err < 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_c0([], [])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one length"):
            fit_c0([0.0, 0.1], [0.9])

    def test_rejects_degenerate_design(self):
        with pytest.raises(ValueError, match="unidentifiable"):
            fit_c0([np.pi / 2], [0.1])


class TestCountsCsv:
    def test_rows_in_setting_order(self, tmp_path):
        counts = simulate_tomogram_counts(BELL, 100, seed=6)
        path = tmp_path / "counts.csv"
        write_counts_csv(path, counts)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["setting_a", "setting_d", "outcome", "count"]
        assert [tuple(r[:2]) for r in rows[::4]] == list(tg.ALL_SETTINGS)
        assert [r[2] for r in rows[:4]] == ["++", "+-", "-+", "--"]
        assert [int(r[3]) for r in rows] == counts.ravel().tolist()

    def test_rejects_wrong_shape(self, tmp_path):
        with pytest.raises(ValueError, match=r"\(9, 4\)"):
            write_counts_csv(tmp_path / "counts.csv", np.ones((4, 9), dtype=int))
