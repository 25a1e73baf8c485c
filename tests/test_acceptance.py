"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the status lines
inline; under plain `pytest -v` the verdict is the test outcome itself.
"""

import time

import numpy as np
import pytest

from demongain import protocol, shared, tomography
from demongain.gates import PLANTED_DELTA_PHI
from demongain.noisefit import CELLS, bootstrap_spread, fit, model_curves
from demongain.protocol import (
    DEFAULT_SEED,
    DEFAULT_SHOTS,
    OutcomeTable,
    ProtocolConfig,
    analytic_concurrence,
    apply_feedback,
    demonic_gain,
    energies_from_table,
    gain_lower_bound,
    measure_demon,
    outcome_table_exact,
    policy_gain,
    prepare_resource,
    run_shots,
)
from demongain.qlin import kron
from conftest import draw_resamples, haar_unitary, random_density

HALF_PI = np.pi / 2
GRID = np.linspace(0.0, HALF_PI, 33)
# regression fixture: amplitude of the model-implied concurrence-vs-theta
# cosine under PLANTED_DELTA_PHI, 17-point grid (see notes ledger)
MODEL_IMPLIED_C0 = 0.9580143261163677


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_gain_equals_half_squared_concurrence():
    t0 = time.perf_counter()
    rho = prepare_resource(ProtocolConfig(theta=GRID))
    rho_p = apply_feedback(measure_demon(rho))
    dev = np.max(np.abs(demonic_gain(rho, rho_p) - np.cos(GRID) ** 2 / 2))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (gain relation)",
        dev <= 1e-12 and elapsed < 1.0,
        f"max |deltaW - cos^2(theta)/2| = {dev:.3e} over 33 points in {elapsed:.2f}s",
    )


def test_criterion_02_gain_lower_bound_with_tight_edges():
    t0 = time.perf_counter()
    rho = prepare_resource(ProtocolConfig(theta=GRID))
    dw = demonic_gain(rho, apply_feedback(measure_demon(rho)))
    min_slack = np.min(dw - gain_lower_bound(analytic_concurrence(GRID)))
    edge_dev = 0.0
    for theta in (0.0, HALF_PI):
        rho = prepare_resource(ProtocolConfig(theta=theta))
        rho_p = apply_feedback(measure_demon(rho))
        dw = demonic_gain(rho, rho_p)
        edge_dev = max(edge_dev, abs(dw - gain_lower_bound(analytic_concurrence(theta))))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (entanglement bound)",
        min_slack >= -1e-12 and edge_dev <= 1e-12 and elapsed < 1.0,
        f"min slack {min_slack:.3e}, edge deviation {edge_dev:.3e} in {elapsed:.2f}s",
    )


def test_criterion_03_concurrence_cosine_law_and_lu_invariance():
    dev = 0.0
    for theta in GRID:
        rho = prepare_resource(ProtocolConfig(theta=float(theta)))
        dev = max(dev, abs(tomography.concurrence(rho) - abs(np.cos(theta))))
    rng = np.random.default_rng(20240901)
    rho = prepare_resource(ProtocolConfig(theta=np.pi / 5))
    c_ref = tomography.concurrence(rho)
    lu_dev = 0.0
    for _ in range(100):
        u = kron(haar_unitary(rng), haar_unitary(rng))
        lu_dev = max(lu_dev, abs(tomography.concurrence(u @ rho @ u.conj().T) - c_ref))
    _report(
        "criterion 3 (concurrence law)",
        dev <= 1e-10 and lu_dev <= 1e-9,
        f"grid deviation {dev:.3e}, local-unitary deviation {lu_dev:.3e} (100 draws)",
    )


def test_criterion_04_balanced_measurement():
    branches = measure_demon(prepare_resource(ProtocolConfig(theta=GRID)))
    dev = np.max(np.abs(np.trace(branches, axis1=-2, axis2=-1).real - 0.5))
    _report(
        "criterion 4 (balanced probabilities)",
        dev <= 1e-12,
        f"max |Pr(d) - 1/2| = {dev:.3e}",
    )


def test_criterion_05_sampled_conditionals_within_five_sigma():
    t0 = time.perf_counter()
    worst_z = 0.0
    ok = True
    exact = outcome_table_exact(GRID, (0.0, 0.0, 0.0))
    sampled = run_shots(GRID, (0.0, 0.0, 0.0), DEFAULT_SHOTS, DEFAULT_SEED)
    for i in range(len(GRID)):
        for d in (0, 1):
            n_d = sampled.counts[i, 4 * d : 4 * d + 4].sum()
            if n_d == 0:
                continue
            for dp in (0, 1):
                for ap in (0, 1):
                    j = CELLS.index((d, dp, ap))
                    p = exact.cells[i, j] / exact.pr_d[i, d]
                    p_hat = sampled.counts[i, j] / n_d
                    se = np.sqrt(p * (1 - p) / n_d)
                    if se == 0.0:
                        ok &= abs(p_hat - p) == 0.0
                    else:
                        z = abs(p_hat - p) / se
                        worst_z = max(worst_z, z)
                        ok &= z <= 5.0
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5 (shot-sampled fidelity)",
        ok and elapsed < 30.0,
        f"worst conditional-cell z-score {worst_z:.2f} (3500 shots/point) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_06_tomography_oracle_and_small_shot_behaviour():
    rng = np.random.default_rng(7)
    dev = 0.0
    for _ in range(200):
        rho = random_density(rng)
        rec = tomography.linear_inversion(tomography.setting_probs(rho))
        dev = max(dev, float(np.max(np.abs(rec - rho))))
    bell = prepare_resource(ProtocolConfig(theta=0.0))
    concs, purities = [], []
    for seed in range(50):
        rho_hat = tomography.linear_inversion(
            tomography.simulate_tomogram_counts(bell, shots=100, seed=seed)
        )
        concs.append(tomography.concurrence(rho_hat))
        purities.append(tomography.purity(rho_hat))
    mean_c = float(np.mean(concs))
    any_super_pure = any(p > 1.0 for p in purities)
    _report(
        "criterion 6 (tomography oracle + finite shots)",
        dev <= 1e-12 and abs(mean_c - 1.0) <= 0.05 and any_super_pure,
        f"inversion error {dev:.3e} (200 states); mean concurrence {mean_c:.4f} "
        f"at 100 shots/setting over 50 seeds; purity>1 seen: {any_super_pure}",
    )


def test_criterion_07_bootstrap_determinism_and_width_scaling():
    bell = prepare_resource(ProtocolConfig(theta=0.0))
    # determinism
    rho_hat = tomography.linear_inversion(
        tomography.simulate_tomogram_counts(bell, shots=100, seed=12)
    )
    a = tomography.bootstrap(draw_resamples(rho_hat, shots=100, resamples=500, seed=3))
    b = tomography.bootstrap(draw_resamples(rho_hat, shots=100, resamples=500, seed=3))
    deterministic = a.lower == b.lower and a.upper == b.upper

    # order invariance: redraw the resamples setting by setting from the
    # bootstrap's one keyed stream, from the setting probabilities rounded
    # to 12 decimals and renormalized, and score them in reverse order
    dists = []
    for s in tomography.ALL_SETTINGS:
        u = kron(tomography._ROT_TO_Z[s[0]], tomography._ROT_TO_Z[s[1]])
        d = np.clip(np.real(np.diag(u @ rho_hat @ u.conj().T)), 0.0, None)
        d = np.round(d / d.sum(), 12)
        dists.append(d / d.sum())
    rng = shared.stream(3, "bootstrap", 0)
    draws = [np.array([rng.multinomial(100, d) for d in dists]) for _ in range(500)]
    conc = np.empty(500)
    for r in reversed(range(500)):
        conc[r] = tomography.concurrence(tomography.linear_inversion(draws[r]))
    order_invariant = (
        abs(np.percentile(conc, 16.0) - a.lower["concurrence"]) < 1e-12
        and abs(np.percentile(conc, 84.0) - a.upper["concurrence"]) < 1e-12
    )

    # width ~ 1/sqrt(shots) across 1e2, 1e4, 1e6 within factor 1.5 of 10x
    rho = prepare_resource(ProtocolConfig(theta=np.pi / 4))
    widths = []
    for shots in (100, 10_000, 1_000_000):
        rh = tomography.linear_inversion(
            tomography.simulate_tomogram_counts(rho, shots=shots, seed=21)
        )
        s = tomography.bootstrap(draw_resamples(rh, shots=shots, resamples=500, seed=21))
        widths.append(s.upper["concurrence"] - s.lower["concurrence"])
    ratios = (widths[0] / widths[1], widths[1] / widths[2])
    scaling_ok = all(10.0 / 1.5 <= r <= 10.0 * 1.5 for r in ratios)
    _report(
        "criterion 7 (bootstrap behaviour)",
        deterministic and order_invariant and scaling_ok,
        f"deterministic={deterministic}, order-invariant={order_invariant}, "
        f"width ratios {ratios[0]:.2f}, {ratios[1]:.2f} (ideal 10)",
    )


def test_criterion_08_noise_fit_recovery():
    t0 = time.perf_counter()
    thetas = np.linspace(0.0, HALF_PI, 17)
    ds = model_curves(PLANTED_DELTA_PHI, thetas)
    exact_fit = fit(ds)
    exact_err = float(np.max(np.abs(np.array(exact_fit.delta_phi) - PLANTED_DELTA_PHI)))

    shots = 3500
    fits = np.empty((20, 3))
    for seed in range(20):
        rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
        counts = rng.multinomial(shots, ds.cells)
        fits[seed] = fit(OutcomeTable(thetas=thetas, cells=counts / shots)).delta_phi
    spread = fits.std(axis=0)
    noisy_dev = np.abs(fits.mean(axis=0) - np.array(PLANTED_DELTA_PHI))
    noisy_ok = bool(np.all(noisy_dev <= 3 * spread))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8 (noise-fit recovery)",
        exact_err <= 1e-3 * HALF_PI and noisy_ok and elapsed < 300.0,
        f"exact-curve error {exact_err:.2e} rad; noisy mean deviation / 3*spread = "
        f"{np.max(noisy_dev / (3 * spread)):.2f} over 20 seeds in {elapsed:.0f}s",
    )


def test_criterion_09_model_implied_amplitude_regression():
    thetas = np.linspace(0.0, HALF_PI, 17)
    concs = [tomography.concurrence(prepare_resource(
        ProtocolConfig(theta=float(t), delta_phi=PLANTED_DELTA_PHI))) for t in thetas]
    c0, _ = tomography.fit_c0(thetas, concs)
    dev = abs(c0 - MODEL_IMPLIED_C0)
    _report(
        "criterion 9 (model-implied amplitude fixture)",
        dev <= 1e-9 and c0 < 1.0,
        f"c0 = {c0:.12f} (fixture deviation {dev:.2e}); below 1: {c0 < 1.0}",
    )


def test_criterion_10_conditional_swap_is_optimal_policy():
    swap_u, ident = protocol.CONDITIONAL_SWAP
    x_d = kron(np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex))
    candidates = [ident, swap_u, x_d, x_d @ swap_u]
    worst_margin = np.inf
    ok = True
    for theta in GRID:
        rho = prepare_resource(ProtocolConfig(theta=float(theta)))
        ref = policy_gain(rho, np.array([swap_u, ident]))
        for u0 in candidates:
            for u1 in candidates:
                gain = policy_gain(rho, np.array([u0, u1]))
                if gain > ref + 1e-12:
                    ok = False
                worst_margin = min(worst_margin, ref - gain)
    _report(
        "criterion 10 (policy optimality)",
        ok,
        f"conditional swap beats or ties all 16 combinations at every grid "
        f"point (worst margin {worst_margin:.3e})",
    )
