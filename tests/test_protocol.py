import json
import tempfile
from dataclasses import asdict
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demongain import gates, protocol
from demongain.gates import PLANTED_DELTA_PHI
from demongain.noisefit import fit
from demongain.protocol import (
    CELLS,
    CONDITIONAL_SWAP,
    DEFAULT_SEED,
    ProtocolConfig,
    analytic_concurrence,
    apply_feedback,
    demonic_gain,
    energies_from_table,
    gain_lower_bound,
    joint_cells,
    measure_demon,
    outcome_table_exact,
    policy_gain,
    prepare_resource,
    read_tables_csv,
    run_shots,
    write_tables_csv,
)
from demongain.qlin import partial_trace
from demongain.shared import draw_probs, stream
from demongain.tomography import concurrence

from conftest import random_density, resource_ket

THETA_GRID = np.linspace(0, np.pi / 2, 33)
IDEAL = (0.0, 0.0, 0.0)
RUN_SHOTS_FIXTURE = Path(__file__).resolve().parent / "data" / "run_shots_counts.json"
# (theta, noise) points of the density-matrix reference; the first is the
# config of run_shots_counts.json
REFERENCE_POINTS = [
    {"theta": 0.3, "noise": list(PLANTED_DELTA_PHI)},
    {"theta": 0.9, "noise": list(PLANTED_DELTA_PHI)},
    {"theta": 1.3, "noise": [0.1, -0.2, 0.3]},
]


def _closed_form_cells(c) -> np.ndarray:
    """(8,) closed-form cells at one reference point."""
    return joint_cells(gates.kets(c["noise"], [c["theta"]])[0])[0]


def _reference_cells(c) -> np.ndarray:
    """(8,) Pr(d, d', a') of one shot, followed through density matrices.

    The demon is measured (branch d, trace Pr(d)), left in |d>, and d
    selects the feedback: SWAP on 0, identity on 1.
    """
    rho = prepare_resource(ProtocolConfig(theta=c["theta"], delta_phi=c["noise"]))
    cells = np.zeros(8)
    for d, branch in enumerate(measure_demon(rho)):
        agent = partial_trace(branch, keep="A")
        demon = np.diag(np.eye(2)[d])
        u = CONDITIONAL_SWAP[0] if d == 0 else np.eye(4)
        pops = np.real(np.diag(gates.apply(u, np.kron(agent, demon))))  # index 2a' + d'
        for dp, ap in product((0, 1), (0, 1)):
            cells[CELLS.index((d, dp, ap))] += pops[2 * ap + dp]
    return cells


class TestPrepareResource:
    def test_theta_zero_is_bell(self):
        rho = prepare_resource(ProtocolConfig(theta=0.0))
        bell = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(rho - np.outer(bell, bell.conj()))) < 1e-12

    def test_theta_half_pi_separable(self):
        from demongain.tomography import concurrence, purity

        rho = prepare_resource(ProtocolConfig(theta=np.pi / 2))
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-10)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_theta_pi_third_diagonal(self):
        rho = prepare_resource(ProtocolConfig(theta=np.pi / 3))
        assert np.allclose(np.diag(rho).real, [3 / 8, 1 / 2, 1 / 8, 0], atol=1e-12)

    def test_matches_ideal_ket(self):
        for th in THETA_GRID:
            rho = prepare_resource(ProtocolConfig(theta=th))
            psi = resource_ket(th)
            assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-12


class TestMeasureDemon:
    def test_balanced_for_all_theta(self):
        for th in THETA_GRID:
            for b in measure_demon(prepare_resource(ProtocolConfig(theta=th))):
                assert np.trace(b).real == pytest.approx(0.5, abs=1e-12)

    def test_basis_state_deterministic(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |0_A 0_D>
        branches = measure_demon(rho)
        assert np.trace(branches[0]).real == pytest.approx(1.0)
        assert not branches[1].any()
        assert np.allclose(branches[0], rho)

    def test_branch_agent_excitation(self):
        # branch 0 is Pi_0 rho Pi_0, not renormalized: its trace is Pr(0) = 1/2
        th = np.pi / 3
        b0 = measure_demon(prepare_resource(ProtocolConfig(theta=th)))[0]
        expect = np.outer(
            [-np.sin(th), 0, np.cos(th), 0], np.conj([-np.sin(th), 0, np.cos(th), 0])
        ) / 2
        assert np.max(np.abs(b0 - expect)) < 1e-12
        assert b0[2, 2].real == pytest.approx(np.cos(th) ** 2 / 2)


class TestFeedback:
    def test_theta_zero_demon_certainly_excited(self):
        rho = prepare_resource(ProtocolConfig(theta=0.0))
        rho_p = apply_feedback(measure_demon(rho))
        assert np.allclose(partial_trace(rho_p, "D"), np.diag([0, 1]), atol=1e-12)

    def test_theta_half_pi_half_excited(self):
        rho = prepare_resource(ProtocolConfig(theta=np.pi / 2))
        rho_p = apply_feedback(measure_demon(rho))
        assert np.trace(protocol.H_DEMON @ rho_p).real == pytest.approx(0.5, abs=1e-12)

    def test_identity_policy_no_gain(self):
        rho = prepare_resource(ProtocolConfig(theta=0.4))
        eye = np.eye(4, dtype=complex)
        rho_p = apply_feedback(measure_demon(rho), policy=np.array([eye, eye]))
        assert demonic_gain(rho, rho_p) == pytest.approx(0.0, abs=1e-12)


class TestGainOracles:
    @pytest.mark.parametrize(
        "theta,expect", [(0.0, 0.5), (np.pi / 2, 0.0), (np.pi / 4, 0.25)]
    )
    def test_ideal_gain(self, theta, expect):
        rho = prepare_resource(ProtocolConfig(theta=theta))
        rho_p = apply_feedback(measure_demon(rho))
        assert demonic_gain(rho, rho_p) == pytest.approx(expect, abs=1e-12)

    def test_gain_equals_half_squared_concurrence(self):
        for th in THETA_GRID:
            rho = prepare_resource(ProtocolConfig(theta=th))
            rho_p = apply_feedback(measure_demon(rho))
            assert demonic_gain(rho, rho_p) == pytest.approx(
                analytic_concurrence(th) ** 2 / 2, abs=1e-12
            )

    def test_analytic_concurrence(self):
        assert analytic_concurrence(0.0) == 1.0
        assert analytic_concurrence(np.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert analytic_concurrence(np.pi / 3) == pytest.approx(0.5)

    def test_lower_bound_values(self):
        assert gain_lower_bound(1.0) == pytest.approx(0.5)
        assert gain_lower_bound(0.0) == 0.0
        assert gain_lower_bound(0.6) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            gain_lower_bound(1.2)

    @given(st.floats(0, np.pi / 2))
    @settings(max_examples=50, deadline=None)
    def test_gain_respects_bound(self, theta):
        c = analytic_concurrence(theta)
        assert c * c / 2 >= gain_lower_bound(c) - 1e-12


class TestOutcomeTableExact:
    @pytest.mark.parametrize(
        "theta,green,blue,yellow",
        [(0.0, 0.5, 0.0, 0.5), (np.pi / 2, 0.0, 0.5, 0.5)],
    )
    def test_ideal_corners(self, theta, green, blue, yellow):
        t = outcome_table_exact([theta], IDEAL)
        cell = dict(zip(CELLS, t.cells[0]))
        assert cell[(0, 1, 0)] == pytest.approx(green, abs=1e-12)
        assert cell[(0, 0, 0)] == pytest.approx(blue, abs=1e-12)
        assert cell[(1, 1, 0)] == pytest.approx(yellow, abs=1e-12)
        red = cell[(0, 1, 1)] + cell[(1, 1, 1)]
        assert red == pytest.approx(0.0, abs=1e-12)

    def test_ideal_closed_forms(self):
        t = outcome_table_exact(THETA_GRID, IDEAL)
        for th, row in zip(THETA_GRID, t.cells):
            cell = dict(zip(CELLS, row))
            assert cell[(0, 1, 0)] == pytest.approx(np.cos(th) ** 2 / 2, abs=1e-12)
            assert cell[(0, 0, 0)] == pytest.approx(np.sin(th) ** 2 / 2, abs=1e-12)
            assert cell[(1, 1, 0)] == pytest.approx(0.5, abs=1e-12)

    def test_gate_errors_populate_red_channel(self):
        t = outcome_table_exact([np.pi / 4], PLANTED_DELTA_PHI)
        red = t.cells[0, CELLS.index((0, 1, 1))] + t.cells[0, CELLS.index((1, 1, 1))]
        assert red > 1e-4

    def test_energies_match_state_gain(self):
        energies = energies_from_table(outcome_table_exact(THETA_GRID, IDEAL))
        for th, (_, _, dw) in zip(THETA_GRID, energies):
            rho = prepare_resource(ProtocolConfig(theta=th))
            rho_p = apply_feedback(measure_demon(rho))
            assert dw == pytest.approx(demonic_gain(rho, rho_p), abs=1e-12)

    @pytest.mark.parametrize(
        "theta,expect",
        [(0.0, (0.5, 1.0, 0.5)), (np.pi / 2, (0.5, 0.5, 0.0)), (np.pi / 4, (0.5, 0.75, 0.25))],
    )
    def test_energy_triples(self, theta, expect):
        got = energies_from_table(outcome_table_exact([theta], IDEAL))[0]
        assert got == pytest.approx(expect, abs=1e-12)

    @given(
        deltas=st.tuples(*[st.floats(-np.pi / 2, np.pi / 2, exclude_min=True, exclude_max=True)] * 3),
        thetas=st.lists(st.floats(0, np.pi / 2), min_size=1, max_size=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_cells_are_probabilities(self, deltas, thetas):
        # gates.kets gives unit kets, so no input outcome_table_exact accepts
        # reaches a cell outside [0, 1] or a row off 1
        cells = outcome_table_exact(thetas, deltas).cells
        assert np.all((cells >= 0.0) & (cells <= 1.0))
        assert np.all(np.abs(cells.sum(axis=-1) - 1.0) <= 1e-12)


class TestRunShots:
    def test_seed_determinism(self):
        args = ([0.6], IDEAL, 2000, 99)
        assert np.array_equal(run_shots(*args).counts, run_shots(*args).counts)

    def test_single_shot(self):
        t = run_shots([0.3], IDEAL, shots=1, seed=4)
        assert t.counts.sum() == 1
        assert np.count_nonzero(t.counts) == 1

    def test_empirical_matches_binomial_bound(self):
        t = run_shots([0.0], IDEAL, shots=3500, seed=11)
        assert abs(t.cells[0, CELLS.index((0, 1, 0))] - 0.5) <= 3 * np.sqrt(0.25 / 3500)

    def test_converges_to_exact(self):
        shots = 10**6
        ideal = {"theta": 0.9, "noise": [0.0] * 3}
        for c in [ideal, *REFERENCE_POINTS]:
            t = run_shots([c["theta"]], c["noise"], shots=shots, seed=77)
            q = outcome_table_exact([c["theta"]], c["noise"]).cells[0]
            for got, p in zip(t.cells[0], q):
                se = np.sqrt(p * (1 - p) / shots)
                if se == 0:
                    assert got == 0.0
                else:
                    assert abs(got - p) <= 5 * se

    def test_repeated_theta_draws_its_own_shots(self):
        t = run_shots([0.3, 0.3], IDEAL, shots=3500, seed=DEFAULT_SEED)
        assert not np.array_equal(t.counts[0], t.counts[1])

    @pytest.mark.parametrize("c", REFERENCE_POINTS)
    def test_closed_form_cells_match_density_matrix_reference(self, c):
        assert np.max(np.abs(_closed_form_cells(c) - _reference_cells(c))) <= 1e-14

    @pytest.mark.parametrize("case", json.loads(RUN_SHOTS_FIXTURE.read_text()))
    def test_counts_match_recorded_fixture(self, case):
        # counts of one multinomial draw per theta from the closed-form
        # cells under noisy gates
        c = case["config"]
        t = run_shots([c["theta"]], c["noise"], shots=c["shots"], seed=c["seed"])
        assert {f"{d}{dp}{ap}": n for (d, dp, ap), n in zip(CELLS, t.counts[0])} == case["counts"]
        assert {str(d): p for d, p in enumerate(t.pr_d[0])} == case["pr_d"]

    @given(
        thetas=st.lists(st.sampled_from([0.0, np.pi / 2]) | st.floats(0, np.pi / 2),
                        min_size=1, max_size=16),
        deltas=st.just(IDEAL) | st.tuples(
            *[st.floats(-np.pi / 2, np.pi / 2, exclude_min=True, exclude_max=True)] * 3),
        shots=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(thetas=[0.0, np.pi / 4, np.pi / 2], deltas=IDEAL, shots=3500, seed=DEFAULT_SEED)
    @settings(max_examples=100, deadline=None)
    def test_counts_are_one_draw_from_the_exact_cells(self, thetas, deltas, shots, seed):
        # outcome_table_exact zeroes cells below 1e-15, which draw_probs'
        # 12-decimal rounding zeroes anyway: the kets' own cells draw alike
        q = draw_probs(outcome_table_exact(thetas, deltas).cells)
        assert np.array_equal(q, draw_probs(joint_cells(gates.kets(deltas, thetas)[0])))
        want = stream(seed, "shots", 0).multinomial(shots, q)
        assert np.array_equal(run_shots(thetas, deltas, shots, seed).counts, want)


class TestClosedFormGain:
    """The conditional swap's gain is one matrix element: delta_W = <1_A 0_D|rho|1_A 0_D>."""

    @staticmethod
    def _gain(rho):
        return demonic_gain(rho, apply_feedback(measure_demon(rho)))

    def test_gain_is_the_10_population_of_mixed_states(self, rng):
        rhos = np.array([random_density(rng) for _ in range(2000)])
        assert np.max(np.abs(self._gain(rhos) - rhos[:, 2, 2].real)) <= 1e-15

    def test_table_gain_matches_state_gain_at_random_noise(self, rng):
        for deltas in rng.uniform(-0.7, 0.7, (5, 3)):
            rhos = prepare_resource(ProtocolConfig(theta=THETA_GRID, delta_phi=deltas))
            table_gain = energies_from_table(outcome_table_exact(THETA_GRID, deltas))[:, 2]
            assert np.max(np.abs(table_gain - self._gain(rhos))) <= 1e-12

    def test_even_bell_state_has_full_concurrence_and_no_gain(self):
        # C = 1 but delta_W = 0: the relation delta_W = C^2/2 and the bound
        # hold on the ideal family (psi_11 = 0), not for concurrence alone
        psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)
        assert self._gain(rho) == 0.0
        assert self._gain(rho) < gain_lower_bound(1.0)


class TestPolicyOptimality:
    def test_conditional_swap_is_optimal(self):
        swap_u = CONDITIONAL_SWAP[0]
        eye = np.eye(4, dtype=complex)
        x_d = np.kron(np.eye(2), [[0, 1], [1, 0]]).astype(complex)
        candidates = [eye, swap_u, x_d, x_d @ swap_u]
        for th in THETA_GRID:
            rho = prepare_resource(ProtocolConfig(theta=th))
            ref = policy_gain(rho, np.array([swap_u, eye]))
            for u0 in candidates:
                for u1 in candidates:
                    assert policy_gain(rho, np.array([u0, u1])) <= ref + 1e-12

    def test_raw_gain_is_gamed_by_local_pumping(self):
        # the raw Tr[H_D (rho' - rho)] is maximized by flipping the demon's
        # qubit, which beats the swap policy; policy_gain deducts that
        # injected energy, and the optimality claim needs the deduction
        rho = prepare_resource(ProtocolConfig(theta=np.pi / 4))
        x_d = np.kron(np.eye(2), [[0, 1], [1, 0]]).astype(complex)
        eye = np.eye(4, dtype=complex)
        pumped, swapped = np.array([x_d, eye]), np.array([CONDITIONAL_SWAP[0], eye])

        def raw(policy):
            return demonic_gain(rho, apply_feedback(measure_demon(rho), policy))

        assert raw(pumped) > raw(swapped)
        assert policy_gain(rho, pumped) < policy_gain(rho, swapped)


class TestBatched:
    """A theta stack gives items equal to the single calls bit for bit."""

    def test_items_equal_single_calls(self, rng):
        thetas = rng.uniform(0, np.pi / 2, (3, 5))
        rho = prepare_resource(ProtocolConfig(theta=thetas, delta_phi=PLANTED_DELTA_PHI))
        branches = measure_demon(rho)
        fed = apply_feedback(branches)
        swap_u, eye = CONDITIONAL_SWAP
        x_d = np.kron(np.eye(2), [[0, 1], [1, 0]]).astype(complex)
        policies = np.array(list(product([eye, swap_u, x_d, x_d @ swap_u], repeat=2)))
        gains = policy_gain(rho, policies[:, None, None])
        assert rho.shape == (3, 5, 4, 4) and branches.shape == (3, 5, 2, 4, 4)
        assert fed.shape == (3, 5, 4, 4) and gains.shape == (16, 3, 5)
        for i, j in np.ndindex(3, 5):
            cfg = ProtocolConfig(theta=float(thetas[i, j]), delta_phi=PLANTED_DELTA_PHI)
            single = prepare_resource(cfg)
            assert single.shape == (4, 4)
            assert np.array_equal(rho[i, j], single)
            assert np.array_equal(branches[i, j], measure_demon(single))
            assert np.array_equal(fed[i, j], apply_feedback(measure_demon(single)))
            for k, policy in enumerate(policies):
                assert np.array_equal(gains[k, i, j], policy_gain(single, policy))

    def test_bad_theta_in_a_stack_rejected(self):
        with pytest.raises(ValueError, match="theta must lie in"):
            prepare_resource(ProtocolConfig(theta=np.array([0.1, 2.0])))


class TestSerialization:
    def test_csv_round_trip_sampled(self, tmp_path):
        table = run_shots([0.0, 0.5, 1.0], IDEAL, shots=500, seed=8)
        path = tmp_path / "tables.csv"
        write_tables_csv(path, table)
        back = read_tables_csv(path)
        assert back.thetas.tolist() == table.thetas.tolist()
        assert np.array_equal(back.counts, table.counts)
        assert back.cells == pytest.approx(table.cells)

    def test_csv_round_trip_exact(self, tmp_path):
        table = outcome_table_exact([0.3], IDEAL)
        path = tmp_path / "tables.csv"
        write_tables_csv(path, table)
        back = read_tables_csv(path)
        assert back.counts is None
        assert back.cells == pytest.approx(table.cells, abs=1e-11)

    def test_csv_round_trip_float_counts(self, tmp_path):
        table = protocol.OutcomeTable(thetas=np.array([0.1]), cells=np.full((1, 8), 0.125),
                                      counts=np.full((1, 8), 5.0))
        path = tmp_path / "tables.csv"
        write_tables_csv(path, table)
        back = read_tables_csv(path)
        assert np.array_equal(back.counts, table.counts)
        assert np.array_equal(back.cells, table.cells)

    @pytest.mark.parametrize("bad", [5.5, np.nan, np.inf])
    def test_non_integral_count_rejected(self, tmp_path, bad):
        counts = np.full((2, 8), 5.0)
        counts[1, 3] = bad
        table = protocol.OutcomeTable(thetas=np.array([0.1, 0.2]), cells=np.full((2, 8), 0.125),
                                      counts=counts)
        path = tmp_path / "tables.csv"
        with pytest.raises(ValueError,
                           match=rf"^theta 0\.2, cell \(0, 1, 1\): count {bad} is not a whole number$"):
            write_tables_csv(path, table)
        assert not path.exists()

    @pytest.mark.parametrize("dtype", [int, float])
    def test_negative_count_rejected(self, tmp_path, dtype):
        # read_tables_csv refuses a negative count, so the writer refuses it first
        counts = np.full((1, 8), 5, dtype=dtype)
        counts[0, 2] = -1
        table = protocol.OutcomeTable(thetas=np.array([0.1]), cells=np.full((1, 8), 0.125),
                                      counts=counts)
        path = tmp_path / "tables.csv"
        with pytest.raises(ValueError, match=r"^theta 0\.1, cell \(0, 1, 0\): negative count -1$"):
            write_tables_csv(path, table)
        assert not path.exists()

    def test_thetas_alike_at_12_digits_rejected(self, tmp_path):
        table = outcome_table_exact([1.0, 1.0 + 1e-13], IDEAL)
        path = tmp_path / "tables.csv"
        with pytest.raises(ValueError, match=r"1\.0 and 1\.0000000000001 both print as 1 "):
            write_tables_csv(path, table)
        assert not path.exists()

    @given(
        thetas=st.lists(
            st.floats(0, np.pi / 2), min_size=1, max_size=6, unique_by=lambda t: f"{t:.12g}"
        ),
        deltas=st.tuples(*[st.floats(-0.7, 0.7)] * 3),
        shots=st.none() | st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_grids(self, thetas, deltas, shots, seed):
        if shots is None:
            table = outcome_table_exact(thetas, deltas)
        else:
            table = run_shots(thetas, deltas, shots, seed)
        with tempfile.TemporaryDirectory() as d:
            write_tables_csv(Path(d) / "tables.csv", table)
            back = read_tables_csv(Path(d) / "tables.csv")
        # the CSV keeps 12 significant digits and the counts exactly
        assert np.allclose(back.thetas, table.thetas, rtol=1e-11, atol=0)
        assert np.allclose(back.cells, table.cells, rtol=1e-11, atol=0)
        if shots is None:
            assert back.counts is None
        else:
            assert np.array_equal(back.counts, table.counts)


def test_config_validation():
    with pytest.raises(ValueError, match="theta"):
        prepare_resource(ProtocolConfig(theta=-0.1))
    with pytest.raises(ValueError):
        run_shots([0.2], IDEAL, shots=0, seed=1)
    with pytest.raises(ValueError, match="theta"):
        outcome_table_exact([0.1, 2.0], IDEAL)


def test_deviations_in_any_plain_form_give_the_same_bits():
    # a tuple, a list, a (3,) array and a (1, 3) array of the same deviations
    forms = [PLANTED_DELTA_PHI, list(PLANTED_DELTA_PHI), np.array(PLANTED_DELTA_PHI),
             np.array([PLANTED_DELTA_PHI])]
    thetas = np.linspace(0, np.pi / 2, 9)
    data = run_shots(thetas, PLANTED_DELTA_PHI, 500, 3)

    def outputs(delta_phi):
        return [outcome_table_exact(thetas, delta_phi).cells.tobytes(),
                run_shots(thetas, delta_phi, 500, 3).counts.tobytes(),
                prepare_resource(ProtocolConfig(thetas, delta_phi)).tobytes(),
                asdict(fit(data, init=delta_phi))]

    first = outputs(forms[0])
    for delta_phi in forms[1:]:
        assert outputs(delta_phi) == first
