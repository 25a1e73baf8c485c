"""Tests for the three-parameter phase-deviation fit."""

import json
import tracemalloc
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lone_fit, spread_by_refits
from demongain import noisefit
from demongain.cli import main
from demongain.gates import PLANTED_DELTA_PHI
from demongain.noisefit import (
    CELLS,
    LIVE,
    FitResult,
    bootstrap_spread,
    fit,
    model_cells,
    model_curves,
    residual,
)
from demongain.protocol import (
    OutcomeTable,
    ProtocolConfig,
    apply_feedback,
    measure_demon,
    prepare_resource,
    run_shots,
    write_tables_csv,
)

HALF_PI = np.pi / 2
THETAS = np.linspace(0.0, HALF_PI, 17)
SHOTS = 3500
# delta_phi_3 on its upper bound pi/4: most refits of 40-shot draws end there
AT_BOUND = (*PLANTED_DELTA_PHI[:2], np.pi / 4)
# (truth, shots per theta) of the datasets the lockstep descent is checked on
LOCKSTEP_CASES = {
    "planted": (PLANTED_DELTA_PHI, SHOTS),
    "at bound, 40 shots": (AT_BOUND, 40),
    "zero noise": ((0.0, 0.0, 0.0), SHOTS),
}


def sampled(delta_phi, k: int, shots: int = SHOTS) -> OutcomeTable:
    """Dataset k: one multinomial draw of `shots` per theta from the exact cells."""
    cells = model_cells(np.array([delta_phi]), THETAS)[0]
    counts = np.random.default_rng([k, 2]).multinomial(shots, cells / cells.sum(-1, keepdims=True))
    return OutcomeTable(thetas=THETAS, cells=counts / shots, counts=counts)


class TestModelCells:
    def test_matches_exact_simulator(self):
        # the ket model must agree with the density-matrix path: cells from
        # each measured branch's post-feedback diagonal, built here
        rng = np.random.default_rng(3)
        params = rng.uniform(-0.2 * HALF_PI, 0.2 * HALF_PI, size=(6, 3))
        thetas = rng.uniform(0.0, HALF_PI, size=5)
        thetas.sort()
        cells = model_cells(params, thetas)
        for m, p in enumerate(params):
            for n, th in enumerate(thetas):
                rho = prepare_resource(
                    ProtocolConfig(theta=float(th), delta_phi=p)
                )
                ref = {}
                branches = measure_demon(rho)
                for d in (0, 1):
                    # the feedback of branch d alone: the other branch is zeroed
                    diag = np.diag(apply_feedback(branches * np.eye(2)[d, :, None, None])).real
                    for ap in (0, 1):
                        for dp in (0, 1):
                            ref[(d, dp, ap)] = diag[2 * ap + dp]
                ref = np.array([ref[c] for c in CELLS])
                assert np.max(np.abs(cells[m, n] - ref)) < 1e-14

    def test_rows_normalized(self):
        cells = model_cells(np.zeros((1, 3)), THETAS)
        assert np.allclose(cells.sum(axis=-1), 1.0, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_probabilities_valid(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(-np.pi / 4, np.pi / 4, size=(1, 3))
        cells = model_cells(p, THETAS)
        assert np.all(cells >= -1e-15)
        assert np.allclose(cells.sum(axis=-1), 1.0, atol=1e-12)


class TestTable:
    """The coefficient table against the kets it is read from."""

    @pytest.mark.parametrize(
        "thetas",
        [np.sort(np.random.default_rng(4).uniform(0.0, HALF_PI, 17)), np.array([0.7]),
         np.linspace(0.0, HALF_PI, 5)],
        ids=["17 theta", "1 theta", "with 0 and pi/2"],
    )
    def test_product_equals_model_cells(self, thetas):
        x = np.random.default_rng(5).uniform(*noisefit.BOUNDS, size=(500, 3))
        p = noisefit._linearize(np.zeros((500, len(thetas), 4)), noisefit._table(thetas), x)[0]
        assert np.max(np.abs(p[:, 0] - model_cells(x, thetas)[..., LIVE])) <= 1e-13

    def test_derivatives_equal_the_shift_rule(self):
        # dp/dx_k = [p(x + s e_k) - p(x - s e_k)] / (2 sin s) holds exactly for
        # a + b cos + c sin at any shift; s = pi/2 would leave kets' range
        s = np.pi / 4
        x = np.random.default_rng(6).uniform(*noisefit.BOUNDS, size=(100, 3))
        p = noisefit._linearize(np.zeros((100, 17, 4)), noisefit._table(THETAS), x)[0]
        for k in range(3):
            shift = s * np.eye(3)[k]
            rule = (model_cells(x + shift, THETAS) - model_cells(x - shift, THETAS))[..., LIVE]
            assert np.max(np.abs(p[:, 1 + k] - rule / (2 * np.sin(s)))) <= 1e-13

    @pytest.mark.parametrize("rows, n", [(216, 17), (128, 33)])
    def test_stacked_linearize_rows_equal_lone_rows(self, rows, n):
        # each row takes a product of its own: a 2-D product of the stack
        # gives other bits for some rows at these shapes
        rng = np.random.default_rng(7)
        thetas = np.linspace(0.0, HALF_PI, n)
        table = noisefit._table(thetas)
        x = rng.uniform(*noisefit.BOUNDS, size=(rows, 3))
        obs = rng.dirichlet(np.ones(4), size=(rows, n))
        whole = noisefit._linearize(obs, table, x)
        for i in range(rows):
            lone = noisefit._linearize(obs[i:i + 1], table, x[i:i + 1])
            assert all(a[i].tobytes() == b[0].tobytes() for a, b in zip(whole, lone)), i

    @pytest.mark.parametrize("max_iter", [100, 2])
    def test_one_model_cells_call_per_fit_and_per_spread(self, monkeypatch, max_iter):
        # the table's 27 nodes, whatever the iteration count; fit's residual
        # then evaluates the result once more
        monkeypatch.setattr(noisefit, "_MAX_ITER", max_iter)
        rows = []

        def counted(delta_phi, thetas, _f=noisefit.model_cells):
            rows.append(len(np.atleast_2d(delta_phi)))
            return _f(delta_phi, thetas)

        monkeypatch.setattr(noisefit, "model_cells", counted)
        ds = sampled(PLANTED_DELTA_PHI, 0)
        for init in (None, PLANTED_DELTA_PHI):
            rows.clear()
            res = fit(ds, init=init)
            assert res.iterations >= min(max_iter, 2) and rows == [27, 1]
        rows.clear()
        bootstrap_spread(ds, res, shots=SHOTS, resamples=noisefit._BLOCK + 1, seed=5)
        assert rows == [27]


class TestCurveDataset:
    """The fit's dataset: one OutcomeTable over the theta grid."""

    def test_requires_increasing_thetas(self):
        ds = model_curves((0.0, 0.0, 0.0), [0.2, 0.1])
        with pytest.raises(ValueError, match="increasing"):
            fit(ds)

    def test_cell_matrix_shape(self):
        ds = model_curves((0.0, 0.0, 0.0), THETAS)
        assert ds.cells.shape == (len(THETAS), 8)


class TestResidual:
    def test_zero_at_truth(self):
        ds = model_curves(PLANTED_DELTA_PHI, THETAS)
        assert residual(np.array(PLANTED_DELTA_PHI), ds) < 1e-24

    def test_is_pearson_chi_square_over_live_cells(self):
        ds = sampled(PLANTED_DELTA_PHI, 0)
        p = model_cells(np.array([PLANTED_DELTA_PHI]), THETAS)[0][:, LIVE]
        expected = ((ds.cells[:, LIVE] - p) ** 2 / p).sum()
        assert residual(np.array(PLANTED_DELTA_PHI), ds) == pytest.approx(expected, rel=1e-12)

    def test_positive_away_from_truth(self):
        ds = model_curves(PLANTED_DELTA_PHI, THETAS)
        assert residual(np.zeros(3), ds) > 1e-6

    def test_truth_beats_grid(self):
        # the loss at the generating parameters lower-bounds any grid probe
        ds = model_curves(PLANTED_DELTA_PHI, THETAS)
        r_true = residual(np.array(PLANTED_DELTA_PHI), ds)
        rng = np.random.default_rng(11)
        for p in rng.uniform(-np.pi / 4, np.pi / 4, size=(25, 3)):
            assert residual(p, ds) >= r_true


class TestFit:
    def test_recovers_zero_noise(self):
        ds = model_curves((0.0, 0.0, 0.0), THETAS)
        res = fit(ds)
        assert np.max(np.abs(res.delta_phi)) < 1e-4 * HALF_PI
        assert res.converged

    def test_recovers_planted_values(self):
        ds = model_curves(PLANTED_DELTA_PHI, THETAS)
        res = fit(ds)
        assert np.max(np.abs(np.array(res.delta_phi) - PLANTED_DELTA_PHI)) < (
            1e-3 * HALF_PI
        )
        assert res.residual < 1e-12

    def test_init_skips_grid_and_refines(self):
        ds = model_curves(PLANTED_DELTA_PHI, THETAS)
        near = tuple(d + 0.003 for d in PLANTED_DELTA_PHI)
        res = fit(ds, init=near)
        assert np.max(np.abs(np.array(res.delta_phi) - PLANTED_DELTA_PHI)) < (
            1e-3 * HALF_PI
        )

    def test_deterministic(self):
        ds = model_curves(PLANTED_DELTA_PHI, THETAS)
        assert fit(ds).delta_phi == fit(ds).delta_phi

    def test_rejects_empty_dataset(self):
        ds = OutcomeTable(thetas=np.array([]), cells=np.empty((0, 8)))
        with pytest.raises(ValueError, match="empty"):
            fit(ds)

    @pytest.mark.parametrize(
        "point",
        [(0, 0, 0), (0.02, -0.03, 0.05), (0.1, 0.2, 0), (-0.05, 0.1, 0.3), (0.009, 0.068, 0.165)],
    )
    @pytest.mark.parametrize("n", [5, 17, 33])
    def test_recovers_exact_curves_to_1e9(self, point, n):
        truth = np.array(point) * HALF_PI
        res = fit(model_curves(truth, np.linspace(0.0, HALF_PI, n)))
        assert res.converged and not res.at_bound
        assert np.max(np.abs(np.array(res.delta_phi) - truth)) <= 1e-9
        assert res.residual < 1e-20
        assert res.fisher_stderr is None  # exact curves carry no counts

    def test_bound_clips_and_is_reported(self):
        # a planted delta_phi_3 = 0.6 pi/2 lies above the upper bound pi/4
        beyond = (*PLANTED_DELTA_PHI[:2], 0.6 * HALF_PI)
        res = fit(model_curves(beyond, THETAS))
        assert res.converged and res.at_bound
        assert res.delta_phi[2] == noisefit.BOUNDS[1] == np.pi / 4

    def test_iteration_cap_is_not_convergence(self, monkeypatch):
        monkeypatch.setattr(noisefit, "_MAX_ITER", 1)
        res = fit(sampled(PLANTED_DELTA_PHI, 0))
        assert res.iterations == 1 and not res.converged

    def test_sampled_zero_noise_converges_without_warnings(self):
        # a noiseless model puts p ~ 1e-33 in live cells; their weight is floored
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(sampled((0.0, 0.0, 0.0), 0))
        assert res.converged and 1 <= res.iterations <= 10
        assert np.max(np.abs(res.delta_phi)) < 0.03 * HALF_PI

    @pytest.mark.parametrize("cell", [c for i, c in enumerate(CELLS) if i not in LIVE])
    def test_rejects_data_in_a_structurally_empty_cell(self, cell):
        ds = model_curves(PLANTED_DELTA_PHI, THETAS)
        j = CELLS.index(cell)
        ds.cells[3, LIVE[0]] -= 0.001
        ds.cells[3, j] += 0.001
        pattern = rf"theta {THETAS[3]:.12g}, cell \({cell[0]}, {cell[1]}, {cell[2]}\): probability 0\.001 "
        with pytest.raises(ValueError, match=pattern):
            fit(ds)

    def test_rejects_counts_of_qnd_flips(self):
        # a readout that flips the demon's qubit would put shots in cells the
        # three-deviation model leaves empty; here they are moved there
        ds = run_shots(THETAS, PLANTED_DELTA_PHI, SHOTS, 7)
        ds.counts[8:, :2] += [-3, 3]  # (0, 0, 0) -> (0, 0, 1) from the ninth theta on
        ds = replace(ds, cells=ds.counts / SHOTS)
        with pytest.raises(ValueError, match=r"count [1-9]\d* in a cell that no phase deviation"):
            fit(ds)


class TestCalibration:
    """The reported spreads against the scatter of fits to independent draws."""

    # 200 datasets put the standard error of an empirical standard deviation
    # at 1/sqrt(2 * 199) = 5%, a third of the 15% tolerance
    DATASETS = 200

    def test_fisher_stderr_matches_scatter(self):
        fits = [fit(sampled(PLANTED_DELTA_PHI, k)) for k in range(self.DATASETS)]
        assert all(f.converged for f in fits)
        scatter = np.std([f.delta_phi for f in fits], axis=0)
        stderr = np.mean([f.fisher_stderr for f in fits], axis=0)
        assert np.all(np.abs(stderr / scatter - 1.0) <= 0.15), stderr / scatter

    def test_bootstrap_spread_matches_fisher_stderr(self):
        ds = sampled(PLANTED_DELTA_PHI, 0)
        res = fit(ds)
        spread = bootstrap_spread(ds, res, shots=SHOTS, resamples=200, seed=5)
        ratio = np.array(spread) / np.array(res.fisher_stderr)
        assert np.all(np.abs(ratio - 1.0) <= 0.25), ratio


class TestSensitivity:
    def test_each_parameter_moves_the_curves(self):
        # all three slots are identifiable: perturbing any one changes
        # the cell probabilities somewhere on the grid
        base = model_cells(np.array([PLANTED_DELTA_PHI]), THETAS)[0]
        for k in range(3):
            p = np.array(PLANTED_DELTA_PHI)
            p[k] += 0.02
            moved = model_cells(p[None, :], THETAS)[0]
            assert np.max(np.abs(moved - base)) > 1e-5

    def test_the_only_sign_twin_flips_slots_2_and_3(self):
        # X(x)X commutes with Z(x)Z, so flipping delta_phi_2 and delta_phi_3
        # together leaves every cell; any other sign flip moves them
        p = np.array([0.05, 0.1, 0.2])
        base = model_cells(p[None], THETAS)[0]
        for signs in product((1, -1), repeat=3):
            if signs == (1, 1, 1):
                continue
            moved = np.max(np.abs(model_cells((p * signs)[None], THETAS)[0] - base))
            if signs == (1, -1, -1):
                assert moved <= 1e-15
            else:
                assert moved > 1e-3, signs

    def test_no_slot_exchange_symmetry(self):
        p = np.array(PLANTED_DELTA_PHI)
        swapped = p[[0, 2, 1]]
        a = model_cells(p[None, :], THETAS)[0]
        b = model_cells(swapped[None, :], THETAS)[0]
        assert np.max(np.abs(a - b)) > 1e-4


class TestBootstrapSpread:
    def test_deterministic_and_positive(self):
        ds = model_curves(PLANTED_DELTA_PHI, THETAS[::4])
        res = fit(ds, init=PLANTED_DELTA_PHI)
        s1 = bootstrap_spread(ds, res, shots=2000, resamples=8, seed=5)
        s2 = bootstrap_spread(ds, res, shots=2000, resamples=8, seed=5)
        assert s1 == s2
        assert all(s > 0 for s in s1)

    @pytest.mark.parametrize(
        "shots, resamples, message",
        [
            (2000, 1, "resamples must be >= 2"),  # a spread of one refit reads 0
            (2000, -1, "resamples must be >= 2"),
            (0, 8, "shots must be >= 1"),
        ],
    )
    def test_bad_sizes_rejected(self, shots, resamples, message):
        ds = model_curves(PLANTED_DELTA_PHI, THETAS[::4])
        res = fit(ds, init=PLANTED_DELTA_PHI)
        with pytest.raises(ValueError, match=f"^{message}$"):
            bootstrap_spread(ds, res, shots=shots, resamples=resamples, seed=5)

    def test_memory_is_bounded_by_the_block(self, monkeypatch):
        # refits run in blocks, so the traced peak does not grow with
        # resamples. The peak is a block's first linearization, so one
        # iteration reaches it: on this dataset, one descent over all 1000 rows
        # peaks at 36 MB against 2.3 MB per block, at any iteration cap.
        monkeypatch.setattr(noisefit, "_MAX_ITER", 1)
        ds = sampled(PLANTED_DELTA_PHI, 0)
        res = fit(ds)

        def peak(resamples: int) -> int:
            tracemalloc.start()
            try:
                bootstrap_spread(ds, res, shots=SHOTS, resamples=resamples, seed=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) <= 2 * peak(noisefit._BLOCK)


def lstsq_point(r, jac, damping: float, x):
    """noisefit._lm_point of one row by its definition, its held deviations and error scale.

    np.linalg.lstsq on [J; sqrt(damping) D] at rcond=_RCOND; a deviation
    that the step would push past its bound is held and the system solved
    again without its column. The scale |r| / sigma, sigma the least
    singular value kept, bounds the step, and rounding in a backward-stable
    solve moves the step by a multiple of machine epsilon times it.
    """
    def solve(free):
        j = jac[:, free]
        a = np.vstack([j, np.sqrt(damping) * np.diag(np.linalg.norm(j, axis=0))])
        b = -np.concatenate([r, np.zeros(j.shape[1])])
        s, _, rank, sv = np.linalg.lstsq(a, b, rcond=noisefit._RCOND)
        step = np.zeros(3)
        step[free] = s
        return step, np.linalg.norm(r) / sv[rank - 1] if rank else 0.0

    lo, hi = noisefit.BOUNDS
    s, scale = solve(np.ones(3, dtype=bool))
    held = ((x <= lo) & (s < 0)) | ((x >= hi) & (s > 0))
    if held.any():
        s, scale = solve(~held)
    return np.clip(x + s, lo, hi), held, scale


def recorded_rows(case: str):
    """(r, J, x) of every row the step solves in a fit and a 20-refit spread of a case."""
    delta_phi, shots = LOCKSTEP_CASES[case]
    ds = sampled(delta_phi, 0, shots)
    rows, step = [], noisefit._lm_point

    def record(r, jac, damping, x):
        rows.append((r, jac, x))
        return step(r, jac, damping, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noisefit, "_lm_point", record)
        bootstrap_spread(ds, fit(ds), shots=shots, resamples=20, seed=5)
    return tuple(np.concatenate(a) for a in zip(*rows))


class TestStep:
    """noisefit._lm_point against lstsq on the linearizations a fit and its spread make.

    The planted case is well conditioned. In the zero-noise case the
    delta_phi_2 and delta_phi_3 columns of J are rounding noise, below
    _RCOND of the strongest, so only the cut-off keeps the step finite.
    In the 40-shot case at the bound, steps push deviations past it.
    """

    @pytest.mark.parametrize("damping", [0.0, 1e-3, 10.0])
    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_matches_lstsq(self, case, damping):
        r, jac, x = recorded_rows(case)
        got = noisefit._lm_point(r, jac, damping, x)
        held = np.zeros(x.shape, dtype=bool)
        for k in range(len(x)):
            want, held[k], scale = lstsq_point(r[k], jac[k], damping, x[k])
            assert np.linalg.norm(got[k] - want) <= 1e-12 * scale, k
        sv = np.linalg.svd(jac, compute_uv=False)
        cut = (sv[:, -1] <= noisefit._RCOND * sv[:, 0]).any()
        assert cut == (case == "zero noise")
        assert held.any() == (case == "at bound, 40 shots")

    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_a_row_does_not_depend_on_its_stack(self, case):
        r, jac, x = recorded_rows(case)
        damping = np.random.default_rng(1).choice([0.0, 1e-3, 10.0], size=len(x))
        whole = noisefit._lm_point(r, jac, damping, x)
        rng = np.random.default_rng(2)
        for rows in (rng.permutation(len(x)), rng.choice(len(x), len(x) // 3, replace=False)):
            part = noisefit._lm_point(r[rows], jac[rows], damping[rows], x[rows])
            assert part.tobytes() == whole[rows].tobytes()
        for k in rng.choice(len(x), 5, replace=False):
            # one row, unstacked and with J in column-major order as `lone_fit` passes it
            lone = noisefit._lm_point(r[k], np.asfortranarray(jac[k]), damping[k], x[k])
            assert lone.tobytes() == whole[k].tobytes()

    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_solves_are_batched_per_round(self, monkeypatch, case):
        # a lockstep round is one _linearize call; the steps of all its rows
        # take one or two stacked solves, however many rows iterate
        delta_phi, shots = LOCKSTEP_CASES[case]
        ds = sampled(delta_phi, 0, shots)
        res = fit(ds)
        calls = []
        for module, name in ((np.linalg, "svd"), (np.linalg, "lstsq"), (noisefit, "_linearize")):
            def wrapped(*args, _f=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)
        bootstrap_spread(ds, res, shots=shots, resamples=noisefit._BLOCK + 1, seed=5)
        rounds = " ".join(calls).split("_linearize")
        assert len(rounds) > 2 and max(len(part.split()) for part in rounds) <= 3


class TestLockstep:
    """Each row of the lockstep descent against the same fit iterated alone.

    At _MAX_ITER 5 some planted refits converge and others stop at the
    cap; at 2 every row stops unconverged. The 40-shot refits at the
    bound take 6 to 83 iterations, and two of them stop on the damping cap.
    """

    @pytest.mark.parametrize("max_iter", [100, 5, 2])
    @pytest.mark.parametrize("init", [None, PLANTED_DELTA_PHI], ids=["grid", "init"])
    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_fit_matches_lone_fit(self, monkeypatch, case, init, max_iter):
        monkeypatch.setattr(noisefit, "_MAX_ITER", max_iter)
        ds = sampled(LOCKSTEP_CASES[case][0], 0, LOCKSTEP_CASES[case][1])
        assert fit(ds, init=init) == lone_fit(ds, init=init)

    @pytest.mark.parametrize(
        "resamples, max_iter",
        [(2, 100), (noisefit._BLOCK, 100), (noisefit._BLOCK + 1, 100),
         (noisefit._BLOCK + 1, 5), (noisefit._BLOCK + 1, 2)],
    )
    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_spread_matches_refits(self, monkeypatch, case, resamples, max_iter):
        monkeypatch.setattr(noisefit, "_MAX_ITER", max_iter)
        delta_phi, shots = LOCKSTEP_CASES[case]
        ds = sampled(delta_phi, 0, shots)
        res = fit(ds)
        spread = bootstrap_spread(ds, res, shots=shots, resamples=resamples, seed=5)
        assert spread == spread_by_refits(ds, res, shots=shots, resamples=resamples, seed=5)


def _fit_json(tmp_path, data: OutcomeTable) -> dict:
    """fit_result.json as `demongain fit` writes it for `data`."""
    write_tables_csv(tmp_path / "tables.csv", data)
    (tmp_path / "fit.json").write_text(json.dumps({"fit": {"dataset": "tables.csv"}}))
    assert main(["fit", "--manifest", str(tmp_path / "fit.json"), "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "fit_result.json").read_text())


class TestFitJson:
    def test_write(self, tmp_path, monkeypatch):
        # every FitResult field as it is, no spread without refits, and delta_phi in units of pi/2
        res = FitResult(delta_phi=(0.01, 0.02, 0.03), residual=1e-9, converged=True)
        monkeypatch.setattr(noisefit, "fit", lambda data, init=None: res)
        assert _fit_json(tmp_path, model_curves(PLANTED_DELTA_PHI, THETAS)) == {
            "schema_version": 1,
            "delta_phi": [0.01, 0.02, 0.03],
            "delta_phi_over_half_pi": [d / HALF_PI for d in (0.01, 0.02, 0.03)],
            "residual": 1e-9,
            "converged": True,
            "iterations": 0,
            "at_bound": False,
            "fisher_stderr": None,
            "per_parameter_spread": None,
        }

    def test_record_of_a_sampled_fit(self, tmp_path):
        payload = _fit_json(tmp_path, sampled(PLANTED_DELTA_PHI, 1))
        assert payload["converged"] is True and payload["at_bound"] is False
        assert payload["iterations"] >= 1
        assert len(payload["fisher_stderr"]) == 3
        assert all(0.0 < s < 0.02 * HALF_PI for s in payload["fisher_stderr"])
