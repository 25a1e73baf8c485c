"""Least-squares fit of the three controlled-Z phase deviations.

The model is the exact-mode protocol evaluated under candidate
(delta_phi_1, delta_phi_2, delta_phi_3): `gates.kets` batched over both
the candidates and the theta grid, read out by `protocol.joint_cells`.
The loss is the plain sum of squared differences over all eight joint
outcome cells at every theta grid point (inverse-variance weighted when
per-cell weights are given). Optimization is a coarse grid scan followed
by Nelder-Mead refinement; both stages are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import minimize

from . import gates
from .gates import NoiseParams
from .protocol import CELLS, OutcomeTable, ProtocolConfig, joint_cells, outcome_table_exact

DEFAULT_BOUNDS = ((-np.pi / 4, np.pi / 4),) * 3
DEFAULT_GRID_STEP = 0.01 * np.pi / 2
DEFAULT_GRID_MAX = 0.25 * np.pi / 2


def model_cells(params: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """(m, n, 8) joint cell probabilities in CELLS order.

    `params` is an (m, 3) array of candidate phase deviations, `thetas`
    the length-n preparation-angle grid.
    """
    return joint_cells(gates.kets(params, thetas))


@dataclass
class CurveDataset:
    """Outcome tables on a strictly increasing theta grid."""

    thetas: np.ndarray
    tables: list[OutcomeTable]
    weights: list[dict[tuple[int, int, int], float]] | None = None

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        if len(self.tables) != len(self.thetas):
            raise ValueError("need exactly one table per theta")
        if np.any(np.diff(self.thetas) <= 0):
            raise ValueError("thetas must be strictly increasing")

    def cell_matrix(self) -> np.ndarray:
        """(n_theta, 8) array of joint probabilities in CELLS order."""
        return np.array([[t.pr_joint[c] for c in CELLS] for t in self.tables])


@dataclass
class FitResult:
    delta_phi: tuple[float, float, float]
    residual: float
    converged: bool
    per_parameter_spread: tuple[float, float, float] | None = None

    def to_json_dict(self) -> dict:
        return {
            "delta_phi": list(self.delta_phi),
            "delta_phi_over_half_pi": [d / (np.pi / 2) for d in self.delta_phi],
            "residual": self.residual,
            "converged": self.converged,
            "per_parameter_spread": None
            if self.per_parameter_spread is None
            else list(self.per_parameter_spread),
        }


def model_curves(noise: NoiseParams, thetas) -> CurveDataset:
    """Exact outcome tables for every theta under the given deviations."""
    thetas = np.asarray(thetas, dtype=float)
    tables = [
        outcome_table_exact(ProtocolConfig(theta=t, noise=noise)) for t in thetas
    ]
    return CurveDataset(thetas=thetas, tables=tables)


def _weight_matrix(data: CurveDataset) -> np.ndarray | None:
    if data.weights is None:
        return None
    return np.array([[1.0 / wd[c] for c in CELLS] for wd in data.weights])


def residual(params, data: CurveDataset, data_cells: np.ndarray | None = None) -> float:
    """Weighted sum of squared cell differences between model and data."""
    obs = data.cell_matrix() if data_cells is None else data_cells
    diff2 = (model_cells(np.asarray(params), data.thetas)[0] - obs) ** 2
    w = _weight_matrix(data)
    if w is not None:
        diff2 = diff2 * w
    return float(diff2.sum())


def _grid_scan(data, data_cells, bounds, step: float, upper: float):
    axes = []
    for lo, hi in bounds:
        g_lo, g_hi = max(lo, 0.0), min(hi, upper)
        axes.append(np.arange(g_lo, g_hi + step / 2, step))
    combos = np.array(list(product(*axes)))
    diff2 = (model_cells(combos, data.thetas) - data_cells) ** 2
    w = _weight_matrix(data)
    if w is not None:
        diff2 = diff2 * w
    resid = diff2.sum(axis=(1, 2))
    best = int(np.argmin(resid))
    return combos[best], float(resid[best])


def fit(
    data: CurveDataset,
    init: NoiseParams | None = None,
    bounds=DEFAULT_BOUNDS,
    grid_step: float | None = DEFAULT_GRID_STEP,
    max_iter: int = 4000,
) -> FitResult:
    """Recover the three phase deviations from an outcome-curve dataset.

    When `init` is given the grid scan is skipped and Nelder-Mead starts
    there; otherwise a coarse scan over [0, 0.25 pi/2]^3 (step
    `grid_step`) seeds the simplex. Deterministic for fixed inputs.
    """
    if len(data.tables) == 0:
        raise ValueError("dataset is empty")
    for lo, hi in bounds:
        if lo < -np.pi / 4 - 1e-12 or hi > np.pi / 4 + 1e-12:
            raise ValueError("bounds must lie within (-pi/4, pi/4)")
    data_cells = data.cell_matrix()
    if init is not None:
        x0 = np.asarray(init.delta_phi, dtype=float)
    else:
        x0, _ = _grid_scan(data, data_cells, bounds, grid_step, DEFAULT_GRID_MAX)
    res = minimize(
        residual,
        x0,
        args=(data, data_cells),
        method="Nelder-Mead",
        bounds=bounds,
        options={
            "xatol": 1e-7,
            "fatol": 1e-14,
            "maxiter": max_iter,
            "maxfev": max_iter,
        },
    )
    return FitResult(
        delta_phi=tuple(float(x) for x in res.x),
        residual=float(res.fun),
        converged=bool(res.success),
    )


def bootstrap_spread(
    data: CurveDataset,
    fitted: FitResult,
    shots: int,
    resamples: int,
    seed: int,
) -> tuple[float, float, float]:
    """Per-parameter spread from refits on multinomially resampled tables.

    Each resample redraws every theta's 8-cell counts from the observed
    joint probabilities with the stated shot count, refits (simplex
    seeded at the original optimum), and reports the standard deviation
    per parameter.
    """
    base = data.cell_matrix()
    fits = np.empty((resamples, 3))
    for r in range(resamples):
        rng = np.random.Generator(np.random.Philox(key=[seed, r]))
        resampled = []
        for i in range(len(data.thetas)):
            counts = rng.multinomial(shots, base[i] / base[i].sum())
            pr = {c: counts[j] / shots for j, c in enumerate(CELLS)}
            pr_d = {d: sum(p for (dd, _, _), p in pr.items() if dd == d) for d in (0, 1)}
            resampled.append(OutcomeTable(pr_d=pr_d, pr_joint=pr))
        ds = CurveDataset(thetas=data.thetas, tables=resampled)
        fits[r] = fit(ds, init=NoiseParams(fitted.delta_phi)).delta_phi
    return tuple(float(s) for s in fits.std(axis=0))


def write_fit_json(path, result: FitResult, schema_version: int = 1) -> None:
    payload = {"schema_version": schema_version, **result.to_json_dict()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
