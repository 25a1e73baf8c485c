"""Least-squares fit of the three controlled-Z phase deviations.

The model is the exact-mode protocol evaluated under candidate
(delta_phi_1, delta_phi_2, delta_phi_3): `gates.kets` batched over both
the candidates and the theta grid, read out by `protocol.joint_cells`.
The loss is the plain sum of squared differences over all eight joint
outcome cells at every theta grid point. Optimization is a coarse grid
scan followed by Nelder-Mead refinement; both stages are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import minimize

from . import gates
from .gates import NoiseParams
from .protocol import CELLS, OutcomeTable, joint_cells, outcome_table_exact

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


def model_curves(noise: NoiseParams, thetas) -> OutcomeTable:
    """Exact outcome table over the theta grid under the given deviations."""
    return outcome_table_exact(thetas, noise)


def residual(params, data: OutcomeTable) -> float:
    """Sum of squared cell differences between model and data."""
    diff2 = (model_cells(np.asarray(params), data.thetas)[0] - data.cells) ** 2
    return float(diff2.sum())


def _grid_scan(data: OutcomeTable, bounds, step: float, upper: float):
    axes = []
    for lo, hi in bounds:
        g_lo, g_hi = max(lo, 0.0), min(hi, upper)
        axes.append(np.arange(g_lo, g_hi + step / 2, step))
    combos = np.array(list(product(*axes)))
    resid = ((model_cells(combos, data.thetas) - data.cells) ** 2).sum(axis=(1, 2))
    best = int(np.argmin(resid))
    return combos[best], float(resid[best])


def fit(
    data: OutcomeTable,
    init: NoiseParams | None = None,
    bounds=DEFAULT_BOUNDS,
    grid_step: float | None = DEFAULT_GRID_STEP,
    max_iter: int = 4000,
) -> FitResult:
    """Recover the three phase deviations from outcome curves.

    `data` needs a strictly increasing theta grid. When `init` is given
    the grid scan is skipped and Nelder-Mead starts there; otherwise a
    coarse scan over [0, 0.25 pi/2]^3 (step `grid_step`) seeds the
    simplex. Deterministic for fixed inputs.
    """
    if len(data.thetas) == 0:
        raise ValueError("dataset is empty")
    if np.any(np.diff(data.thetas) <= 0):
        raise ValueError("thetas must be strictly increasing")
    for lo, hi in bounds:
        if lo < -np.pi / 4 - 1e-12 or hi > np.pi / 4 + 1e-12:
            raise ValueError("bounds must lie within (-pi/4, pi/4)")
    if init is not None:
        x0 = np.asarray(init.delta_phi, dtype=float)
    else:
        x0, _ = _grid_scan(data, bounds, grid_step, DEFAULT_GRID_MAX)
    res = minimize(
        residual,
        x0,
        args=(data,),
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
    data: OutcomeTable,
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
    dists = data.cells / data.cells.sum(axis=-1, keepdims=True)
    fits = np.empty((resamples, 3))
    for r in range(resamples):
        rng = np.random.Generator(np.random.Philox(key=[seed, r]))
        counts = rng.multinomial(shots, dists)
        resampled = OutcomeTable(thetas=data.thetas, cells=counts / shots, counts=counts)
        fits[r] = fit(resampled, init=NoiseParams(fitted.delta_phi)).delta_phi
    return tuple(float(s) for s in fits.std(axis=0))
