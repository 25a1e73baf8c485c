"""Fit of the three controlled-Z phase deviations to outcome curves.

The model is the exact-mode protocol evaluated under candidate
(delta_phi_1, delta_phi_2, delta_phi_3): `gates.kets` batched over both
the candidates and the theta grid, read out by `protocol.joint_cells`.
Only the four `LIVE` cells of the eight can hold probability for any
deviations; the fit reads those and refuses data in the other four.

The loss is Pearson's chi-square over the live cells at every theta,
the sum of squared Poisson-weighted residuals (obs - p)/sqrt(p): for
shot data, the quadratic form of the multinomial likelihood, so the
fitted spread meets the Fisher bound. A 6^3 grid seeds Levenberg-Marquardt
(damped Gauss-Newton) iterations on those residuals (More, "The
Levenberg-Marquardt algorithm", 1978), each linearized by central
differences from one 7-candidate `model_cells` call and clipped to
BOUNDS. Both stages are deterministic. Spread refits iterate in lockstep
blocks, one `model_cells` call a round; each equals a lone fit bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import gates
from .gates import NoiseParams
from .protocol import CELLS, _JOINT_GATHER, OutcomeTable, joint_cells, outcome_table_exact
from .tomography import stream

BOUNDS = (-np.pi / 4, np.pi / 4)  # each deviation's search range
LIVE = np.flatnonzero(_JOINT_GATHER)  # the cells a ket index lands in
_EMPTY = np.flatnonzero(_JOINT_GATHER == 0)
_GRID_AXIS = np.arange(6) * 0.05 * np.pi / 2  # seed grid: [0, 0.25 pi/2] per slot, in BOUNDS
_H = 1e-6  # central-difference step
_OFFSETS = np.vstack([np.zeros(3), _H * np.eye(3), -_H * np.eye(3)])  # x, x + h e_k, x - h e_k
# Weights use max(p, floor): live cells of a noiseless model reach p ~ 1e-33.
_WEIGHT_FLOOR = 1e-12
# Stop once the undamped step is this short (radians). Central differences
# leave ~1e-9 of noise in the step near a sampled optimum, against a
# statistical spread of ~1e-2 at 3500 shots.
_XTOL = 1e-8
_MAX_ITER = 100
# Directions of J weaker than this fraction of its strongest count as
# flat: at zero noise delta_phi_2 and delta_phi_3 act only at second
# order, and their columns of J hold rounding noise, not a slope.
_RCOND = 1e-8
_DAMPING0, _MAX_DAMPING = 1e-3, 1e8
_BLOCK = 64  # spread refits per lockstep descent, which bounds its memory


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
    iterations: int = 0
    at_bound: bool = False
    fisher_stderr: tuple[float, float, float] | None = None
    per_parameter_spread: tuple[float, float, float] | None = None


def model_curves(noise: NoiseParams, thetas) -> OutcomeTable:
    """Exact outcome table over the theta grid under the given deviations."""
    return outcome_table_exact(thetas, noise)


def _weighted(p: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Poisson-weighted residuals (obs - p)/sqrt(p) of live-cell probabilities."""
    return (obs - p) / np.sqrt(np.maximum(p, _WEIGHT_FLOOR))


def residual(params, data: OutcomeTable) -> float:
    """Pearson's chi-square sum (obs - p)^2/p over the live cells.

    `obs` are the table's cell frequencies, so for shot data this is the
    chi-square statistic divided by the shots per theta.
    """
    p = model_cells(np.asarray(params), data.thetas)[0][:, LIVE]
    return float((_weighted(p, data.cells[:, LIVE]) ** 2).sum())


def _check_empty_cells(data: OutcomeTable) -> None:
    """ValueError naming the first theta and cell the model leaves empty but data fill."""
    held = data.cells[:, _EMPTY] != 0
    if data.counts is not None:
        held |= data.counts[:, _EMPTY] != 0
    if held.any():
        i, j = np.argwhere(held)[0]
        count = "" if data.counts is None else f", count {data.counts[i, _EMPTY[j]]}"
        raise ValueError(
            f"theta {data.thetas[i]:.12g}, cell {CELLS[_EMPTY[j]]}: probability "
            f"{data.cells[i, _EMPTY[j]]:.12g}{count} in a cell that no phase "
            "deviation can reach"
        )


def _grid_seed(obs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Grid point of least chi-square."""
    combos = np.array(list(product(_GRID_AXIS, repeat=3)))
    cost = (_weighted(model_cells(combos, thetas)[..., LIVE], obs) ** 2).sum(axis=(1, 2))
    return combos[np.argmin(cost)]


def _lm_point(r, jac, damping: float, x) -> np.ndarray:
    """x + s within BOUNDS, s minimizing |r + J s|^2 + damping |D s|^2.

    D holds the column norms of J. Solved as one least-squares problem,
    so a vanishing column (a deviation acting only at second order)
    gives the minimum-norm step instead of a singular system. A
    deviation on a bound that the step would push past it is held there
    and the others are solved for without it.
    """
    def solve(free):
        j = jac[:, free]
        a = np.vstack([j, np.sqrt(damping) * np.diag(np.linalg.norm(j, axis=0))])
        s = np.zeros(3)
        s[free] = np.linalg.lstsq(a, -np.concatenate([r, np.zeros(j.shape[1])]), rcond=_RCOND)[0]
        return s

    lo, hi = BOUNDS
    s = solve(np.ones(3, dtype=bool))
    held = ((x <= lo) & (s < 0)) | ((x >= hi) & (s > 0))
    if held.any():
        s = solve(~held)
    return np.clip(x + s, lo, hi)


def _linearize(obs: np.ndarray, thetas: np.ndarray, x: np.ndarray) -> tuple[list, list, list]:
    """Live-cell p (7, n, 4) at x and x +/- h e_k, residuals r at x, Jacobian J (4n, 3).

    One list entry per row of x (k, 3), each against its own obs[i] (n, 4),
    all from one model_cells call.
    """
    p = model_cells((x[:, None] + _OFFSETS).reshape(-1, 3), thetas)[..., LIVE]
    p = p.reshape(len(x), 7, *obs.shape[1:])
    r = _weighted(p, obs[:, None]).reshape(len(x), 7, -1)
    jac = (r[:, 1:4] - r[:, 4:]) / (2 * _H)
    return list(p), list(r[:, 0]), [j.T for j in jac]


def _descend(obs: np.ndarray, thetas: np.ndarray, x: np.ndarray):
    """Levenberg-Marquardt from each row of x (R, 3) on its dataset obs[i] (n, 4).

    Rows iterate in lockstep, each round linearizing all still iterating
    with one model_cells call. A row keeps its own damping, iteration
    count and stop tests, so it takes exactly the steps it would alone.
    Returns per row: x, p at the last accepted x, converged, iterations.
    """
    x = x.copy()
    p, r, jac = _linearize(obs, thetas, x)
    damping, iterations, converged = [_DAMPING0] * len(x), [0] * len(x), [False] * len(x)
    going = range(len(x))
    while True:
        trials = {}
        for i in going:
            if iterations[i] >= _MAX_ITER or damping[i] > _MAX_DAMPING:
                continue
            gauss_newton = _lm_point(r[i], jac[i], 0.0, x[i])
            if np.linalg.norm(gauss_newton - x[i]) <= _XTOL:
                x[i], converged[i] = gauss_newton, True
                continue
            iterations[i] += 1
            trials[i] = _lm_point(r[i], jac[i], damping[i], x[i])
        if not trials:
            return x, p, converged, iterations
        going = list(trials)
        lins = _linearize(obs[going], thetas, np.array(list(trials.values())))
        for i, p_t, r_t, jac_t in zip(going, *lins):
            if r_t @ r_t <= r[i] @ r[i]:
                x[i], p[i], r[i], jac[i], damping[i] = trials[i], p_t, r_t, jac_t, damping[i] / 10
            else:
                damping[i] *= 10


def fit(data: OutcomeTable, init: NoiseParams | None = None) -> FitResult:
    """Recover the three phase deviations from outcome curves.

    `data` needs a strictly increasing theta grid and no probability or
    count in a cell outside LIVE. Each deviation is searched within
    BOUNDS, [-pi/4, pi/4]; `at_bound` says a component ended on one.
    When `init` is given the grid is skipped and the iterations start
    there (clipped to BOUNDS). The fit converges when the undamped step
    is shorter than 1e-8 rad; it is then taken. It stops unconverged
    after 100 iterations, or when no damping up to 1e8 lowers the loss.
    `fisher_stderr` is sqrt(diag(I^-1)) with I = sum over theta of its
    shots (count total) times J^T W J, J the live cells' derivatives and
    W = 1/p; None without counts or when I is singular.
    """
    if len(data.thetas) == 0:
        raise ValueError("dataset is empty")
    if np.any(np.diff(data.thetas) <= 0):
        raise ValueError("thetas must be strictly increasing")
    _check_empty_cells(data)

    obs = data.cells[:, LIVE]
    x = _grid_seed(obs, data.thetas) if init is None else np.clip(init.delta_phi, *BOUNDS)
    (x,), (p,), (converged,), (iterations,) = _descend(obs[None], data.thetas, x[None])

    stderr = None
    if data.counts is not None:
        dp = (p[1:4] - p[4:]) / (2 * _H)  # (3, n, 4)
        shots = data.counts.sum(axis=1)[:, None]
        info = np.einsum("knc,lnc,nc->kl", dp, dp, shots / np.maximum(p[0], _WEIGHT_FLOOR))
        w, v = np.linalg.eigh(info)
        if w[0] > 1e-12 * w[-1]:
            stderr = tuple(float(s) for s in np.sqrt((v**2 / w).sum(axis=1)))
    return FitResult(
        delta_phi=tuple(float(d) for d in x),
        residual=residual(x, data),
        converged=converged,
        iterations=iterations,
        at_bound=bool(np.any((x <= BOUNDS[0]) | (x >= BOUNDS[1]))),
        fisher_stderr=stderr,
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
    joint probabilities with the stated shot count, refits (iterations
    seeded at the original optimum), and reports the standard deviation
    per parameter. Resample r draws from stream(seed, "fit spread", r).
    Blocks of _BLOCK resamples are drawn and refitted in lockstep, and
    each refit equals `fit` on its resampled table bit for bit.
    """
    if resamples < 2:
        raise ValueError("resamples must be >= 2")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    dists = data.cells / data.cells.sum(axis=-1, keepdims=True)
    x = np.tile(np.clip(fitted.delta_phi, *BOUNDS), (_BLOCK, 1))
    fits = np.empty((resamples, 3))
    for start in range(0, resamples, _BLOCK):
        block = range(start, min(start + _BLOCK, resamples))
        counts = np.array([stream(seed, "fit spread", r).multinomial(shots, dists) for r in block])
        fits[start:block.stop] = _descend(counts[..., LIVE] / shots, data.thetas, x[:len(block)])[0]
    return tuple(float(s) for s in fits.std(axis=0))
