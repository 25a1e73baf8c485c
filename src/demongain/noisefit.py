"""Fit of the three controlled-Z phase deviations to outcome curves.

The model is the exact-mode protocol evaluated under candidate
(delta_phi_1, delta_phi_2, delta_phi_3): `gates.kets` batched over both
the candidates and the theta grid, read out by `protocol.joint_cells`.
Only the four `LIVE` cells of the eight can hold probability for any
deviations; the fit reads those and refuses data in the other four.

Each ket is linear in exp(+-i delta_phi_k / 2) for every k, so every cell
is a + b cos(delta_phi_k) + c sin(delta_phi_k) in each deviation: a sum of
27 coefficients times the products of (1, cos, sin) over the three slots.
The fit reads those coefficients off one `model_cells` call at the 27
nodes {-pi/4, 0, pi/4}^3 per theta grid; a candidate's cells and their
exact derivatives are then one small matrix product (the structure of
sequential circuit optimizers and general parameter-shift rules:
Nakanishi, Fujii & Todo, PRR 2, 043158, 2020; Wierichs et al., Quantum 6,
677, 2022).

The loss is Pearson's chi-square over the live cells at every theta,
the sum of squared Poisson-weighted residuals (obs - p)/sqrt(p): for
shot data, the quadratic form of the multinomial likelihood, so the
fitted spread meets the Fisher bound. A 6^3 grid seeds Levenberg-Marquardt
(damped Gauss-Newton) iterations on those residuals (More, "The
Levenberg-Marquardt algorithm", 1978), each linearized by the exact
derivatives, solved by SVD under lstsq's rcond rule and clipped to BOUNDS.
Both stages are deterministic. Spread refits iterate in lockstep blocks,
one stacked product and one stacked SVD a round; each equals a lone fit
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import gates
from .protocol import CELLS, LIVE, OutcomeTable, joint_cells, outcome_table_exact
from .shared import stream

BOUNDS = (-np.pi / 4, np.pi / 4)  # each deviation's search range
_EMPTY = np.delete(np.arange(len(CELLS)), LIVE)  # np.setdiff1d would import numpy.ma
_GRID_AXIS = np.arange(6) * 0.05 * np.pi / 2  # seed grid: [0, 0.25 pi/2] per slot, in BOUNDS
_GRID = np.array(list(product(_GRID_AXIS, repeat=3)))  # its 216 rows, delta_phi_3 fastest
_NODES = np.array(list(product((-np.pi / 4, 0.0, np.pi / 4), repeat=3)))  # the table's 27 nodes
# Weights use max(p, floor): live cells of a noiseless model reach p ~ 1e-33.
_WEIGHT_FLOOR = 1e-12
# Stop once the undamped step is this short (radians): far below the
# statistical spread of ~1e-2 at 3500 shots, and far above the rounding
# that the exact derivatives leave in the step near an optimum.
_XTOL = 1e-8
_MAX_ITER = 100
# Directions of J weaker than this fraction of its strongest count as
# flat: at zero noise delta_phi_2 and delta_phi_3 act only at second
# order, and their columns of J hold rounding noise, not a slope.
_RCOND = 1e-8
_DAMPING0, _MAX_DAMPING = 1e-3, 1e8
_BLOCK = 64  # spread refits per lockstep descent, which bounds its memory


def model_cells(delta_phi, thetas: np.ndarray) -> np.ndarray:
    """(m, n, 8) joint cell probabilities in CELLS order.

    `delta_phi` is an (m, 3) array of candidate phase deviations, or one
    length-3 sequence, `thetas` the length-n preparation-angle grid.
    """
    return joint_cells(gates.kets(delta_phi, thetas))


@dataclass
class FitResult:
    delta_phi: tuple[float, float, float]
    residual: float
    converged: bool
    iterations: int = 0
    at_bound: bool = False
    fisher_stderr: tuple[float, float, float] | None = None


def model_curves(delta_phi, thetas) -> OutcomeTable:
    """Exact outcome table over the theta grid under the three deviations `delta_phi`."""
    return outcome_table_exact(thetas, delta_phi)


def _weighted(p: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Poisson-weighted residuals (obs - p)/sqrt(p) of live-cell probabilities."""
    return (obs - p) / np.sqrt(np.maximum(p, _WEIGHT_FLOOR))


def residual(delta_phi, data: OutcomeTable) -> float:
    """Pearson's chi-square sum (obs - p)^2/p over the live cells at one delta_phi triple.

    `obs` are the table's cell frequencies, so for shot data this is the
    chi-square statistic divided by the shots per theta.
    """
    p = model_cells(np.ravel(delta_phi), data.thetas)[0][:, LIVE]
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


def _table(thetas: np.ndarray) -> np.ndarray:
    """(27, 4n) coefficients of the live cells on the features of `_features`.

    One model_cells call at the 27 nodes; along each slot the node values
    y(-pi/4), y(0), y(pi/4) give a + b cos + c sin by the node inverse in
    closed form: c = (y+ - y-)/sqrt(2), b = (y+ + y- - 2 y0)/(sqrt(2) - 2), a = y0 - b.
    """
    y = model_cells(_NODES, thetas)[..., LIVE].reshape(3, 3, 3, -1)
    for axis in range(3):
        lo, mid, hi = np.moveaxis(y, axis, 0)
        cos = (lo + hi - 2 * mid) / (np.sqrt(2) - 2)
        y = np.moveaxis(np.stack([mid - cos, cos, (hi - lo) / np.sqrt(2)]), 0, axis)
    return y.reshape(27, -1)


def _features(x: np.ndarray) -> np.ndarray:
    """(k, 4, 27) features of candidates x (k, 3); the table maps them to p and its derivatives.

    Row 0 holds the products of (1, cos x_j, sin x_j) over the slots j,
    delta_phi_3 fastest; in row 1 + j slot j's factor is its derivative
    (0, -sin x_j, cos x_j).
    """
    c, s = np.cos(x), np.sin(x)
    one, zero = np.ones_like(c), np.zeros_like(c)
    u = np.stack([one, c, s, zero, -s, c], axis=-1).reshape(len(x), 3, 2, 3)  # slot, factor, basis
    f = u[:, range(3), np.eye(4, 3, k=-1, dtype=int)]  # (k, 4, 3, 3); row 1 + j: d/dx_j
    return (f[:, :, 0, :, None, None] * f[:, :, 1, None, :, None] * f[:, :, 2, None, None, :]
            ).reshape(len(x), 4, 27)


def _grid_seed(obs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Grid point of least chi-square."""
    p = (_features(_GRID)[:, :1] @ table)[:, 0]  # one product per row, as in _linearize
    cost = (_weighted(p, obs.ravel()) ** 2).sum(axis=1)
    return _GRID[np.argmin(cost)]


def _lm_point(r, jac, damping, x) -> np.ndarray:
    """x + s within BOUNDS, s minimizing |r + J s|^2 + damping |D s|^2.

    One row, r (4n,), J (4n, 3), x (3,), or a stack with damping scalar or per
    row; D holds J's column norms. One SVD solves all [J; sqrt(damping) D] by
    lstsq's minimum-norm rule (singular values <= _RCOND times the largest count
    as zero), so a vanishing column gives no step. A deviation the step would
    push past a bound is held on it, by one more SVD with its column zeroed.
    """
    def solve(free):
        j = np.multiply(jac, free[..., None, :], order="C")  # one layout for every stack
        d = np.sqrt(damping)[..., None, None] * np.linalg.norm(j, axis=-2)[..., None, :]
        u, sv, vt = np.linalg.svd(np.concatenate([j, d * np.eye(3)], axis=-2), full_matrices=False)
        c = (np.swapaxes(u[..., :r.shape[-1], :], -1, -2) @ -r[..., None])[..., 0]
        c = np.divide(c, sv, out=np.zeros_like(c), where=sv > _RCOND * sv[..., :1])
        return (np.swapaxes(vt, -1, -2) @ c[..., None])[..., 0]

    s = solve(np.ones_like(x, dtype=bool))
    held = ((x <= BOUNDS[0]) & (s < 0)) | ((x >= BOUNDS[1]) & (s > 0))
    if held.any():
        s = np.where(held, 0.0, solve(~held))
    return np.clip(x + s, *BOUNDS)


def _linearize(obs: np.ndarray, table: np.ndarray, x: np.ndarray):
    """Live-cell p and dp/dx_j (k, 4, n, 4) at x (k, 3), residuals r (k, 4n), J (k, 4n, 3).

    Row i of x is weighed against its own obs[i] (n, 4). Each row's features
    meet the table in a product of their own, so a row's bits do not depend
    on how many rows share the call. J = (dr/dp)(dp/dx), with dr/dp =
    -(obs + p)/(2 p^1.5) above _WEIGHT_FLOOR and -1/sqrt(floor) at or below it.
    """
    p = _features(x) @ table  # (k, 4, 4n)
    o, w = obs.reshape(len(x), -1), np.maximum(p[:, 0], _WEIGHT_FLOOR)
    slope = np.where(p[:, 0] > _WEIGHT_FLOOR, -(o + w) / (2 * w * np.sqrt(w)),
                     -1 / np.sqrt(_WEIGHT_FLOOR))
    jac = slope[..., None] * np.swapaxes(p[:, 1:], 1, 2)
    return p.reshape(len(x), 4, *obs.shape[1:]), _weighted(p[:, 0], o), jac


def _descend(obs: np.ndarray, table: np.ndarray, x: np.ndarray):
    """Levenberg-Marquardt from each row of x (R, 3) on its dataset obs[i] (n, 4).

    Rows iterate in lockstep: a round takes all undamped steps and damped trials
    from one `_lm_point` call and linearizes the unconverged rows' trials with one
    `_linearize` call on the theta grid's coefficient table. Each row keeps its own
    damping, iteration count, r @ r acceptance and stop tests, so it takes
    exactly the steps it would alone.
    Returns per row: x, p and dp/dx at the last accepted x, converged, iterations.
    """
    def dot(a):  # each row's a @ a, by the dot product that a lone row takes
        return (a[:, None] @ a[..., None])[:, 0, 0]

    x = x.copy()
    p, r, jac = _linearize(obs, table, x)
    damping, iterations = np.full(len(x), _DAMPING0), np.zeros(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    i = np.arange(len(x))  # rows still iterating
    while (i := i[(iterations[i] < _MAX_ITER) & (damping[i] <= _MAX_DAMPING)]).size:
        both = np.append(i, i)
        steps = _lm_point(r[both], jac[both], np.append(np.zeros(len(i)), damping[i]), x[both])
        gauss_newton, trial = np.split(steps, 2)
        done = np.sqrt(dot(gauss_newton - x[i])) <= _XTOL
        x[i[done]], converged[i[done]] = gauss_newton[done], True
        i, trial = i[~done], trial[~done]
        if not i.size:
            break
        iterations[i] += 1
        p_t, r_t, jac_t = _linearize(obs[i], table, trial)
        better = dot(r_t) <= dot(r[i])
        up = i[better]
        x[up], p[up], r[up], jac[up] = trial[better], p_t[better], r_t[better], jac_t[better]
        damping[i] = np.where(better, damping[i] / 10, damping[i] * 10)
    return x, p, converged, iterations


def fit(data: OutcomeTable, init=None) -> FitResult:
    """Recover the three phase deviations from outcome curves.

    `data` needs a strictly increasing theta grid and no probability or
    count in a cell outside LIVE. Each deviation is searched within
    BOUNDS, [-pi/4, pi/4]; `at_bound` says a component ended on one.
    When `init`, three deviations, is given the grid is skipped and the
    iterations start there (checked by `gates.deviations`, then clipped
    to BOUNDS). The fit converges when the undamped step is shorter than
    1e-8 rad; it is then taken. It stops unconverged after 100
    iterations, or when no damping up to 1e8 lowers the loss.
    `fisher_stderr` is sqrt(diag(I^-1)) with I = sum over theta of its
    shots (count total) times J^T W J, J the live cells' exact derivatives
    from the coefficient table and W = 1/p; None without counts or when I
    is singular. The model is invariant under (d1, d2, d3) -> (d1, -d2, -d3),
    and the seed grid on [0, 0.25 pi/2]^3 returns the positive twin by convention.
    """
    if len(data.thetas) == 0:
        raise ValueError("dataset is empty")
    if np.any(np.diff(data.thetas) <= 0):
        raise ValueError("thetas must be strictly increasing")
    _check_empty_cells(data)

    obs, table = data.cells[:, LIVE], _table(data.thetas)
    x = (_grid_seed(obs, table) if init is None
         else np.clip(gates.deviations(np.ravel(init))[0], *BOUNDS))
    (x,), (p,), (converged,), (iterations,) = _descend(obs[None], table, x[None])

    stderr = None
    if data.counts is not None:
        shots = data.counts.sum(axis=1)[:, None]
        info = np.einsum("knc,lnc,nc->kl", p[1:], p[1:], shots / np.maximum(p[0], _WEIGHT_FLOOR))
        w, v = np.linalg.eigh(info)
        if w[0] > 1e-12 * w[-1]:
            stderr = tuple(float(s) for s in np.sqrt((v**2 / w).sum(axis=1)))
    return FitResult(
        delta_phi=tuple(float(d) for d in x),
        residual=residual(x, data),
        converged=bool(converged),
        iterations=int(iterations),
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
    x, table = np.tile(np.clip(fitted.delta_phi, *BOUNDS), (_BLOCK, 1)), _table(data.thetas)
    fits = np.empty((resamples, 3))
    for start in range(0, resamples, _BLOCK):
        block = range(start, min(start + _BLOCK, resamples))
        counts = np.array([stream(seed, "fit spread", r).multinomial(shots, dists) for r in block])
        fits[start:block.stop] = _descend(counts[..., LIVE] / shots, table, x[:len(block)])[0]
    return tuple(float(s) for s in fits.std(axis=0))
