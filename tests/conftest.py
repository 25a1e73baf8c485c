import csv
import json

import numpy as np
import pytest

from demongain import noisefit, qlin, tomography
from demongain.noisefit import BOUNDS, LIVE, FitResult
from demongain.protocol import (
    CELLS,
    CSV_HEADER,
    OutcomeTable,
    analytic_concurrence,
    energies_from_table,
    gain_lower_bound,
)
from demongain.shared import draw_probs, stream
from demongain.tomography import ALL_SETTINGS, _YY_SIGN, _clamped_sqrt, setting_probs


def random_density(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


# Closed-form oracles of the circuit, checked against the program's paths.

ID4 = np.eye(4, dtype=complex)


def resource_ket(theta: float) -> np.ndarray:
    """Ideal resource state amplitudes in the (|00>,|01>,|10>,|11>) basis."""
    return np.array([-np.sin(theta), 1.0, np.cos(theta), 0.0], dtype=complex) / np.sqrt(2)


def cy_exact(theta: float) -> np.ndarray:
    """Closed-form controlled-Y: exp[-i theta Y_A] on the agent iff demon in |0>."""
    ry = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    return np.kron(ry, np.diag([1, 0])) + np.kron(np.eye(2), np.diag([0, 1]))


def wootters_concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Dense Wootters concurrence of a (4, 4) matrix or (..., 4, 4) stack.

    sqrt(rho) and rho~ = (Y(x)Y) rho* (Y(x)Y) are composed as matrices and
    their product sqrt(rho) rho~ sqrt(rho) decomposed a second time, with
    the clamping and snapping of tomography.concurrence.
    """

    def compose(v, w):
        return (v * w[..., None, :]) @ qlin.dag(v)

    yy = qlin.kron(qlin.PAULI_Y, qlin.PAULI_Y)
    w, v = qlin.eig_hermitian(rho)
    w = np.clip(w, 0.0, None)
    rho_tilde = yy @ compose(v, w).conj() @ yy
    sq = compose(v, _clamped_sqrt(w))
    m = sq @ rho_tilde @ sq
    wm, _ = qlin.eig_hermitian((m + qlin.dag(m)) / 2)
    lam = _clamped_sqrt(wm)
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c) if c.ndim == 0 else c


def draw_resamples(rho_hat, shots: int, resamples: int, seed: int, index: int = 0) -> np.ndarray:
    """A theta's (resamples, 9, 4) bootstrap block, drawn as tomography_study draws it.

    Every setting's multinomial is redrawn from rho_hat's setting
    probabilities, rounded as for the counts, in one block from the
    stream keyed by (seed, "bootstrap", index); tomography.bootstrap
    scores it.
    """
    dists = draw_probs(setting_probs(rho_hat))
    return stream(seed, "bootstrap", index).multinomial(shots, dists, size=(resamples, 9))


def record_drawn_keys(monkeypatch) -> list[tuple[int, ...]]:
    """Patch np.random.Generator to list the key of every Philox stream drawn from its start.

    A draw from a Philox whose counter and buffer are as a new one has
    them appends its key, so a stream that two draws start from is listed
    twice, and a generator that is built but re-keyed before it draws is
    not listed. The program draws through `multinomial` and `normal` only.
    """
    keys = []

    class Recording(np.random.Generator):
        def _note_start(self):
            state = self.bit_generator.state
            if (state["bit_generator"] == "Philox" and state["buffer_pos"] == 4
                    and not state["state"]["counter"].any()):
                keys.append(tuple(state["state"]["key"].tolist()))

        def multinomial(self, *args, **kwargs):
            self._note_start()
            return super().multinomial(*args, **kwargs)

        def normal(self, *args, **kwargs):
            self._note_start()
            return super().normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Recording)
    return keys


# The forms of tomography's kernels that their faster forms replaced,
# which those must match bit for bit.


def tomogram_counts_oracle(rhos, shots: int, seed: int) -> np.ndarray:
    """simulate_tomogram_counts with a new Philox(key=[seed + i, j]) per theta i and setting j."""
    probs = draw_probs(setting_probs(rhos))
    counts = [
        np.random.Generator(np.random.Philox(key=np.array([seed + i, j], dtype=np.uint64)))
        .multinomial(shots, p)
        for i, ps in enumerate(probs.reshape(-1, 9, 4)) for j, p in enumerate(ps)
    ]
    return np.reshape(counts, probs.shape)


def freqs_oracle(counts) -> np.ndarray:
    """tomography._freqs with each setting's total taken by v.sum(axis=-1)."""
    v = np.asarray(counts, dtype=float)
    if v.shape[-2:] != (9, 4):
        raise ValueError(f"expected (..., 9, 4) counts per setting, got shape {v.shape}")
    total = v.sum(axis=-1, keepdims=True)
    if v.size and np.isfinite(total).all() and v.min() >= 0 and total.all():
        return v / total
    bad = (~np.isfinite(v) | (v < 0)).reshape(-1, 9, 4).any(axis=(0, 2))
    empty = (total == 0).reshape(-1, 9).any(axis=0)
    if (bad | empty).any():
        j = np.flatnonzero(bad | empty)[0]
        what = "negative or non-finite counts" if bad[j] else "no counts"
        raise ValueError(f"setting {ALL_SETTINGS[j]} has {what}")
    return v / total


def clamped_sqrt_oracle(w: np.ndarray) -> np.ndarray:
    """tomography._clamped_sqrt with the largest eigenvalue found by a max over the last axis."""
    w = np.clip(w, 0.0, None)
    w[w < tomography._SQRT_ZERO_TOL * np.maximum(w.max(axis=-1, keepdims=True), 1.0)] = 0.0
    return np.sqrt(w)


def overlap_oracle(v: np.ndarray) -> np.ndarray:
    """K = V^dag (Y(x)Y) V* of descending eigenvectors, both factors conjugated before the product."""
    return qlin.dag(v) @ (_YY_SIGN * v[..., ::-1, :].conj())


def concurrence_oracle(rho: np.ndarray) -> np.ndarray:
    """tomography.concurrence of a (..., 4, 4) stack through overlap_oracle and clamped_sqrt_oracle."""
    w, v = qlin.eig_hermitian(rho)
    w = np.clip(w, 0.0, None)
    s = clamped_sqrt_oracle(w)[..., :, None] * overlap_oracle(v) * np.sqrt(w)[..., None, :]
    lam = clamped_sqrt_oracle(np.linalg.eigvalsh(s @ qlin.dag(s))[..., ::-1])
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


# One Levenberg-Marquardt loop per dataset: the form of noisefit.fit and
# noisefit.bootstrap_spread that the lockstep descent replaced, which
# every row of that descent must match bit for bit. Constants are read
# from the module at call time, so monkeypatching them reaches both.


def lone_fit(data: OutcomeTable, init=None) -> FitResult:
    """noisefit.fit on one dataset, iterated alone."""
    obs, table = data.cells[:, LIVE], noisefit._table(data.thetas)

    def linearize(x):
        (p,), (r,), (jac,) = noisefit._linearize(obs[None], table, x[None])
        return p, r, jac

    if init is None:
        x = noisefit._grid_seed(obs, table)
    else:
        x = np.clip(init, *BOUNDS)
    p, r, jac = linearize(x)
    damping, iterations, converged = noisefit._DAMPING0, 0, False
    while iterations < noisefit._MAX_ITER and damping <= noisefit._MAX_DAMPING:
        gauss_newton = noisefit._lm_point(r, jac, 0.0, x)
        if np.linalg.norm(gauss_newton - x) <= noisefit._XTOL:
            x, converged = gauss_newton, True
            break
        iterations += 1
        trial = noisefit._lm_point(r, jac, damping, x)
        p_t, r_t, jac_t = linearize(trial)
        if r_t @ r_t <= r @ r:
            x, p, r, jac, damping = trial, p_t, r_t, jac_t, damping / 10
        else:
            damping *= 10

    stderr = None
    if data.counts is not None:
        dp = p[1:]  # (3, n, 4): the exact derivatives
        shots = data.counts.sum(axis=1)[:, None]
        info = np.einsum("knc,lnc,nc->kl", dp, dp, shots / np.maximum(p[0], noisefit._WEIGHT_FLOOR))
        w, v = np.linalg.eigh(info)
        if w[0] > 1e-12 * w[-1]:
            stderr = tuple(float(s) for s in np.sqrt((v**2 / w).sum(axis=1)))
    return FitResult(
        delta_phi=tuple(float(d) for d in x),
        residual=noisefit.residual(x, data),
        converged=converged,
        iterations=iterations,
        at_bound=bool(np.any((x <= BOUNDS[0]) | (x >= BOUNDS[1]))),
        fisher_stderr=stderr,
    )


def spread_by_refits(data: OutcomeTable, fitted: FitResult, shots: int, resamples: int,
                     seed: int) -> tuple[float, float, float]:
    """noisefit.bootstrap_spread as one lone refit per resampled table."""
    dists = data.cells / data.cells.sum(axis=-1, keepdims=True)
    fits = np.empty((resamples, 3))
    for r in range(resamples):
        counts = stream(seed, "fit spread", r).multinomial(shots, dists)
        resampled = OutcomeTable(thetas=data.thetas, cells=counts / shots, counts=counts)
        fits[r] = lone_fit(resampled, init=fitted.delta_phi).delta_phi
    return tuple(float(s) for s in fits.std(axis=0))


# Reference writers: the csv.writer and dict-of-points serialization the
# artifact writers replaced, which the new writers must match byte for byte.


def tables_csv_oracle(path, table) -> None:
    """outcome_tables.csv: one row per (theta, cell); count empty in exact mode."""
    counts = [[""] * 8] * len(table.thetas) if table.counts is None else table.counts.tolist()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "d", "d_prime", "a_prime", "count", "probability"])
        for theta, cells, row_counts in zip(table.thetas.tolist(), table.cells.tolist(), counts):
            for cell, p, c in zip(CELLS, cells, row_counts):
                w.writerow([f"{theta:.12g}", *cell, c, f"{p:.12g}"])


def energies_csv_oracle(path, table) -> None:
    """energies.csv of a sweep's outcome table."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "w_i", "w_f", "delta_w", "concurrence_analytic", "bound"])
        c = analytic_concurrence(table.thetas)
        columns = (table.thetas[:, None], energies_from_table(table), c[:, None],
                   gain_lower_bound(c)[:, None])
        w.writerows([f"{v:.12g}" for v in row] for row in np.hstack(columns))


def sweep_summary_oracle(path, table, header: dict) -> None:
    """sweep_summary.json: `header` and one dict per theta, through json.dump."""
    keys = ["".join(map(str, cell)) for cell in CELLS]
    points = [{"theta": t, "pr_d": dict(zip("01", d)), "pr_joint": dict(zip(keys, c))}
              for t, d, c in zip(table.thetas.tolist(), table.pr_d.tolist(), table.cells.tolist())]
    for point, counts in zip(points, [] if table.counts is None else table.counts.tolist()):
        point["counts"] = dict(zip(keys, counts))
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, **header, "points": points}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def fit_overlay_csv_oracle(path, data, model) -> None:
    """fit_overlay.csv: data and model cells per (theta, cell)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "d", "d_prime", "a_prime", "data", "model"])
        for theta, obs, fitted in zip(data.thetas, data.cells, model.cells):
            for c, p, q in zip(CELLS, obs, fitted):
                w.writerow([f"{theta:.12g}", *c, f"{p:.12g}", f"{q:.12g}"])


def counts_csv_oracle(path, counts) -> None:
    """tomogram_NN.csv: one row per setting and outcome of (9, 4) counts."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["setting_a", "setting_d", "outcome", "count"])
        for (sa, sd), row in zip(ALL_SETTINGS, np.asarray(counts).tolist()):
            for name, c in zip(("++", "+-", "-+", "--"), row):
                w.writerow([sa, sd, name, int(c)])


# Reference reader: the csv.DictReader form of protocol.read_tables_csv that
# the positional reader replaced, which must read and refuse as it does.


def read_tables_csv_oracle(path) -> OutcomeTable:
    """outcome_tables.csv read through csv.DictReader, one f-string per row."""
    grouped: dict[str, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_HEADER.split(",") if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            key = row["theta"]
            where = f"{path}: theta {key}, cell ({row['d']}, {row['d_prime']}, {row['a_prime']})"
            if None in row:  # csv.DictReader files the fields past the header under None
                raise ValueError(f"{where}: more fields than the header")
            try:
                theta = float(key)
                cell = (int(row["d"]), int(row["d_prime"]), int(row["a_prime"]))
                p = float(row["probability"])
                count = None if row["count"] == "" else int(row["count"])
            except (TypeError, ValueError):
                raise ValueError(f"{where}: not a number") from None
            g = grouped.setdefault(key, {"theta": theta, "rows": {}})
            if cell not in CELLS or cell in g["rows"]:
                raise ValueError(f"{where}: unknown or repeated cell")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{where}: probability {p} outside [0, 1]")
            if count is not None and count < 0:
                raise ValueError(f"{where}: negative count {count}")
            g["rows"][cell] = (p, count)
    for key, g in grouped.items():
        absent = [c for c in CELLS if c not in g["rows"]]
        if absent:
            raise ValueError(f"{path}: theta {key} has no row for cell {absent[0]}")
        total = sum(p for p, _ in g["rows"].values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{path}: theta {key}: probabilities sum to {total:.12g}, not 1")
    cells = [[g["rows"][c][0] for c in CELLS] for g in grouped.values()]
    counts = [[g["rows"][c][1] for c in CELLS] for g in grouped.values()]
    if any(None in r for r in counts):
        counts = None
    return OutcomeTable(
        thetas=np.array([g["theta"] for g in grouped.values()]),
        cells=np.array(cells).reshape(-1, 8),
        counts=None if counts is None else np.array(counts, dtype=int).reshape(-1, 8),
    )
