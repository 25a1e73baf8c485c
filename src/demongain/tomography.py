"""Nine-setting two-qubit Pauli tomography with linear inversion.

Sign convention: outcome "+" is the +1 eigenvalue of the measured Pauli
operator, so in the energy basis <Z> = Pr(0) - Pr(1) (|1> is the
energetically higher state). Outcomes per setting are ordered
(++, +-, -+, --) with the agent sign first.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import qlin
from .qlin import ID2, PAULI_X, PAULI_Y, PAULI_Z, dag, kron

AXES = ("X", "Y", "Z")
ALL_SETTINGS: tuple[tuple[str, str], ...] = tuple(product(AXES, AXES))

_PAULI = {"I": ID2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

# Basis-change unitaries U with U P U^dag = Z, so measuring Z after U
# realizes a measurement of axis P (global phases irrelevant).
_ROT_TO_Z = {
    "X": (np.cos(np.pi / 4) * ID2 + 1j * np.sin(np.pi / 4) * PAULI_Y),  # exp(+i pi Y/4)
    "Y": (np.cos(np.pi / 4) * ID2 - 1j * np.sin(np.pi / 4) * PAULI_X),  # exp(-i pi X/4)
    "Z": ID2,
}
# (9, 4, 4) two-qubit basis changes, one per setting in ALL_SETTINGS order
_ROTATIONS = np.array([kron(_ROT_TO_Z[a], _ROT_TO_Z[d]) for a, d in ALL_SETTINGS])

# Outcome i of a setting (++, +-, -+, --) carries these signs of the
# agent and demon Paulis; "+" maps to |0> after rotation.
_AGENT_SIGN, _DEMON_SIGN = np.array([[1, 1, -1, -1], [1, -1, 1, -1]])
# Pauli products in the order linear_inversion adds them: identity, the
# nine correlators, then the agent and demon terms per axis. Its sums run
# in this fixed order, left to right: a reordered sum moves rho_hat in the
# last digit, which can move a bootstrap probability between 0 and ~1e-17
# and so change how many numbers its multinomial draw takes from the stream.
_TERMS = (("I", "I"), *ALL_SETTINGS, *(t for p in AXES for t in ((p, "I"), ("I", p))))
_PAULI_TERMS = np.array([kron(_PAULI[a], _PAULI[d]) for a, d in _TERMS])
_YY = kron(PAULI_Y, PAULI_Y)


@dataclass
class BootstrapSummary:
    """Percentile spread of tomography metrics over parametric resamples."""

    resamples: int
    point: dict[str, float]
    lower: dict[str, float]
    upper: dict[str, float]
    percentiles: tuple[float, float] = (16.0, 84.0)


@dataclass
class Tomogram:
    """Counts, reconstruction and metrics of one tomography run."""

    counts: dict[tuple[str, str], np.ndarray]
    shots_per_setting: int
    rho_hat: np.ndarray
    concurrence: float
    purity: float
    bootstrap: BootstrapSummary | None = None


def _setting_dists(rho: np.ndarray) -> np.ndarray:
    """(9, 4) Born probabilities of the settings in ALL_SETTINGS order."""
    diag = np.real(np.diagonal(_ROTATIONS @ rho @ dag(_ROTATIONS), axis1=1, axis2=2))
    diag = np.clip(diag, 0.0, None)
    total = diag.sum(axis=1, keepdims=True)
    for s, t in zip(ALL_SETTINGS, total[:, 0]):
        if not t > 0:
            raise ValueError(f"setting {s} diagonal not normalizable after clamping")
    return diag / total


def setting_probs(rho: np.ndarray, setting: tuple[str, str]) -> np.ndarray:
    """Born probabilities of the 4 outcomes of one Pauli setting."""
    return _setting_dists(rho)[ALL_SETTINGS.index(tuple(setting))]


def simulate_setting(
    rho: np.ndarray, setting: tuple[str, str], shots: int, seed: int
) -> np.ndarray:
    """Multinomial shot counts for one setting; deterministic under seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    idx = ALL_SETTINGS.index(tuple(setting))
    rng = np.random.Generator(np.random.Philox(key=[seed, idx]))
    return rng.multinomial(shots, setting_probs(rho, setting))


def simulate_tomogram_counts(
    rho: np.ndarray, shots: int, seed: int
) -> dict[tuple[str, str], np.ndarray]:
    """Counts for all nine settings."""
    return {s: simulate_setting(rho, s, shots, seed) for s in ALL_SETTINGS}


def exact_moment_probs(rho: np.ndarray) -> dict[tuple[str, str], np.ndarray]:
    """Infinite-shot outcome frequencies, for the inversion oracle."""
    return dict(zip(ALL_SETTINGS, _setting_dists(rho)))


def _freqs(counts_or_probs) -> np.ndarray:
    """(..., 9, 4) per-setting frequencies from counts or probabilities."""
    if isinstance(counts_or_probs, dict):
        for s in ALL_SETTINGS:
            if s not in counts_or_probs:
                raise ValueError(f"missing tomography setting {s}")
            if np.shape(counts_or_probs[s]) != (4,):
                raise ValueError(f"setting {s} must have 4 outcome entries")
        counts_or_probs = [counts_or_probs[s] for s in ALL_SETTINGS]
    v = np.asarray(counts_or_probs, dtype=float)
    if v.shape[-2:] != (9, 4):
        raise ValueError(f"expected (..., 9, 4) counts per setting, got shape {v.shape}")
    total = v.sum(axis=-1, keepdims=True)
    for j, s in enumerate(ALL_SETTINGS):
        if not np.all(np.isfinite(v[..., j, :]) & (v[..., j, :] >= 0)):
            raise ValueError(f"setting {s} has negative or non-finite counts")
        if np.any(total[..., j, :] == 0):
            raise ValueError(f"setting {s} has no counts")
    return v / total


def _signed_sum(f: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """sum_i sign_i f_i over the outcome axis, added left to right."""
    g = f * sign
    return g[..., 0] + g[..., 1] + g[..., 2] + g[..., 3]


def linear_inversion(counts_or_probs) -> np.ndarray:
    """Reconstruct rho = (1/4) sum <P(x)Q> P(x)Q from empirical frequencies.

    Two-body correlators come from the matching setting; single-qubit
    expectations average the corresponding marginal over the three
    settings that measure the non-identity factor. Accepts raw counts or
    probabilities: a dict keyed by setting with 4 entries each, giving
    one (4, 4) state, or an array of shape (..., 9, 4) in ALL_SETTINGS
    order, giving (..., 4, 4) states. The result has unit trace by
    construction but is not necessarily positive.
    """
    f = _freqs(counts_or_probs)
    batch = f.shape[:-2]
    agent = _signed_sum(f, _AGENT_SIGN).reshape(*batch, 3, 3)  # [axis_a, axis_d]
    demon = _signed_sum(f, _DEMON_SIGN).reshape(*batch, 3, 3)
    corr = _signed_sum(f, _AGENT_SIGN * _DEMON_SIGN)
    values = [np.ones(batch), *np.moveaxis(corr, -1, 0)]
    for p in range(3):
        values += [np.mean(agent[..., p, :], axis=-1), np.mean(demon[..., :, p], axis=-1)]
    rho = np.zeros((*batch, 4, 4), dtype=complex)
    for val, pauli in zip(values, _PAULI_TERMS):
        rho += val[..., None, None] * pauli
    return rho / 4.0


# Eigenvalues this far below the leading one are treated as exact zeros
# when taking square roots; otherwise eps-level eigensolver noise turns
# into sqrt(eps) ~ 1e-8 errors on the spin-flip spectrum of pure states.
_SQRT_ZERO_TOL = 1e-13


def _clamped_sqrt(w: np.ndarray) -> np.ndarray:
    w = np.clip(w, 0.0, None)
    w[w < _SQRT_ZERO_TOL * np.maximum(w.max(axis=-1, keepdims=True), 1.0)] = 0.0
    return np.sqrt(w)


def _compose(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V^dag for eigenpairs with leading batch axes."""
    return (v * w[..., None, :]) @ dag(v)


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Two-qubit concurrence via the spin-flipped overlap spectrum.

    Takes one (4, 4) matrix, giving a float, or a (..., 4, 4) stack,
    giving an array of the leading shape. Negative eigenvalues of the
    input are clamped to zero first, so linear-inversion outputs are
    accepted; the trace is deliberately not renormalized (renormalizing
    shrinks the leading spin-flip eigenvalue and roughly doubles the
    downward finite-shot bias on near-pure states). The lambda_i are the
    descending eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho)), computed
    spectrally with near-zero eigenvalues snapped to 0 before each square
    root (Wootters, PRL 80, 2245, 1998).
    """
    w, v = qlin.eig_hermitian(rho)
    w = np.clip(w, 0.0, None)
    rho_tilde = _YY @ _compose(v, w).conj() @ _YY
    sq = _compose(v, _clamped_sqrt(w))
    m = sq @ rho_tilde @ sq
    wm, _ = qlin.eig_hermitian((m + dag(m)) / 2)
    lam = np.sort(_clamped_sqrt(wm), axis=-1)[..., ::-1]
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c) if c.ndim == 0 else c


def purity(rho: np.ndarray) -> float | np.ndarray:
    """Tr(rho^2) of a (4, 4) matrix or (..., 4, 4) stack; may exceed 1 if not PSD."""
    rho = np.asarray(rho, dtype=complex)
    if not qlin.is_hermitian(rho):
        raise ValueError("purity requires a Hermitian matrix")
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


def bootstrap(
    rho_hat: np.ndarray, shots: int, resamples: int, seed: int
) -> BootstrapSummary:
    """Parametric bootstrap of concurrence and purity.

    Each resample redraws every setting's 4-outcome multinomial from the
    clamped, renormalized diagonal of rho_hat rotated into that setting's
    basis, then re-inverts and recomputes the metrics. Resample r draws
    its nine settings from a Philox stream keyed by (seed, r), so the
    summary is independent of evaluation order; the resamples are then
    inverted and scored as one stacked batch.
    """
    if resamples < 2:
        raise ValueError("resamples must be >= 2")
    dists = _setting_dists(rho_hat)
    counts = np.array([
        np.random.Generator(np.random.Philox(key=[seed, r])).multinomial(shots, dists)
        for r in range(resamples)
    ])
    rho_r = linear_inversion(counts)
    metrics = {"concurrence": concurrence(rho_r), "purity": purity(rho_r)}
    lo, hi = BootstrapSummary.percentiles
    return BootstrapSummary(
        resamples=resamples,
        point={"concurrence": concurrence(rho_hat), "purity": purity(rho_hat)},
        lower={k: float(np.percentile(v, lo)) for k, v in metrics.items()},
        upper={k: float(np.percentile(v, hi)) for k, v in metrics.items()},
    )


def tomography_study(rho: np.ndarray, shots: int, resamples: int, seed: int) -> Tomogram:
    """Simulate counts, reconstruct, and attach bootstrap intervals."""
    counts = simulate_tomogram_counts(rho, shots, seed)
    rho_hat = linear_inversion(counts)
    return Tomogram(
        counts=counts,
        shots_per_setting=shots,
        rho_hat=rho_hat,
        concurrence=concurrence(rho_hat),
        purity=purity(rho_hat),
        bootstrap=bootstrap(rho_hat, shots, resamples, seed) if resamples else None,
    )


def fit_c0(points: list[tuple[float, float]]) -> tuple[float, float]:
    """One-parameter least-squares fit of c = c0 * cos(theta).

    Closed form: c0 = sum(c cos) / sum(cos^2); the standard error comes
    from the residual variance (0 for a single point).
    """
    if not points:
        raise ValueError("need at least one point")
    th = np.array([p[0] for p in points], dtype=float)
    c = np.array([p[1] for p in points], dtype=float)
    x = np.cos(th)
    sxx = np.sum(x * x)
    if sxx <= 1e-20:
        raise ValueError("all cos(theta) vanish; c0 is unidentifiable")
    c0 = float(np.sum(c * x) / sxx)
    if len(points) == 1:
        return c0, 0.0
    ssr = float(np.sum((c - c0 * x) ** 2))
    return c0, float(np.sqrt(ssr / (len(points) - 1) / sxx))


# ---------------------------------------------------------------------------
# serialization

COUNTS_CSV_HEADER = ["setting_a", "setting_d", "outcome", "count"]
_OUTCOME_NAMES = ("++", "+-", "-+", "--")


def write_counts_csv(path, counts: dict[tuple[str, str], np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COUNTS_CSV_HEADER)
        for (sa, sd), vec in counts.items():
            for i, name in enumerate(_OUTCOME_NAMES):
                w.writerow([sa, sd, name, int(vec[i])])


def read_counts_csv(path) -> dict[tuple[str, str], np.ndarray]:
    counts: dict[tuple[str, str], np.ndarray] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["setting_a"], row["setting_d"])
            counts.setdefault(key, np.zeros(4))
            counts[key][_OUTCOME_NAMES.index(row["outcome"])] = int(row["count"])
    return counts


def summary_to_json_dict(theta: float, t: Tomogram) -> dict:
    d = {
        "theta": theta,
        "shots_per_setting": t.shots_per_setting,
        "concurrence": t.concurrence,
        "purity": t.purity,
    }
    if t.bootstrap is not None:
        b = t.bootstrap
        d["bootstrap"] = {
            "resamples": b.resamples,
            "percentiles": list(b.percentiles),
            "point": b.point,
            "lower": b.lower,
            "upper": b.upper,
        }
    return d
