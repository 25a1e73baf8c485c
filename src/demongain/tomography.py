"""Nine-setting two-qubit Pauli tomography with linear inversion.

Sign convention: outcome "+" is the +1 eigenvalue of the measured Pauli
operator, so in the energy basis <Z> = Pr(0) - Pr(1) (|1> is the
energetically higher state). Counts and probabilities are (..., 9, 4)
arrays: settings in ALL_SETTINGS order, outcomes (++, +-, -+, --) with
the agent sign first. Of the outputs, only the counts CSV names them.

tomography_study draws every bootstrap block on a helper thread, at most
one theta ahead of the main thread, which scores them; the two meet at a
threading.Barrier.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import qlin
from .qlin import ID2, PAULI_X, PAULI_Y, PAULI_Z, dag, kron
from .shared import draw_probs, stream, texts, write_csv

AXES = ("X", "Y", "Z")
ALL_SETTINGS: tuple[tuple[str, str], ...] = tuple(product(AXES, AXES))

_PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

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
_AGENT_SIGN, _DEMON_SIGN = np.array([[1, 1, -1, -1], [1, -1, 1, -1]])[..., None, None]


def _inversion_map() -> np.ndarray:
    """(9, 4, 4, 4) operator that frequency f[j, i] adds to rho_hat.

    Setting (a, d) gives the correlator <P_a P_d> and a third of <P_a>
    and <P_d>, each averaged over the three settings measuring that axis.
    Every setting's frequencies sum to 1, so I/36 per frequency adds up
    to the identity term.
    """
    agent = np.array([kron(_PAULI[a], ID2) for a, _ in ALL_SETTINGS])[:, None]
    demon = np.array([kron(ID2, _PAULI[d]) for _, d in ALL_SETTINGS])[:, None]
    return (np.eye(4) / 9 + _AGENT_SIGN * _DEMON_SIGN * agent @ demon
            + (_AGENT_SIGN * agent + _DEMON_SIGN * demon) / 3) / 4


# as (9, 4, 32) reals, real and imaginary parts of the 16 entries side by
# side, so the real frequencies contract without complex arithmetic
_INVERSION = _inversion_map().reshape(9, 4, 16).view(float)


PERCENTILES = (16.0, 84.0)  # of the bootstrap interval


@dataclass
class BootstrapSummary:
    """Percentile spread of tomography metrics over parametric resamples."""

    resamples: int
    lower: dict[str, float]
    upper: dict[str, float]


def setting_probs(rho: np.ndarray) -> np.ndarray:
    """(..., 9, 4) Born probabilities of every setting's outcomes of (..., 4, 4) states.

    These are also the infinite-shot frequencies of the inversion oracle.
    """
    rho = np.asarray(rho)[..., None, :, :]
    diag = np.real(np.diagonal(_ROTATIONS @ rho @ dag(_ROTATIONS), axis1=-2, axis2=-1))
    diag = np.clip(diag, 0.0, None)
    total = diag.sum(axis=-1, keepdims=True)
    bad = ~(total[..., 0] > 0)
    if bad.any():
        s = ALL_SETTINGS[np.flatnonzero(bad.reshape(-1, 9).any(axis=0))[0]]
        raise ValueError(f"setting {s} diagonal not normalizable after clamping")
    return diag / total


def simulate_tomogram_counts(rhos: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """(n, 9, 4) multinomial shot counts of (n, 4, 4) states, or (9, 4) of one.

    Setting j of state i draws from Philox(key=[seed + i, j]), taken as
    uint64 so that every seed below 2**64 keeps its own key. One Philox
    draws them all: before each setting its state is reset to the start
    of that key's stream (counter and buffer as a new Philox has them),
    which gives a new generator's counts without building one per key.
    These are the last raw keys, not `stream`'s: re-keying them would move
    every tomogram and the finite-shot concurrence mean that acceptance
    criterion 06 bounds, so they wait until that bound is settled.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = draw_probs(setting_probs(rhos))
    flat = probs.reshape(-1, 9, 4)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if seed + len(flat) > 2**64:
        raise ValueError(f"seed + theta index must stay below 2**64, got seed {seed} "
                         f"for {len(flat)} theta")
    bits = np.random.Philox(key=0)  # re-keyed before every draw
    rng, start = np.random.Generator(bits), bits.state
    counts = np.empty(flat.shape, dtype=np.int64)
    for i, ps in enumerate(flat):
        for j, p in enumerate(ps):
            start["state"]["key"][:] = seed + i, j
            bits.state = start
            counts[i, j] = rng.multinomial(shots, p)
    return counts.reshape(probs.shape)


def _freqs(counts) -> np.ndarray:
    """(..., 9, 4) per-setting frequencies from counts or probabilities."""
    v = np.asarray(counts, dtype=float)
    if v.shape[-2:] != (9, 4):
        raise ValueError(f"expected (..., 9, 4) counts per setting, got shape {v.shape}")
    # v.sum(axis=-1)'s order, without numpy's reduction loop over four entries;
    # an all -0.0 setting sums to -0.0 here and 0.0 there, both "no counts"
    total = v[..., :1] + v[..., 1:2] + v[..., 2:3] + v[..., 3:]
    # a non-finite count makes its setting's total non-finite
    if v.size and np.isfinite(total).all() and v.min() >= 0 and total.all():
        return v / total
    # per setting, over the whole stack; an empty stack passes
    bad = (~np.isfinite(v) | (v < 0)).reshape(-1, 9, 4).any(axis=(0, 2))
    empty = (total == 0).reshape(-1, 9).any(axis=0)
    if (bad | empty).any():
        j = np.flatnonzero(bad | empty)[0]  # first in ALL_SETTINGS order; bad counts before none
        what = "negative or non-finite counts" if bad[j] else "no counts"
        raise ValueError(f"setting {ALL_SETTINGS[j]} has {what}")
    return v / total


def linear_inversion(counts) -> np.ndarray:
    """Reconstruct rho = (1/4) sum <P(x)Q> P(x)Q from empirical frequencies.

    Two-body correlators come from the matching setting; single-qubit
    expectations average the corresponding marginal over the three
    settings that measure the non-identity factor. Takes raw counts or
    probabilities of shape (..., 9, 4) and gives (..., 4, 4) states. The
    result has unit trace but is not necessarily positive.
    """
    f = _freqs(counts)
    rho = np.einsum("...ji,jix->...x", f, _INVERSION)
    return rho.view(complex).reshape(*f.shape[:-2], 4, 4)


# Eigenvalues this far below the leading one are treated as exact zeros
# when taking square roots; otherwise eps-level eigensolver noise turns
# into sqrt(eps) ~ 1e-8 errors on the spin-flip spectrum of pure states.
_SQRT_ZERO_TOL = 1e-13


def _clamped_sqrt(w: np.ndarray) -> np.ndarray:
    """Square roots of (..., 4) eigenvalues in descending order, snapped and clamped."""
    w = np.clip(w, 0.0, None)
    w[w < _SQRT_ZERO_TOL * np.maximum(w[..., :1], 1.0)] = 0.0  # column 0 is the largest
    return np.sqrt(w)


# Y(x)Y = diag(_YY_SIGN) times the reversal of the basis order
_YY_SIGN = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]


def _spin_flip(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Concurrence of the states with descending eigenpairs (w, v); see concurrence."""
    w = np.clip(w, 0.0, None)
    k = (v.swapaxes(-1, -2) @ (_YY_SIGN * v[..., ::-1, :])).conj()  # K, conjugated once
    s = _clamped_sqrt(w)[..., :, None] * k * np.sqrt(w)[..., None, :]
    lam = _clamped_sqrt(np.linalg.eigvalsh(s @ dag(s))[..., ::-1])  # descending
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Two-qubit concurrence via the spin-flipped overlap spectrum.

    Takes one (4, 4) matrix, giving a float, or a (..., 4, 4) stack,
    giving an array of the leading shape. Negative eigenvalues of the
    input are clamped to zero first, so linear-inversion outputs are
    accepted; the trace is deliberately not renormalized (renormalizing
    shrinks the leading spin-flip eigenvalue and roughly doubles the
    downward finite-shot bias on near-pure states). The lambda_i are the
    descending eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho)), with
    rho~ = (Y(x)Y) rho* (Y(x)Y) (Wootters, PRL 80, 2245, 1998).

    rho = V W V^dag is decomposed once: with the symmetric K = V^dag (Y(x)Y) V*,
    sqrt(rho) rho~ sqrt(rho) = V S S^dag V^dag for S = sqrt(W) K sqrt(W), so
    the lambda_i^2 are the eigenvalues of S S^dag. Near-zero eigenvalues
    are snapped to 0 before the square roots of sqrt(rho) and the lambda_i^2.
    """
    c = _spin_flip(*qlin.eig_hermitian(rho))
    return float(c) if c.ndim == 0 else c


def _sum_squares(h: np.ndarray) -> np.ndarray:
    return np.sum(h.real**2 + h.imag**2, axis=(-2, -1))  # sum |h_ij|^2 = Tr(h h^dag)


def purity(rho: np.ndarray) -> float | np.ndarray:
    """Tr(rho^2) of a (4, 4) matrix or (..., 4, 4) stack; may exceed 1 if not PSD."""
    # refuses non-Hermitian input; exact input keeps its sum bit for bit
    return _sum_squares(qlin.hermitian(rho))


def _scores(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """concurrence(rho) and purity(rho), bit for bit, from one Hermiticity check.

    The checked stack is what eig_hermitian would decompose and purity sum.
    """
    h = qlin.hermitian(rho)
    pur = _sum_squares(h)
    w, v = np.linalg.eigh(h)  # eig_hermitian's solve, without its second check
    # freed before the spin flip's stacks; kept, they raised a tomo run's peak RSS ~0.2 MB
    del rho, h
    return _spin_flip(w[..., ::-1], v[..., ::-1]), pur


def bootstrap(counts) -> BootstrapSummary:
    """Percentile spread of concurrence and purity over one theta's resampled counts.

    `counts` is a (resamples, 9, 4) block of parametric resamples, as
    tomography_study draws it. The resamples are inverted and scored as
    one stacked batch, checked for Hermiticity once: `_scores` gives
    what concurrence and purity give, bit for bit, and refuses what they refuse.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or len(counts) < 2:
        raise ValueError(f"expected (resamples, 9, 4) counts with resamples >= 2, "
                         f"got shape {counts.shape}")
    # np.percentile's linear rule, bit for bit, without the numpy.ma import its np.unique makes
    scores = np.sort(_scores(linear_inversion(counts)))
    v = (len(counts) - 1) * (np.array(PERCENTILES) / 100)
    i = np.floor(v).astype(int)
    t = v - i
    a, b = scores[:, i], scores[:, np.minimum(i + 1, len(counts) - 1)]
    lo, hi = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t).T
    names = ("concurrence", "purity")
    return BootstrapSummary(len(counts), dict(zip(names, lo.tolist())), dict(zip(names, hi.tolist())))


def tomography_study(
    rhos: np.ndarray, shots: int, resamples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, list[BootstrapSummary] | None]:
    """Simulate counts of (n, 4, 4) states, reconstruct, and bootstrap each.

    Returns (n, 9, 4) counts, (n, 4, 4) reconstructions, and one
    BootstrapSummary per state, or None when `resamples` is 0. State i's
    counts draw from seed + i (see simulate_tomogram_counts). Its
    bootstrap block redraws every setting `resamples` times from
    rho_hat[i]'s setting probabilities, rounded as for the counts, in one
    multinomial call on stream(seed, "bootstrap", i); `bootstrap` scores it.

    A helper thread draws every block, at most one theta ahead: the main
    thread scores block i while the helper draws block i + 1, and they
    meet at a threading.Barrier(2) before each hand-over, block 0's too.
    The helper calls only shared.stream and numpy, whose multinomial loop
    releases the GIL, so every layer function runs on the main thread; a
    barrier needs no queue module, whose import costs about 1.5 ms per CLI
    start. The results equal drawing and scoring each theta in turn, bit for bit.
    """
    counts = simulate_tomogram_counts(rhos, shots, seed)
    rho_hat = linear_inversion(counts)
    if not resamples:
        return counts, rho_hat, None
    if resamples < 2:
        raise ValueError("resamples must be >= 2")
    dists = draw_probs(setting_probs(rho_hat))
    blocks = [None] * len(dists)  # a drawn block, or the error its draw raised
    step = threading.Barrier(2)  # passed once per block handed over; aborted to stop the helper

    def serve() -> None:
        for i in range(len(blocks)):
            try:
                blocks[i] = stream(seed, "bootstrap", i).multinomial(
                    shots, dists[i], size=(resamples, 9))
            except BaseException as exc:  # raised again on the main thread
                blocks[i] = exc
            try:
                step.wait()
            except threading.BrokenBarrierError:
                return

    helper = threading.Thread(target=serve)
    helper.start()
    boots = []
    try:
        for i in range(len(blocks)):
            step.wait()
            block, blocks[i] = blocks[i], None
            if isinstance(block, BaseException):
                raise block
            boots.append(bootstrap(block))
    finally:
        step.abort()
        helper.join()
    return counts, rho_hat, boots


class Unidentifiable(ValueError):
    """No theta of the grid has a nonzero cos(theta), so fit_c0 has nothing to fit."""


def fit_c0(thetas, c) -> tuple[float, float]:
    """One-parameter least-squares fit of c = c0 * cos(theta).

    Closed form: c0 = sum(c cos) / sum(cos^2); the standard error comes
    from the residual variance (0 for a single point). c0 inherits the
    low finite-shot bias of tomographic concurrences (a 300-seed mean of
    0.937 at 100 shots per setting), and under coherent phase noise
    C = c0 cos(theta) does not hold: C stays above 0 at theta = pi/2.
    """
    x = np.cos(np.asarray(thetas, dtype=float))
    c = np.asarray(c, dtype=float)
    if x.shape != c.shape or x.ndim != 1:
        raise ValueError(f"need 1-d thetas and c of one length, got {x.shape} and {c.shape}")
    if not x.size:
        raise ValueError("need at least one point")
    sxx = np.sum(x * x)
    if sxx <= 1e-20:
        raise Unidentifiable("all cos(theta) vanish; c0 is unidentifiable")
    c0 = float(np.sum(c * x) / sxx)
    if x.size == 1:
        return c0, 0.0
    ssr = float(np.sum((c - c0 * x) ** 2))
    return c0, float(np.sqrt(ssr / (x.size - 1) / sxx))


# ---------------------------------------------------------------------------
# serialization

_COUNT_ROWS = [f"{a},{d},{o}" for a, d in ALL_SETTINGS for o in ("++", "+-", "-+", "--")]


def write_counts_csv(path, counts: np.ndarray) -> None:
    """One row per setting and outcome of (9, 4) counts, in ALL_SETTINGS order."""
    counts = np.asarray(counts)
    if counts.shape != (9, 4):
        raise ValueError(f"expected (9, 4) counts per setting, got shape {counts.shape}")
    write_csv(path, "setting_a,setting_d,outcome,count",
              [_COUNT_ROWS, *texts("%d", counts.ravel())])
