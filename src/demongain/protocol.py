"""Measurement-feedback energy-extraction protocol on two qubits.

The circuit is built from `gates`: its output kets (`gates.kets`) give
the 4x4 density matrix of `prepare_resource`, and exact outcome tables
and shot sampling read them for a whole theta grid at once,
into one `OutcomeTable` of (n, 8) arrays. Sampled mode draws each theta's
counts as one multinomial from `qnd_cells`, which emulates a QND readout:
the demon is re-prepared in the recorded outcome state before the feedback.
All energies are reported in units of the qubit splitting epsilon, so the
demon's local Hamiltonian is H_D = I_A (x) |1><1|.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import gates
from .gates import NoiseParams
from .qlin import ID2, KET0, KET1, kron
from .tomography import draw_probs

DEFAULT_SHOTS = 3500
DEFAULT_SEED = 20240901

PROJ0 = np.outer(KET0, KET0.conj())
PROJ1 = np.outer(KET1, KET1.conj())
H_DEMON = kron(ID2, PROJ1)  # demon excitation number, units of epsilon
H_AGENT = kron(PROJ1, ID2)

_PROB_FLOOR = 1e-12
CELLS = tuple(product((0, 1), (0, 1), (0, 1)))  # (d, d', a')


def _check_thetas(thetas) -> np.ndarray:
    """The angles as a float array; each must lie in [0, pi/2]."""
    thetas = np.asarray(thetas, dtype=float)
    bad = thetas[~((thetas >= 0.0) & (thetas <= np.pi / 2))]
    if bad.size:
        raise ValueError(f"theta must lie in [0, pi/2], got {bad[0]}")
    return thetas


@dataclass(frozen=True)
class ProtocolConfig:
    """Preparation angle and gate deviations of one resource state."""

    theta: float
    noise: NoiseParams = field(default_factory=NoiseParams.zeros)

    def __post_init__(self):
        _check_thetas(self.theta)


@dataclass(frozen=True)
class Branch:
    """One mid-circuit measurement branch."""

    d: int
    prob: float
    post_state: np.ndarray | None


@dataclass(frozen=True)
class OutcomeTable:
    """Joint probabilities Pr(d, d', a') of the two readouts over a theta grid.

    Row i of `cells` (n, 8) holds the joint (not conditional) probabilities
    at `thetas[i]`, in CELLS order. Sampled tables also carry the integer
    shot `counts` (n, 8) the cells were read from.
    """

    thetas: np.ndarray
    cells: np.ndarray
    counts: np.ndarray | None = None

    @property
    def pr_d(self) -> np.ndarray:
        """(n, 2) mid-circuit marginals Pr(d)."""
        if self.counts is None:
            return self.cells.reshape(-1, 2, 4).sum(axis=-1)
        per_d = self.counts.reshape(-1, 2, 4).sum(axis=-1)
        return per_d / per_d.sum(axis=-1, keepdims=True)

    @property
    def shots(self) -> int | None:
        """Total shots over the grid; None for exact tables."""
        return None if self.counts is None else int(self.counts.sum())


def resource_ket(theta: float) -> np.ndarray:
    """Ideal resource state amplitudes in the (|00>,|01>,|10>,|11>) basis."""
    return np.array(
        [-np.sin(theta), 1.0, np.cos(theta), 0.0], dtype=complex
    ) / np.sqrt(2)


def prepare_resource(cfg: ProtocolConfig) -> np.ndarray:
    """|psi><psi| of the preparation circuit's output ket (`gates.kets`)."""
    psi = gates.kets(cfg.noise.delta_phi, [cfg.theta])[0, 0]
    return np.outer(psi, psi.conj())


def measure_demon(rho: np.ndarray) -> list[Branch]:
    """Projective energy-basis measurement of the demon's qubit."""
    branches = []
    total = 0.0
    for d, proj in ((0, PROJ0), (1, PROJ1)):
        pi_d = kron(ID2, proj)
        sub = pi_d @ rho @ pi_d
        p = np.trace(sub).real
        total += p
        branches.append(Branch(d, p, None if p < _PROB_FLOOR else sub / p))
    if total < _PROB_FLOOR:
        raise ValueError("all branch probabilities vanish; invalid input state")
    return branches


_U_SWAP = gates.swap()
_U_ID = np.eye(4, dtype=complex)
_SWAP_PERM = np.array([0, 2, 1, 3])  # _U_SWAP as a permutation of index 2a + d


def _feedback_cells(agent_pops: np.ndarray, demon: int, recorded: int) -> np.ndarray:
    """Final-readout probabilities, index 2a' + d', of one branch.

    `agent_pops` (2,) are the agent's populations, the demon's qubit sits
    in |demon>, and the recorded outcome selects the feedback: SWAP on 0,
    identity on 1. The readouts are diagonal and the feedback a
    permutation, so coherences never reach a cell.
    """
    cells = np.kron(agent_pops, np.eye(2)[demon])  # state |a, demon>
    return cells[_SWAP_PERM] if recorded == 0 else cells


# One shot's cells as a gather: for physical branch t, demon re-prepared in
# |m> and recorded outcome r (the readout d), _SHOT_GATHER[t, m, r] holds for
# each cell (d, d', a') in CELLS order 1 + the ket index 2a + t whose
# |amplitude|^2 lands there, 0 for an empty cell. The reorder 2a' + d' ->
# 2d' + a' is the same transposition as the SWAP.
_SHOT_GATHER = np.array([
    np.kron(np.eye(2)[r], _feedback_cells(np.array([t + 1, t + 3]), m, r)[_SWAP_PERM])
    for t, m, r in product((0, 1), repeat=3)
]).astype(int).reshape(2, 2, 2, 8)
_JOINT_GATHER = np.einsum("iiic->c", _SHOT_GATHER)  # no flips: t = m = r


def _gather(kets: np.ndarray, table: np.ndarray) -> np.ndarray:
    """|amplitude|^2 of (..., 4) kets at 1 + ket index in `table`, 0 at 0."""
    p = np.abs(kets) ** 2
    return np.concatenate([np.zeros_like(p[..., :1]), p], axis=-1)[..., table]


def joint_cells(kets: np.ndarray) -> np.ndarray:
    """(..., 8) joint probabilities Pr(d, d', a') in CELLS order from (..., 4) kets."""
    return _gather(kets, _JOINT_GATHER)


def qnd_cells(kets: np.ndarray, qnd_detect_error=0.0, qnd_reprep_error=0.0) -> np.ndarray:
    """(..., 8) Pr(d, d', a') of one shot from (..., 4) kets, QND flips folded in.

    Detection records branch t as r, flipped at rate `qnd_detect_error`;
    the demon is re-prepared in |r>, flipped at rate `qnd_reprep_error` to
    |m>. With no flips this equals `joint_cells` bit for bit.
    """
    rates = {"qnd_detect_error": qnd_detect_error, "qnd_reprep_error": qnd_reprep_error}
    for name, rate in rates.items():
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {rate}")
    detect, reprep = (np.array([[1.0 - e, e], [e, 1.0 - e]]) for e in rates.values())
    return np.einsum("tr,rm,...tmrc->...c", detect, reprep, _gather(kets, _SHOT_GATHER))


def apply_feedback(
    branches: list[Branch],
    policy: tuple[np.ndarray, np.ndarray] = (_U_SWAP, _U_ID),
) -> np.ndarray:
    """Mix the measurement branches after the conditioned unitaries.

    The default policy is the protocol's conditional SWAP: U_0 = SWAP on
    outcome 0, U_1 = identity on outcome 1.
    """
    total = sum(b.prob for b in branches)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"branch probabilities sum to {total}, expected 1")
    rho_out = np.zeros((4, 4), dtype=complex)
    for b in branches:
        if b.post_state is None:
            continue
        rho_out += b.prob * gates.apply(policy[b.d], b.post_state)
    return rho_out


def demonic_gain(rho: np.ndarray, rho_prime: np.ndarray) -> float:
    """Energy gained by the demon's qubit, Tr[H_D (rho' - rho)], in epsilon."""
    return np.trace(H_DEMON @ (rho_prime - rho)).real


def policy_gain(
    rho: np.ndarray,
    policy: tuple[np.ndarray, np.ndarray],
    deduct_injected: bool = True,
) -> float:
    """Demonic gain of an arbitrary two-branch feedback policy.

    With `deduct_injected` (default), energy pumped into the joint system
    by the feedback unitaries themselves is subtracted, so only energy
    drawn from the resource counts; for total-energy-conserving policies
    (SWAP, identity) this equals the plain demonic gain. Without the
    deduction, a local flip of the demon's qubit trivially maximizes the
    raw Tr[H_D (rho'-rho)] by injecting external energy.
    """
    branches = measure_demon(rho)
    rho_prime = apply_feedback(branches, policy=policy)
    gain = demonic_gain(rho, rho_prime)
    if deduct_injected:
        h_tot = H_AGENT + H_DEMON
        gain -= np.trace(h_tot @ (rho_prime - rho)).real
    return gain


def analytic_concurrence(theta: float) -> float:
    """Concurrence of the ideal resource state: |cos(theta)|."""
    return abs(np.cos(theta))


def gain_lower_bound(c: float) -> float:
    """Entanglement lower bound on the demonic gain: (1 - sqrt(1-C^2))/2."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    return 0.5 * (1.0 - np.sqrt(1.0 - c * c))


def outcome_table_exact(thetas, noise: NoiseParams) -> OutcomeTable:
    """Exact joint outcome probabilities Pr(d, d', a') at every theta.

    Cells below 1e-15 are rounding residue of analytically empty cells
    and are set to exactly 0.
    """
    thetas = _check_thetas(thetas)
    cells = joint_cells(gates.kets(noise.delta_phi, thetas)[0])
    cells[cells < 1e-15] = 0.0
    tol = 1e-9
    if not (np.all((cells >= -tol) & (cells <= 1 + tol))
            and np.all(np.abs(cells.sum(axis=-1) - 1.0) <= tol)):
        raise ValueError("exact cells are not probabilities summing to 1")
    return OutcomeTable(thetas=thetas, cells=cells)


def run_shots(
    thetas,
    noise: NoiseParams,
    shots: int,
    seed: int,
    qnd_detect_error: float = 0.0,
    qnd_reprep_error: float = 0.0,
) -> OutcomeTable:
    """Shot-sampled outcome tables with QND mid-circuit measurement.

    Shots are independent, so a theta's eight counts are one multinomial
    from `qnd_cells` (per-shot flip rates in [0, 1] of the detection and
    of the demon re-preparation), rounded by `draw_probs`. All thetas draw
    in grid order from one Philox(key=seed) stream, each its own shots.
    """
    thetas = _check_thetas(thetas)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    kets = gates.kets(noise.delta_phi, thetas)[0]
    q = draw_probs(qnd_cells(kets, qnd_detect_error, qnd_reprep_error))
    counts = np.random.Generator(np.random.Philox(key=seed)).multinomial(shots, q)
    return OutcomeTable(thetas=thetas, cells=counts / shots, counts=counts)


def energies_from_table(t: OutcomeTable) -> np.ndarray:
    """(n, 3) rows (W_i, W_f, delta_W) in units of epsilon from an outcome table."""
    w_i = t.pr_d[:, 1]
    w_f = t.cells[:, [2, 3, 6, 7]].sum(axis=-1)  # the cells with d' = 1
    return np.stack([w_i, w_f, w_f - w_i], axis=-1)


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = ["theta", "d", "d_prime", "a_prime", "count", "probability"]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_tables_csv(path, table: OutcomeTable) -> None:
    """Write one row per (theta, cell); count is empty in exact mode.

    read_tables_csv groups rows by the written theta, so a grid with two
    thetas alike at 12 significant digits is refused before the file opens.
    """
    thetas = table.thetas.tolist()
    keys = [_fmt(t) for t in thetas]
    seen = {}
    for theta, key in zip(thetas, keys):
        if key in seen:
            raise ValueError(
                f"thetas {seen[key]!r} and {theta!r} both print as {key} "
                "at 12 significant digits"
            )
        seen[key] = theta
    counts = [[""] * 8] * len(keys) if table.counts is None else table.counts.tolist()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for key, cells, row_counts in zip(keys, table.cells.tolist(), counts):
            for cell, p, c in zip(CELLS, cells, row_counts):
                w.writerow([key, *cell, c, _fmt(p)])


def read_tables_csv(path) -> OutcomeTable:
    """Inverse of write_tables_csv, thetas in file order.

    Every theta needs all eight (d, d', a') rows with a probability in
    [0, 1], summing to 1 within 1e-9; a ValueError names the theta and
    cell that break this. Counts are kept when every row has one.
    """
    grouped: dict[str, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_HEADER if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            key = row["theta"]
            where = f"{path}: theta {key}, cell ({row['d']}, {row['d_prime']}, {row['a_prime']})"
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


def table_to_json_dicts(t: OutcomeTable) -> list[dict]:
    """One JSON-ready dict per theta; cell keys read "d d' a'", e.g. "010"."""
    keys = [f"{d}{dp}{ap}" for d, dp, ap in CELLS]
    counts = [None] * len(t.thetas) if t.counts is None else t.counts.tolist()
    return [
        {
            "theta": theta,
            "pr_d": {"0": pr_d[0], "1": pr_d[1]},
            "pr_joint": dict(zip(keys, cells)),
            "counts": None if c is None else dict(zip(keys, c)),
            "shots": None if c is None else sum(c),
        }
        for theta, pr_d, cells, c in zip(
            t.thetas.tolist(), t.pr_d.tolist(), t.cells.tolist(), counts
        )
    ]
