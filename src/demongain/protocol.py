"""Measurement-feedback energy-extraction protocol on two qubits.

The circuit is built from `gates`: `prepare_resource` gives the 4x4
density matrix, and exact outcome tables and shot sampling read the
circuit's output kets (`gates.kets`). Sampled mode draws individual
shots with QND-emulation semantics (the demon's qubit is re-prepared in
the recorded outcome state before the feedback).
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

DEFAULT_SHOTS = 3500
DEFAULT_SEED = 20240901

PROJ0 = np.outer(KET0, KET0.conj())
PROJ1 = np.outer(KET1, KET1.conj())
H_DEMON = kron(ID2, PROJ1)  # demon excitation number, units of epsilon
H_AGENT = kron(PROJ1, ID2)

_PROB_FLOOR = 1e-12
CELLS = tuple(product((0, 1), (0, 1), (0, 1)))  # (d, d', a')


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one protocol run.

    `feedback_weights` selects how the mixed post-feedback state is
    assembled: "measured" uses the actual branch probabilities, "half"
    hard-codes the balanced 1/2 prefactors of the ideal protocol.
    `qnd_detect_error` / `qnd_reprep_error` are per-shot flip rates of the
    mid-circuit detection and of the demon re-preparation (default 0).
    """

    theta: float
    noise: NoiseParams = field(default_factory=NoiseParams.zeros)
    shots: int = DEFAULT_SHOTS
    seed: int = DEFAULT_SEED
    feedback_weights: str = "measured"
    qnd_detect_error: float = 0.0
    qnd_reprep_error: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi / 2:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.feedback_weights not in ("measured", "half"):
            raise ValueError(f"unknown feedback_weights {self.feedback_weights!r}")


@dataclass(frozen=True)
class Branch:
    """One mid-circuit measurement branch."""

    d: int
    prob: float
    post_state: np.ndarray | None


@dataclass
class OutcomeTable:
    """Joint probabilities Pr(d, d', a') of the protocol's two readouts.

    pr_joint maps (d, d_prime, a_prime) to a joint (not conditional)
    probability; pr_d holds the mid-circuit marginals. For sampled tables
    `counts` holds raw shot counts and `shots` their total.
    """

    pr_d: dict[int, float]
    pr_joint: dict[tuple[int, int, int], float]
    counts: dict[tuple[int, int, int], int] | None = None
    shots: int | None = None

    def validate(self, tol: float = 1e-9) -> None:
        for p in self.pr_joint.values():
            if not -tol <= p <= 1 + tol:
                raise ValueError(f"probability {p} outside [0, 1]")
        if abs(sum(self.pr_d.values()) - 1.0) > tol:
            raise ValueError("mid-circuit marginals do not sum to 1")
        for d in (0, 1):
            s = sum(p for (dd, _, _), p in self.pr_joint.items() if dd == d)
            if abs(s - self.pr_d[d]) > tol:
                raise ValueError(f"joint cells for d={d} do not sum to Pr(d)")


def resource_ket(theta: float) -> np.ndarray:
    """Ideal resource state amplitudes in the (|00>,|01>,|10>,|11>) basis."""
    return np.array(
        [-np.sin(theta), 1.0, np.cos(theta), 0.0], dtype=complex
    ) / np.sqrt(2)


def prepare_resource(cfg: ProtocolConfig) -> np.ndarray:
    """Run the preparation circuit (Bell block then controlled-Y) on |00>."""
    d1, d2, d3 = cfg.noise.delta_phi
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    rho = gates.apply(gates.bell_prep(d1), rho0)
    return gates.apply(gates.cy(cfg.theta, d2, d3), rho)


def measure_demon(rho: np.ndarray) -> list[Branch]:
    """Projective energy-basis measurement of the demon's qubit."""
    branches = []
    total = 0.0
    for d, proj in ((0, PROJ0), (1, PROJ1)):
        pi_d = kron(ID2, proj)
        sub = pi_d @ rho @ pi_d
        p = np.trace(sub).real
        total += p
        if p < _PROB_FLOOR:
            branches.append(Branch(d, p, None))
        else:
            branches.append(Branch(d, p, sub / p))
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


# joint_cells as a gather: for each cell (d, d', a') in CELLS order, 1 + the
# ket index 2a + d whose |amplitude|^2 lands there, 0 for an empty cell. The
# demon keeps its measured state (demon = recorded = d), and the reorder
# 2a' + d' -> 2d' + a' is the same transposition as the SWAP.
_JOINT_GATHER = np.concatenate(
    [_feedback_cells(np.array([d + 1, d + 3]), d, d)[_SWAP_PERM] for d in (0, 1)]
).astype(int)


def joint_cells(kets: np.ndarray) -> np.ndarray:
    """(..., 8) joint probabilities Pr(d, d', a') in CELLS order from (..., 4) kets."""
    p = np.abs(kets) ** 2
    return np.concatenate([np.zeros_like(p[..., :1]), p], axis=-1)[..., _JOINT_GATHER]


def apply_feedback(
    branches: list[Branch],
    policy: tuple[np.ndarray, np.ndarray] = (_U_SWAP, _U_ID),
    weights: str = "measured",
) -> np.ndarray:
    """Mix the measurement branches after the conditioned unitaries.

    The default policy is the protocol's conditional SWAP: U_0 = SWAP on
    outcome 0, U_1 = identity on outcome 1. `weights="half"` replaces the
    measured branch probabilities with the ideal balanced 1/2 factors.
    """
    total = sum(b.prob for b in branches)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"branch probabilities sum to {total}, expected 1")
    rho_out = np.zeros((4, 4), dtype=complex)
    for b in branches:
        if b.post_state is None:
            continue
        w = b.prob if weights == "measured" else 0.5
        rho_out += w * gates.apply(policy[b.d], b.post_state)
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


def outcome_table_exact(cfg: ProtocolConfig) -> OutcomeTable:
    """Exact joint outcome probabilities Pr(d, d', a') of the full protocol."""
    cells = joint_cells(_ket(cfg))
    pr_joint = {c: float(p) for c, p in zip(CELLS, cells)}
    table = OutcomeTable(pr_d=_marginals(pr_joint), pr_joint=pr_joint)
    table.validate()
    return table


def _ket(cfg: ProtocolConfig) -> np.ndarray:
    return gates.kets(cfg.noise.delta_phi, [cfg.theta])[0, 0]


def _marginals(pr_joint: dict) -> dict[int, float]:
    return {d: sum(p for (dd, _, _), p in pr_joint.items() if dd == d) for d in (0, 1)}


def run_shots(cfg: ProtocolConfig) -> OutcomeTable:
    """Shot-sampled protocol emulation with QND mid-circuit measurement.

    Randomness comes from a counter-based Philox stream keyed by the run
    seed; shot i consumes a fixed row of pre-drawn uniforms, so the table
    is a pure function of (seed, shot index) and bit-for-bit reproducible
    regardless of evaluation order.
    """
    p = np.abs(_ket(cfg)) ** 2  # index 2a + d
    # unnormalized agent populations of each physical branch
    agent_pops = [p[[d, 2 + d]] for d in (0, 1)]

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    u = rng.random((cfg.shots, 4))
    d_true = (u[:, 0] < agent_pops[1].sum()).astype(int)
    recorded = d_true ^ (u[:, 1] < cfg.qnd_detect_error)
    demon_state = recorded ^ (u[:, 2] < cfg.qnd_reprep_error)

    # Final-readout cells depend on the physical branch, the re-prepared
    # demon state and the recorded outcome (which selects the feedback).
    # Only a handful of combinations occur, so shots are processed
    # vectorized, grouped by combination. Cell index within a branch is
    # 2*a' + d'; global count index 4*recorded + cell.
    raw = np.zeros(8, dtype=int)
    for dt in (0, 1):
        if agent_pops[dt].sum() < _PROB_FLOOR:
            continue
        for dm in (0, 1):
            for rec in (0, 1):
                mask = (d_true == dt) & (demon_state == dm) & (recorded == rec)
                if not mask.any():
                    continue
                cells = _feedback_cells(agent_pops[dt], dm, rec)
                cdf = np.cumsum(cells / cells.sum())
                k = np.searchsorted(cdf, u[mask, 3], side="right")
                raw += np.bincount(4 * rec + np.minimum(k, 3), minlength=8)

    counts = {(d, dp, ap): int(raw[4 * d + 2 * ap + dp]) for d, dp, ap in CELLS}
    mid = {d: int(np.sum(recorded == d)) for d in (0, 1)}
    pr_d = {d: mid[d] / cfg.shots for d in (0, 1)}
    pr_joint = {k: v / cfg.shots for k, v in counts.items()}
    return OutcomeTable(pr_d=pr_d, pr_joint=pr_joint, counts=counts, shots=cfg.shots)


def energies_from_table(t: OutcomeTable) -> tuple[float, float, float]:
    """(W_i, W_f, delta_W) in units of epsilon from a joint outcome table."""
    w_i = t.pr_d[1]
    w_f = sum(p for (_, dp, _), p in t.pr_joint.items() if dp == 1)
    return w_i, w_f, w_f - w_i


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = ["theta", "d", "d_prime", "a_prime", "count", "probability"]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_tables_csv(path, entries: list[tuple[float, OutcomeTable]]) -> None:
    """Write (theta, OutcomeTable) pairs to CSV; count is empty in exact mode."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for theta, t in entries:
            for cell in CELLS:
                c = "" if t.counts is None else t.counts[cell]
                w.writerow([_fmt(theta), *cell, c, _fmt(t.pr_joint[cell])])


def read_tables_csv(path) -> list[tuple[float, OutcomeTable]]:
    """Inverse of write_tables_csv; marginals are rebuilt from the cells.

    Every theta needs all eight (d, d', a') rows with a probability in
    [0, 1]; a ValueError names the theta and cell that break this.
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
            g = grouped.setdefault(key, {"theta": theta, "joint": {}, "counts": {}})
            if cell not in CELLS or cell in g["joint"]:
                raise ValueError(f"{where}: unknown or repeated cell")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{where}: probability {p} outside [0, 1]")
            g["joint"][cell] = p
            g["counts"][cell] = count
    out = []
    for key, g in grouped.items():
        absent = [c for c in CELLS if c not in g["joint"]]
        if absent:
            raise ValueError(f"{path}: theta {key} has no row for cell {absent[0]}")
        counts = None if None in g["counts"].values() else g["counts"]
        table = OutcomeTable(
            pr_d=_marginals(g["joint"]),
            pr_joint=g["joint"],
            counts=counts,
            shots=sum(counts.values()) if counts else None,
        )
        out.append((g["theta"], table))
    return out


def table_to_json_dict(theta: float, t: OutcomeTable) -> dict:
    return {
        "theta": theta,
        "pr_d": {str(k): v for k, v in t.pr_d.items()},
        "pr_joint": {f"{d}{dp}{ap}": p for (d, dp, ap), p in t.pr_joint.items()},
        "counts": None
        if t.counts is None
        else {f"{d}{dp}{ap}": c for (d, dp, ap), c in t.counts.items()},
        "shots": t.shots,
    }
