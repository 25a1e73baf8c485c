"""Measurement-feedback energy-extraction protocol on two qubits.

The circuit is built from `gates`: its output kets (`gates.kets`) give
the density matrices of `prepare_resource`, one per angle of a theta
stack, which `measure_demon`, `apply_feedback` and the gains take as
stacks. Exact outcome tables and shot sampling read the kets for a whole
theta grid at once, into one `OutcomeTable` of (n, 8) arrays; sampled
mode draws each theta's counts as one multinomial from its exact cells.
The feedback rule is stated once, as `CONDITIONAL_SWAP`. The three gate
deviations `delta_phi` are plain numbers, checked by `gates.kets`; they
are raveled first, so a stack of several triples fails that check. All
energies are in units of the qubit splitting epsilon, so the demon's
local Hamiltonian is H_D = I_A (x) |1><1|.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import product
from operator import itemgetter

import numpy as np

from . import gates
from .gates import in_range
from .qlin import ID2, kron
from .shared import draw_probs, stream, texts, write_csv

DEFAULT_SHOTS = 3500
DEFAULT_SEED = 20240901

_PROJ = np.array([np.diag([1, 0]), np.diag([0, 1])], dtype=complex)  # |0><0|, |1><1|
H_DEMON = kron(ID2, _PROJ[1])  # demon excitation number, units of epsilon
H_AGENT = kron(_PROJ[1], ID2)
_PI_D = kron(ID2, _PROJ)  # (2, 4, 4) demon projectors Pi_d

CELLS = tuple(product((0, 1), (0, 1), (0, 1)))  # (d, d', a')

# The protocol's feedback policy U_d, as a (2, 4, 4) stack: outcome 0
# swaps the qubits (|01> and |10> trade places), outcome 1 keeps them.
CONDITIONAL_SWAP = np.eye(4, dtype=complex)[[[0, 2, 1, 3], [0, 1, 2, 3]]]


@dataclass(frozen=True)
class ProtocolConfig:
    """Preparation angle, a scalar or an array, and the three gate deviations."""

    theta: float | np.ndarray
    delta_phi: tuple = (0.0, 0.0, 0.0)


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


def prepare_resource(cfg: ProtocolConfig) -> np.ndarray:
    """|psi><psi| of the preparation circuit's output kets (`gates.kets`).

    Gives np.shape(cfg.theta) + (4, 4): one state per angle.
    """
    theta = np.asarray(cfg.theta, dtype=float)
    psi = gates.kets(np.ravel(cfg.delta_phi), theta.ravel())[0].reshape(theta.shape + (4,))
    return psi[..., :, None] * psi[..., None, :].conj()


def measure_demon(rho: np.ndarray) -> np.ndarray:
    """(..., 2, 4, 4) branches Pi_d rho Pi_d of an energy-basis readout of the demon.

    Branch d is not renormalized: its trace is Pr(d).
    """
    return _PI_D @ np.asarray(rho)[..., None, :, :] @ _PI_D


def apply_feedback(branches: np.ndarray, policy: np.ndarray = CONDITIONAL_SWAP) -> np.ndarray:
    """sum_d U_d (Pi_d rho Pi_d) U_d^dag for a (..., 2, 4, 4) policy stack U_d.

    The default policy is the protocol's conditional SWAP.
    """
    return gates.apply(policy, branches).sum(axis=-3)


# Branch d's basis state k = 2a + d ends, after the feedback U_d, in the
# basis state 2a' + d' that U_d maps it to, so its |amplitude|^2 lands in
# cell (d, d', a'). _JOINT_GATHER holds, for each cell in CELLS order,
# 1 + the ket index landing there, 0 for an empty cell.
_TARGET = np.abs(CONDITIONAL_SWAP).argmax(axis=-2)  # (2, 4): U_d sends k to _TARGET[d, k]
_LANDS = {(k % 2, *divmod(int(_TARGET[k % 2, k]), 2)[::-1]): k for k in range(4)}
_JOINT_GATHER = np.array([_LANDS.get(c, -1) + 1 for c in CELLS])
LIVE = np.flatnonzero(_JOINT_GATHER)  # the cells a ket index lands in


def joint_cells(kets: np.ndarray) -> np.ndarray:
    """(..., 8) joint probabilities Pr(d, d', a') in CELLS order from (..., 4) kets."""
    p = np.abs(kets) ** 2
    return np.concatenate([np.zeros_like(p[..., :1]), p], axis=-1)[..., _JOINT_GATHER]


def demonic_gain(rho: np.ndarray, rho_prime: np.ndarray) -> float | np.ndarray:
    """Energy gained by the demon's qubit, Tr[H_D (rho' - rho)], in epsilon.

    Under the conditional swap it is <1_A 0_D|rho|1_A 0_D> = rho[2, 2] for
    any rho. It equals C^2/2 on the ideal family (psi_11 = 0) only: the
    even Bell state (|00> + |11>)/sqrt(2) has C = 1 and gains nothing.
    """
    return np.trace(H_DEMON @ (rho_prime - rho), axis1=-2, axis2=-1).real


def policy_gain(rho: np.ndarray, policy: np.ndarray) -> float | np.ndarray:
    """Demonic gain of a (..., 2, 4, 4) two-branch feedback policy.

    Energy pumped into the joint system by the feedback unitaries
    themselves is subtracted, so only energy drawn from the resource
    counts; for total-energy-conserving policies (SWAP, identity) this
    equals the plain demonic gain. Without it, a local flip of the
    demon's qubit would trivially maximize Tr[H_D (rho' - rho)].
    """
    rho_prime = apply_feedback(measure_demon(rho), policy)
    injected = np.trace((H_AGENT + H_DEMON) @ (rho_prime - rho), axis1=-2, axis2=-1).real
    return demonic_gain(rho, rho_prime) - injected


def analytic_concurrence(theta):
    """Concurrence of the ideal resource state: |cos(theta)|."""
    return abs(np.cos(theta))


def gain_lower_bound(c):
    """Lower bound (1 - sqrt(1-C^2))/2 on the gain <1_A 0_D|rho|1_A 0_D>, elementwise.

    It holds on the ideal family (psi_11 = 0), not for every state of concurrence C.
    """
    c = in_range(c, "concurrence", 1.0, "1")
    return 0.5 * (1.0 - np.sqrt(1.0 - c * c))


def outcome_table_exact(thetas, delta_phi) -> OutcomeTable:
    """Exact joint outcome probabilities Pr(d, d', a') at every theta under `delta_phi`.

    Cells below 1e-15 are rounding residue of analytically empty cells
    and are set to exactly 0.
    """
    thetas = np.asarray(thetas, dtype=float)
    cells = joint_cells(gates.kets(np.ravel(delta_phi), thetas)[0])
    cells[cells < 1e-15] = 0.0
    return OutcomeTable(thetas=thetas, cells=cells)


def run_shots(thetas, delta_phi, shots: int, seed: int, purpose: str = "shots") -> OutcomeTable:
    """Shot-sampled outcome tables under the three gate deviations `delta_phi`.

    Shots are independent: each theta's eight counts are one multinomial of
    `shots` from its `outcome_table_exact` cells, rounded by `draw_probs`,
    drawn in grid order from one stream(seed, purpose, 0): purpose "shots"
    for a sweep, "verify" for verify's own check, so they never share one.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    exact = outcome_table_exact(thetas, delta_phi)
    counts = stream(seed, purpose, 0).multinomial(shots, draw_probs(exact.cells))
    return OutcomeTable(thetas=exact.thetas, cells=counts / shots, counts=counts)


def energies_from_table(t: OutcomeTable) -> np.ndarray:
    """(n, 3) rows (W_i, W_f, delta_W) in units of epsilon from an outcome table."""
    w_i = t.pr_d[:, 1]
    w_f = t.cells[:, [2, 3, 6, 7]].sum(axis=-1)  # the cells with d' = 1
    return np.stack([w_i, w_f, w_f - w_i], axis=-1)


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = "theta,d,d_prime,a_prime,count,probability"
_CELL_FIELDS = ["%d,%d,%d" % cell for cell in CELLS]  # d,d_prime,a_prime of each cell's row


def write_tables_csv(path, table: OutcomeTable, *columns: np.ndarray) -> list[list]:
    """Write one row per (theta, cell); count is empty in exact mode.

    Before the file opens it refuses thetas alike at 12 significant digits,
    which read_tables_csv would merge, and counts that are negative or not whole.
    Returns the theta texts, then those of each further `column`, formatted
    in the table's one "%.12g" pass: a value they share with it is formatted once.
    """
    keys, cells, *more = texts("%.12g", table.thetas, table.cells.ravel(), *columns)
    seen = {}
    for theta, key in zip(table.thetas.tolist(), keys):
        if key in seen:
            raise ValueError(f"thetas {seen[key]!r} and {theta!r} both print as {key} "
                             "at 12 significant digits")
        seen[key] = theta
    if table.counts is not None:
        whole = np.isfinite(table.counts) & (table.counts == np.floor(table.counts))
        bad = ~whole | (table.counts < 0)
        if bad.any():
            i, c = np.argwhere(bad)[0]
            n = table.counts[i, c]
            what = f"negative count {n:.0f}" if whole[i, c] else f"count {n} is not a whole number"
            raise ValueError(f"theta {keys[i]}, cell {CELLS[c]}: {what}")
    counts = [""] * len(cells) if table.counts is None else texts("%d", table.counts.ravel())[0]
    write_csv(path, CSV_HEADER, [[key for key in keys for _ in CELLS], _CELL_FIELDS * len(keys),
                                 counts, cells])
    return [keys, *more]


def read_tables_csv(path) -> OutcomeTable:
    """Inverse of write_tables_csv, thetas in file order.

    Every row needs the header's fields, no more, and every theta all eight (d, d', a')
    rows with a probability in [0, 1], summing to 1 within 1e-9, and no negative count;
    a ValueError names the theta and cell that break this. Counts are kept when every row has one.
    """
    grouped: dict[str, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        at = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
        missing = [c for c in CSV_HEADER.split(",") if c not in at]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        fields, pad = itemgetter(*(at[c] for c in CSV_HEADER.split(","))), [None] * len(header)

        def fail(what):  # formatted only for the row that fails
            return ValueError(f"{path}: theta {key}, cell ({d}, {dp}, {ap}): {what}")

        for row in reader:
            if not row:  # a blank line, which csv.DictReader skips too
                continue
            key, d, dp, ap, c, p = fields(row + pad[len(row):])  # None past a short row's end
            if len(row) > len(header):
                raise fail("more fields than the header")
            try:
                theta, cell, p = float(key), (int(d), int(dp), int(ap)), float(p)
                count = None if c == "" else int(c)
            except (TypeError, ValueError):
                raise fail("not a number") from None
            g = grouped.setdefault(key, {"theta": theta, "rows": {}})
            if cell not in CELLS or cell in g["rows"]:
                raise fail("unknown or repeated cell")
            if not 0.0 <= p <= 1.0:
                raise fail(f"probability {p} outside [0, 1]")
            if count is not None and count < 0:
                raise fail(f"negative count {count}")
            g["rows"][cell] = (p, count)
    table = []  # (probability, count) of every row, theta by theta in CELLS order
    for key, g in grouped.items():
        rows = g["rows"]
        if len(rows) < 8:  # the loop let in only distinct cells of CELLS
            absent = next(c for c in CELLS if c not in rows)
            raise ValueError(f"{path}: theta {key} has no row for cell {absent}")
        total = sum([p for p, _ in rows.values()])  # file order: its rounding decides the refusal
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{path}: theta {key}: probabilities sum to {total:.12g}, not 1")
        table += map(rows.__getitem__, CELLS)
    cells, counts = zip(*table) if table else ((), ())
    return OutcomeTable(
        thetas=np.array([g["theta"] for g in grouped.values()]),
        cells=np.array(cells).reshape(-1, 8),
        counts=None if None in counts else np.array(counts, dtype=int).reshape(-1, 8),
    )
