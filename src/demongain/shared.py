"""Keyed random streams, draw rounding, the bit-pattern dedupe and the CSV writer.

The circuit, tomography, fit and CLI layers all use these, so this
module sits below them and imports no other demongain module.
"""

from __future__ import annotations

import numpy as np


def draw_probs(p: np.ndarray) -> np.ndarray:
    """Probabilities (..., k) rounded to 12 decimals and renormalized, to draw from.

    Counts then do not hinge on the last bits of p: numpy's binomial draws
    n - X from 1 - p when p > 1/2, so p = 1/2 and 1/2 + 1 ulp would give
    mirrored counts. Probabilities below 5e-13 become exact zeros.
    """
    p = np.round(p, 12)
    return p / p.sum(axis=-1, keepdims=True)


# What each keyed stream draws. A purpose's position is part of its
# streams' keys, so new purposes are appended, never inserted.
PURPOSES = ("shots", "bootstrap", "fit spread", "verify")


def stream(seed: int, purpose: str, index: int) -> np.random.Generator:
    """Philox generator of draw `index` for `purpose` under a run's `seed`.

    The 128-bit key is hashed from (seed, purpose, index) by SeedSequence,
    so distinct triples give independent streams by construction
    (Salmon et al., SC'11).
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    key = np.random.SeedSequence(seed, spawn_key=(PURPOSES.index(purpose), index))
    return np.random.Generator(np.random.Philox(key))


def distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct bit patterns of a 1-d numeric array, and the index that gathers them back.

    u[inverse] equals `values` bit for bit. Keyed on the integer view, so
    -0.0 and 0.0 stay apart; np.unique would merge them and import numpy.ma.
    """
    if len(values) < 2:  # spares single-row kets the sort; n = 0 has no first[0] to set
        return values, np.zeros(len(values), dtype=np.intp)
    bits = values.view(f"i{values.itemsize}")
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.empty(len(order), dtype=bool)
    first[0], first[1:] = True, ordered[1:] != ordered[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return values[order[first]], inverse


def texts(values: np.ndarray, spec: str) -> list:
    """`spec % v` for each v of a 1-d numeric array, formatting each distinct bit pattern once."""
    u, inverse = distinct(values)
    return np.array([spec % v for v in u.tolist()], dtype=object)[inverse].tolist()


def write_csv(path, header: str, columns) -> None:
    """Write `header`, then the rows of text `columns` joined by ",", CRLF-ended as csv.writer."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *map(",".join, zip(*columns)), ""]))
