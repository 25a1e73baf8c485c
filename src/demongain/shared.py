"""Keyed random streams, draw rounding and the CSV line writer.

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


def write_csv(path, header: str, row: str, columns) -> None:
    """Write `header`, then `row % values` per row of `columns`, in CRLF lines as csv.writer."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(map((row + "\r\n").__mod__, zip(*columns)))
