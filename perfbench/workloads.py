"""The three benchmark workloads: inputs from a seed, CLI steps, output checks.

Each workload is a pass of one or more `demongain` subcommands:

- tomo_bootstrap: `tomo` on the default study shape (9 theta, 100 shots
  per setting, 500 bootstrap resamples, noiseless). Nearly all time is
  the bootstrap loop: linear inversion and concurrence per resample.
- fit_sampled: `fit` with 20 spread refits on a 17-theta, 3500-shot
  dataset drawn here from the exact model cells at the planted phase
  deviations. Work is the noise model and its optimizer plus the CSV
  read path; no tomography.
- circuit_sweep: noiseless `sweep` in exact mode and `sweep` in sampled
  mode with the planted deviations, each on 1025 theta points, then
  `verify`. Work is the per-theta circuit path and the CSV/JSON writers.

Every input is written under the run's own directory from the seed; no
checked-in manifest is read.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from demongain import noisefit

HALF_PI = math.pi / 2
PLANTED = (0.009 * HALF_PI, 0.068 * HALF_PI, 0.165 * HALF_PI)

TOMO_THETAS = 9
TOMO_SHOTS = 100
TOMO_RESAMPLES = 500
FIT_THETAS = 17
FIT_SHOTS = 3500
FIT_SPREAD_RESAMPLES = 20
SWEEP_STEPS = 1025
SWEEP_SHOTS = 3500

# Distinct input sets per run; more passes than this reuse them in turn.
INPUT_SETS = 32

# At 100 shots per setting the concurrence estimate is biased low: over
# 300 seeds the fitted c0 had mean 0.937 and standard deviation 0.021.
C0_TOL = 0.2
# At 3500 shots the largest per-component error over 40 seeds was
# 0.030 * pi/2, with median 0.010 * pi/2.
FIT_TOL = 0.06 * HALF_PI
EXACT_TOL = 1e-12

@dataclass(frozen=True)
class Step:
    """One CLI invocation: `argv` lacks only `--out`; `items` is its work."""

    tag: str
    argv: tuple[str, ...]
    items: int


def program_seed(seed: int, index: int) -> int:
    """Seed handed to the program for input set `index` of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def _fit_dataset(path: Path, rng: np.random.Generator) -> None:
    """Multinomial draw from the exact model cells, in the sweep CSV format."""
    thetas = np.linspace(0.0, HALF_PI, FIT_THETAS)
    cells = noisefit.model_cells(np.array([PLANTED]), thetas)[0]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "d", "d_prime", "a_prime", "count", "probability"])
        for theta, p in zip(thetas, cells):
            counts = rng.multinomial(FIT_SHOTS, p / p.sum())
            for (d, dp, ap), c in zip(noisefit.CELLS, counts):
                w.writerow([f"{theta:.12g}", d, dp, ap, int(c), f"{c / FIT_SHOTS:.12g}"])


def make_inputs(workload: str, seed: int, in_dir: Path) -> list[list[Step]]:
    """Write INPUT_SETS input sets; return the steps of one pass per set."""
    sets = []
    for k in range(INPUT_SETS):
        d = in_dir / f"set{k:02d}"
        d.mkdir(parents=True, exist_ok=True)
        pseed = program_seed(seed, k)
        if workload == "tomo_bootstrap":
            thetas = [HALF_PI * i / (TOMO_THETAS - 1) for i in range(TOMO_THETAS)]
            m = _write_json(d / "tomo.json", {"tomo": {
                "thetas": thetas, "shots_per_setting": TOMO_SHOTS,
                "resamples": TOMO_RESAMPLES, "seed": pseed,
                "noise": [0.0, 0.0, 0.0], "exact_moments": False}})
            steps = [Step("tomo", ("tomo", "--manifest", m), TOMO_THETAS)]
        elif workload == "fit_sampled":
            _fit_dataset(d / "tables.csv", np.random.default_rng([seed, k]))
            m = _write_json(d / "fit.json", {"fit": {
                "dataset": str(d / "tables.csv"), "init": None,
                "spread_resamples": FIT_SPREAD_RESAMPLES,
                "spread_shots": FIT_SHOTS, "seed": pseed}})
            steps = [Step("fit", ("fit", "--manifest", m), 1)]
        elif workload == "circuit_sweep":
            sweep = {"theta_start": 0.0, "theta_end": HALF_PI,
                     "theta_steps": SWEEP_STEPS, "shots": SWEEP_SHOTS, "seed": pseed}
            exact = _write_json(d / "sweep_exact.json", {"sweep": {
                **sweep, "mode": "exact", "noise": [0.0, 0.0, 0.0]}})
            sampled = _write_json(d / "sweep_sampled.json", {"sweep": {
                **sweep, "mode": "sampled", "noise": list(PLANTED)}})
            steps = [
                Step("sweep_exact", ("sweep", "--manifest", exact), SWEEP_STEPS),
                Step("sweep_sampled", ("sweep", "--manifest", sampled), SWEEP_STEPS),
                Step("verify", ("verify",), 0),
            ]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        sets.append(steps)
    return sets


def check(tag: str, out: Path) -> list[tuple[str, bool]]:
    """(name, passed) for every output check of one invocation."""
    return _CHECKS[tag](out)


def _check_tomo(out: Path):
    metrics = json.loads((out / "tomo_metrics.json").read_text())
    ordered = all(
        p["bootstrap"]["lower"][k] <= p["bootstrap"]["upper"][k]
        for p in metrics["points"]
        for k in ("concurrence", "purity")
    )
    c0 = metrics["c0_fit"]["c0"]
    return [
        ("tomo: every bootstrap interval has lower <= upper", ordered),
        ("tomo: |c0 - 1| within shot-noise tolerance", abs(c0 - 1.0) <= C0_TOL),
    ]


def _check_fit(out: Path):
    result = json.loads((out / "fit_result.json").read_text())
    err = max(abs(a - b) for a, b in zip(result["delta_phi"], PLANTED))
    return [
        ("fit: recovered delta_phi within tolerance of planted", err <= FIT_TOL),
        ("fit: optimizer converged", result["converged"] is True),
    ]


def _check_sweep_exact(out: Path):
    points = json.loads((out / "sweep_summary.json").read_text())["points"]
    pr_d_dev = max(abs(p["pr_d"][d] - 0.5) for p in points for d in ("0", "1"))
    # delta_W = sum of cells with d' = 1 minus Pr(d = 1); keys read "d d' a'"
    dw_dev = max(
        abs(
            sum(v for k, v in p["pr_joint"].items() if k[1] == "1")
            - p["pr_d"]["1"]
            - math.cos(p["theta"]) ** 2 / 2
        )
        for p in points
    )
    return [
        ("sweep exact: one point per theta", len(points) == SWEEP_STEPS),
        ("sweep exact: Pr(d) = 1/2 to 1e-12", pr_d_dev <= EXACT_TOL),
        ("sweep exact: delta_W = cos^2(theta)/2 to 1e-12", dw_dev <= EXACT_TOL),
    ]


def _check_sweep_sampled(out: Path):
    points = json.loads((out / "sweep_summary.json").read_text())["points"]
    complete = len(points) == SWEEP_STEPS and all(
        sum(p["counts"].values()) == SWEEP_SHOTS for p in points
    )
    return [("sweep sampled: every theta has all shots counted", complete)]


def _check_verify(out: Path):
    checks = json.loads((out / "verify_report.json").read_text())["checks"]
    return [("verify: every invariant passes", bool(checks) and all(c["passed"] for c in checks))]


_CHECKS = {
    "tomo": _check_tomo,
    "fit": _check_fit,
    "sweep_exact": _check_sweep_exact,
    "sweep_sampled": _check_sweep_sampled,
    "verify": _check_verify,
}


# Counts recorded at layer boundaries in the traced run, from return
# values: function -> (count name, amount per call).
COUNTERS = {
    "tomography.bootstrap": ("tomography.bootstrap.resamples", lambda r: r.resamples),
    "noisefit.model_cells": ("noisefit.model_cells.points", lambda r: r.size // 8),
    "noisefit.fit": ("noisefit.fit.converged", lambda r: int(r.converged)),
    "protocol.run_shots": ("protocol.run_shots.shots", lambda r: r.shots),
}
