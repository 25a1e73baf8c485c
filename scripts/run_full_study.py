#!/usr/bin/env python3
"""Run the complete desk-scale study end to end.

Drives the four CLI subcommands against the checked-in manifests:
exact and shot-sampled theta sweeps, a tomography study with bootstrap
intervals, a phase-deviation fit on a planted dataset, and the invariant
verification report. All artifacts land under --out (default out/study).

    python3 scripts/run_full_study.py --out out/study
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from demongain.cli import main as cli_main
from demongain.gates import PLANTED_DELTA_PHI

REPO = Path(__file__).resolve().parent.parent
MANIFESTS = REPO / "manifests"
HALF_PI = np.pi / 2


def run(argv: list[str]) -> None:
    print(f"$ demongain {' '.join(argv)}")
    rc = cli_main(argv)
    if rc != 0:
        sys.exit(rc)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/study", help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override manifest seeds")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    common = ["--seed", str(args.seed)] if args.seed is not None else []

    run(["sweep", "--manifest", str(MANIFESTS / "sweep_exact.json"),
         "--out", str(out / "sweep_exact"), *common])
    run(["sweep", "--manifest", str(MANIFESTS / "sweep_sampled_noisy.json"),
         "--out", str(out / "sweep_sampled"), *common])
    run(["tomo", "--manifest", str(MANIFESTS / "tomo_default.json"),
         "--out", str(out / "tomo"), *common])

    # fit the exact curves of the planted deviations back
    # (manifests/data/planted_tables.csv, 17 theta)
    fit_dir = out / "fit"
    run(["fit", "--manifest", str(MANIFESTS / "fit_planted.json"),
         "--out", str(fit_dir), *common])

    planted = np.array(PLANTED_DELTA_PHI)  # the paper's fitted deviations, planted
    fitted = np.array(json.loads((fit_dir / "fit_result.json").read_text())["delta_phi"])
    print(f"planted delta_phi / (pi/2): {np.round(planted / HALF_PI, 6)}")
    print(f"fitted  delta_phi / (pi/2): {np.round(fitted / HALF_PI, 6)}")

    run(["verify", "--out", str(out / "verify")])
    print(f"all artifacts written under {out}")


if __name__ == "__main__":
    main()
