#!/usr/bin/env python3
"""Rewrite the golden files of tests/data.

Runs the CLI on the checked-in manifests, and run_shots on the configs
of the checked-in run_shots_counts.json, and writes, under --out
(default tests/data):

    tomo_default_counts.json          the nine tomogram CSVs of tomo_default
    tomo_default_metrics.json         its tomo_metrics.json
    sweep_exact_summary.json          sweep_summary.json of sweep_exact
    sweep_sampled_noisy_summary.json  sweep_summary.json of sweep_sampled_noisy
    run_shots_counts.json             run_shots counts and Pr(d) per config

Name files to rewrite only those. For each file it prints how many
numbers moved against the checked-in golden, and the largest move.

    PYTHONPATH=src python3 scripts/record_goldens.py [--out DIR] [FILE ...]
"""

import argparse
import csv
import json
import tempfile
from pathlib import Path

from demongain.cli import main as cli_main
from demongain.gates import NoiseParams
from demongain.protocol import CELLS, run_shots

REPO = Path(__file__).resolve().parent.parent
MANIFESTS = REPO / "manifests"
GOLDENS = REPO / "tests" / "data"


def _run(command: str, manifest: str, out: Path) -> None:
    rc = cli_main([command, "--manifest", str(MANIFESTS / manifest), "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"demongain {command} on {manifest} exited with {rc}")


def _tomo_counts(out: Path) -> str:
    """The tomogram CSVs as {file: 9 rows of 4 counts}, one row per line."""
    files = []
    for path in sorted(out.glob("tomogram_*.csv")):
        with open(path, newline="") as fh:
            _, *rows = csv.reader(fh)
        counts = [int(r[3]) for r in rows]
        lines = ",\n".join(f"    {json.dumps(counts[i:i + 4])}" for i in range(0, len(counts), 4))
        files.append(f'  "{path.name}": [\n{lines}\n  ]')
    return "{\n" + ",\n".join(files) + "\n}\n"


def _run_shots_counts() -> str:
    """The checked-in run_shots configs with the counts and Pr(d) they give now."""
    cases = json.loads((GOLDENS / "run_shots_counts.json").read_text())
    for case in cases:
        c = case["config"]
        t = run_shots([c["theta"]], NoiseParams(tuple(c["noise"])), c["shots"], c["seed"])
        case["counts"] = {f"{d}{dp}{ap}": n for (d, dp, ap), n in zip(CELLS, t.counts[0].tolist())}
        case["pr_d"] = {str(d): p for d, p in enumerate(t.pr_d[0].tolist())}
    return json.dumps(cases, indent=2) + "\n"


def record(name: str, work: Path) -> str:
    """Text of golden file `name`, from runs under `work`."""
    if name == "run_shots_counts.json":
        return _run_shots_counts()
    if name.startswith("tomo_default_"):
        out = work / "tomo_default"
        if not out.exists():
            _run("tomo", "tomo_default.json", out)
        if name == "tomo_default_counts.json":
            return _tomo_counts(out)
        return (out / "tomo_metrics.json").read_text()
    manifest = name.removesuffix("_summary.json")
    _run("sweep", f"{manifest}.json", work / manifest)
    return (work / manifest / "sweep_summary.json").read_text()


GOLDEN_FILES = (
    "tomo_default_counts.json",
    "tomo_default_metrics.json",
    "sweep_exact_summary.json",
    "sweep_sampled_noisy_summary.json",
    "run_shots_counts.json",
)


def moves(old, new, path: str = "") -> list[float]:
    """|new - old| of every number that moved.

    A changed layout raises a ValueError that names where: the path of a
    key that appeared or went, of a list whose length changed, or of a
    value that changed type.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        changed = sorted(old.keys() ^ new.keys())
        if changed:
            key = changed[0]
            raise ValueError(f"key {path}/{key} {'went' if key in old else 'appeared'}")
        return [m for k in old for m in moves(old[k], new[k], f"{path}/{k}")]
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise ValueError(f"{path or '/'}: length {len(old)} became {len(new)}")
        return [m for i, (a, b) in enumerate(zip(old, new)) for m in moves(a, b, f"{path}[{i}]")]
    numbers = (int, float)
    if isinstance(old, numbers) and isinstance(new, numbers) and not isinstance(old, bool):
        return [abs(new - old)] if new != old else []
    if old != new:
        raise ValueError(f"{path or '/'}: {_brief(old)} became {_brief(new)}")
    return []


def _brief(value) -> str:
    """A scalar as its repr, a container as its type: never a whole file."""
    return type(value).__name__ if isinstance(value, (dict, list)) else repr(value)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=GOLDENS, help="output directory")
    ap.add_argument("files", nargs="*", help="golden files to rewrite (default: all five)")
    args = ap.parse_args()
    unknown = sorted(set(args.files) - set(GOLDEN_FILES))
    if unknown:
        ap.error(f"not a golden file: {', '.join(unknown)}; choose from {', '.join(GOLDEN_FILES)}")

    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name in args.files or GOLDEN_FILES:
            text = record(name, Path(work))
            try:
                moved = moves(json.loads((GOLDENS / name).read_text()), json.loads(text))
                largest = f", largest {max(moved):.3g}" if moved else ""
                print(f"{name}: {len(moved)} numbers moved{largest}")
            except ValueError as exc:
                print(f"{name}: layout changed: {exc}")
            (args.out / name).write_text(text)


if __name__ == "__main__":
    main()
