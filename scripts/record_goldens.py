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
numbers moved against the checked-in golden, and the largest move. When
the layout changed, it counts only the numbers at paths both files hold,
and also prints every path that went or appeared, list indices as [*].

    PYTHONPATH=src python3 scripts/record_goldens.py [--out DIR] [FILE ...]
"""

import argparse
import csv
import json
import re
import tempfile
from pathlib import Path

from demongain.cli import main as cli_main
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
        t = run_shots([c["theta"]], c["noise"], c["shots"], c["seed"])
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


def compare(old, new, path: str = "") -> tuple[list[float], list[tuple[str, str]]]:
    """(moved, changes) of two parsed JSON files.

    `moved` holds |new - old| of every number that moved at a path both
    files hold. `changes` holds (path, what) for every place where the
    layout differs: a key that "went" or "appeared", a list whose length
    changed, a value that changed type. A dict's keys come before its values.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        changes = [(f"{path}/{k}", "went" if k in old else "appeared")
                   for k in sorted(old.keys() ^ new.keys())]
        parts = [compare(old[k], new[k], f"{path}/{k}") for k in old if k in new]
    elif isinstance(old, list) and isinstance(new, list):
        changes = [] if len(old) == len(new) else [
            (path or "/", f"length {len(old)} became {len(new)}")]
        parts = [compare(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    else:
        numbers = (int, float)
        if isinstance(old, numbers) and isinstance(new, numbers) and not isinstance(old, bool):
            return ([abs(new - old)] if new != old else []), []
        return [], ([] if old == new else [(path or "/", f"{_brief(old)} became {_brief(new)}")])
    return ([m for moved, _ in parts for m in moved],
            changes + [c for _, inner in parts for c in inner])


def _described(path: str, what: str) -> str:
    return f"key {path} {what}" if what in ("went", "appeared") else f"{path}: {what}"


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
            moved, changes = compare(json.loads((GOLDENS / name).read_text()), json.loads(text))
            largest = f", largest {max(moved):.3g}" if moved else ""
            if changes:
                print(f"{name}: layout changed, {len(moved)} numbers moved at the paths "
                      f"both files hold{largest}")
                for path, what in dict.fromkeys((re.sub(r"\[\d+\]", "[*]", p), w) for p, w in changes):
                    print(f"  {_described(path, what)}")
            else:
                print(f"{name}: {len(moved)} numbers moved{largest}")
            (args.out / name).write_text(text)


if __name__ == "__main__":
    main()
