#!/usr/bin/env python3
"""Alternated perfbench pairs of two source trees, summarized per metric.

    python3 scripts/pairs.py OLD NEW --workload W ... --seconds S --pairs N --scratch DIR

OLD and NEW are source trees, such as a checkout and a `git archive`
copy. Both are copied fresh to DIR/a and DIR/b, old to a and new to b;
for the second half of the pairs they are copied again with the
directories swapped, so that a speed that follows the directory, not the
code, splits between the halves instead of reading as a win. Pair k runs

    python3 perfbench/run.py --workload W --seed k --seconds S --trace 0

in each copy for each workload W named (--workload repeats), in turn,
the old tree first in odd pairs and the new tree first in even ones, and
reads the last line of its standard output. Nothing is written outside
DIR.

For each workload, in one block each, it prints per end-to-end metric
of NEW's BENCHMARK.json both medians, the paired median change (the
median over pairs of new / old - 1), and in how many pairs the new tree
was better, in all and in each half. A second table gives per metric
each side's quartiles (numpy's linear rule) and whether the rule for
claiming a gain holds: the new tree better in at least nine tenths of
the pairs, ties counting for neither, and the medians apart in its
favour by more than the old tree's interquartile range. Last come the
failed checks of each side.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

LEFT_BEHIND = (".git", "__pycache__", ".perfbench_out", ".hypothesis", ".pytest_cache")


def halfway(pairs: int) -> int:
    """The number of pairs run before the directories swap."""
    return (pairs + 1) // 2


def plan(pairs: int) -> list[tuple[int, list[tuple[str, str]]]]:
    """(seed, [(side, directory), ...] in run order) of each pair."""
    runs = []
    for k in range(pairs):
        slots = {"old": "a", "new": "b"} if k < halfway(pairs) else {"old": "b", "new": "a"}
        order = ("old", "new") if k % 2 == 0 else ("new", "old")
        runs.append((k + 1, [(side, slots[side]) for side in order]))
    return runs


def fresh_copy(tree: Path, dest: Path) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(tree, dest, ignore=shutil.ignore_patterns(*LEFT_BEHIND))


def collect(old: Path, new: Path, scratch: Path, pairs: int, bench) -> list[dict]:
    """{"old": result, "new": result} of each pair; bench(tree, seed) gives one result."""
    trees = {"old": old, "new": new}
    results, layout = [], None
    for k, (seed, runs) in enumerate(plan(pairs)):
        if dict(runs) != layout:
            layout = dict(runs)
            for side, slot in runs:
                fresh_copy(trees[side], scratch / slot)
        order = ", then ".join(f"{side} from {slot}" for side, slot in runs)
        print(f"pair {k + 1}, seed {seed}: {order}", flush=True)
        results.append({side: bench(scratch / slot, seed) for side, slot in runs})
    return results


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced perfbench run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"perfbench in {tree}, seed {seed}, exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(results: list[dict], specs: list[dict]) -> list[str]:
    """One line per metric of `specs` (BENCHMARK.json's end_to_end), then the failed checks."""
    lines = [f"{'metric':12s} {'unit':5s} {'old median':>11s} {'new median':>11s} "
             f"{'paired':>8s}  new better (before, after the swap)"]
    rules = [f"{'metric':12s} {'old q1':>11s} {'old q3':>11s} {'new q1':>11s} {'new q3':>11s}  "
             "gain rule: >= 9/10 pairs, median gap > old q3 - q1"]
    half = halfway(len(results))
    for spec in specs:
        old, new = ([r[side]["metrics"][spec["name"]]["value"] for r in results]
                    for side in ("old", "new"))
        change = statistics.median(n / o - 1 for o, n in zip(old, new))
        sign = 1 if spec["better"] == "lower" else -1
        wins = [sign * (o - n) > 0 for o, n in zip(old, new)]
        lines.append(f"{spec['name']:12s} {spec['unit']:5s} {statistics.median(old):11.5g} "
                     f"{statistics.median(new):11.5g} {change:+8.2%}  {sum(wins)}/{len(wins)} "
                     f"({sum(wins[:half])}/{half}, {sum(wins[half:])}/{len(wins) - half})")
        (q1, _, q3), (n1, _, n3) = (statistics.quantiles(x, n=4, method="inclusive")
                                    for x in (old, new))
        gap = sign * (statistics.median(old) - statistics.median(new))
        why = [f"{sum(wins)}/{len(wins)} pairs"] if 10 * sum(wins) < 9 * len(wins) else []
        why += [f"gap {gap:.5g} <= {q3 - q1:.5g}"] if gap <= q3 - q1 else []
        rules.append(f"{spec['name']:12s} {q1:11.5g} {q3:11.5g} {n1:11.5g} {n3:11.5g}  "
                     + ("fails: " + ", ".join(why) if why else "holds"))
    lines += rules
    for side in ("old", "new"):
        failed = sum(r[side]["failed"] for r in results)
        attempted = sum(r[side]["attempted"] for r in results)
        lines.append(f"failed checks, {side}: {failed} of {attempted}")
    return lines


def report(results: list[dict], specs: list[dict]) -> list[str]:
    """One `summarize` block per workload of results [{side: {workload: result}}]."""
    lines = []
    for workload in results[0]["old"]:
        lines += [f"{workload}:", *summarize([{side: r[side][workload] for side in r}
                                              for r in results], specs)]
    return lines


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", action="append", required=True, help="repeat for more")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--scratch", type=Path, required=True, help="the one directory written to")
    args = ap.parse_args(argv)
    old, new, scratch = (p.resolve() for p in (args.old, args.new, args.scratch))
    for tree in (old, new):
        if tree == scratch or scratch in tree.parents or tree in scratch.parents:
            raise SystemExit(f"--scratch {scratch} and tree {tree} overlap")
    if args.pairs < 2:
        raise SystemExit("--pairs must be >= 2, one in each directory layout")
    specs = json.loads((new / "BENCHMARK.json").read_text())["end_to_end"]
    results = collect(old, new, scratch, args.pairs, lambda tree, seed: {
        w: perfbench(tree, w, seed, args.seconds) for w in args.workload})
    print(f"{args.pairs} pairs of {args.seconds:g} s, {old} -> {new}")
    print("\n".join(report(results, specs)))


if __name__ == "__main__":
    main()
