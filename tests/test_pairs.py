"""Tests for scripts/pairs.py on canned perfbench result lines; no perfbench run."""

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
pairs = runpy.run_path(str(ROOT / "scripts/pairs.py"), run_name="pairs")
SPECS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _result(p50, failed=0, attempted=8):
    """A perfbench result line, as the last stdout line of perfbench/run.py parses."""
    values = {"cmd_s.p50": p50, "cmd_s.tail": p50 * 1.2, "items_per_s": 9 / p50,
              "setup_s": 0.2, "peak_rss_mb": 42.0}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in SPECS}}


def _row(lines, name):
    return next(line.split() for line in lines if line.startswith(name + " "))


def test_counts_wins_by_each_metrics_direction():
    results = [{"old": _result(0.10), "new": _result(0.09)},
               {"old": _result(0.10), "new": _result(0.08)},
               {"old": _result(0.10), "new": _result(0.11)},
               {"old": _result(0.10), "new": _result(0.10)}]
    lines = pairs["summarize"](results, SPECS)
    # lower is better for cmd_s.p50, higher for items_per_s; a tie is no win
    assert _row(lines, "cmd_s.p50") == ["cmd_s.p50", "s", "0.1", "0.095", "-5.00%",
                                        "2/4", "(2/2,", "0/2)"]
    assert _row(lines, "items_per_s")[-3:] == ["2/4", "(2/2,", "0/2)"]
    assert _row(lines, "setup_s")[-4:] == ["+0.00%", "0/4", "(0/2,", "0/2)"]
    assert lines[-2:] == ["failed checks, old: 0 of 32", "failed checks, new: 0 of 32"]


def test_reports_failed_checks_per_side():
    results = [{"old": _result(0.1), "new": _result(0.1, failed=2)},
               {"old": _result(0.1, failed=1), "new": _result(0.1)}]
    lines = pairs["summarize"](results, SPECS)
    assert lines[-2:] == ["failed checks, old: 1 of 16", "failed checks, new: 2 of 16"]


def test_swaps_directories_halfway_and_alternates_order():
    assert pairs["plan"](4) == [
        (1, [("old", "a"), ("new", "b")]),
        (2, [("new", "b"), ("old", "a")]),
        (3, [("old", "b"), ("new", "a")]),
        (4, [("new", "a"), ("old", "b")]),
    ]
    slots = [dict(runs)["old"] for _, runs in pairs["plan"](5)]
    assert slots == ["a", "a", "a", "b", "b"]


def test_results_follow_the_tree_not_the_directory(tmp_path):
    for side in ("old", "new"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "side.txt").write_text(side)
    ran = []

    def bench(tree, seed):
        side = (tree / "side.txt").read_text()
        ran.append((seed, side, tree.name))
        return _result(0.1 if side == "old" else 0.09)

    results = pairs["collect"](tmp_path / "old", tmp_path / "new", tmp_path / "scratch", 4, bench)
    assert [r["old"]["metrics"]["cmd_s.p50"]["value"] for r in results] == [0.1] * 4
    assert [r["new"]["metrics"]["cmd_s.p50"]["value"] for r in results] == [0.09] * 4
    assert ran == [(1, "old", "a"), (1, "new", "b"), (2, "new", "b"), (2, "old", "a"),
                   (3, "old", "b"), (3, "new", "a"), (4, "new", "a"), (4, "old", "b")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new", "old", "scratch"]
