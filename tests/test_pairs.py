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


def _rule(lines, name):
    """The gain-rule row of metric `name`: the second row that starts with it."""
    return [line.split() for line in lines if line.startswith(name + " ")][1]


def test_gain_rule_holds_when_every_pair_wins_by_more_than_the_old_spread():
    old = [0.100 + 0.001 * k for k in range(10)]  # q1 0.10225, q3 0.10675
    lines = pairs["summarize"]([{"old": _result(o), "new": _result(o - 0.01)} for o in old], SPECS)
    assert _rule(lines, "cmd_s.p50") == ["cmd_s.p50", "0.10225", "0.10675", "0.09225", "0.09675",
                                         "holds"]
    assert _rule(lines, "items_per_s")[-1] == "holds"  # higher is better there
    # a tie is no win and no gap
    assert _rule(lines, "setup_s")[-7:] == ["fails:", "0/10", "pairs,", "gap", "0", "<=", "0"]


def test_gain_rule_fails_below_nine_tenths_of_the_pairs():
    old = [0.100 + 0.001 * k for k in range(10)]
    new = [o + (0.001 if k in (3, 7) else -0.01) for k, o in enumerate(old)]
    lines = pairs["summarize"]([{"old": _result(o), "new": _result(n)} for o, n in zip(old, new)],
                               SPECS)
    assert _row(lines, "cmd_s.p50")[5] == "8/10"
    assert _rule(lines, "cmd_s.p50")[-3:] == ["fails:", "8/10", "pairs"]


def test_gain_rule_fails_when_the_median_gap_is_within_the_old_spread():
    old = [0.100 + 0.001 * k for k in range(10)]
    lines = pairs["summarize"]([{"old": _result(o), "new": _result(o - 0.001)} for o in old], SPECS)
    assert _row(lines, "cmd_s.p50")[5] == "10/10"
    assert _rule(lines, "cmd_s.p50")[-5:] == ["fails:", "gap", "0.001", "<=", "0.0045"]


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


def test_reports_one_block_per_workload():
    results = [{"old": {"w1": _result(0.10), "w2": _result(0.20)},
                "new": {"w1": _result(0.09), "w2": _result(0.22, failed=1)}},
               {"old": {"w1": _result(0.10), "w2": _result(0.20)},
                "new": {"w1": _result(0.08), "w2": _result(0.21)}}]
    lines = pairs["report"](results, SPECS)
    # name, two headers, two rows per metric, two failed-check rows
    blocks = 2 * len(SPECS) + 5
    assert len(lines) == 2 * blocks
    w1, w2 = lines[:blocks], lines[blocks:]
    assert (w1[0], w2[0]) == ("w1:", "w2:")
    assert w1[1:] == pairs["summarize"]([{s: r[s]["w1"] for s in r} for r in results], SPECS)
    assert _row(w1, "cmd_s.p50")[-4:] == ["-15.00%", "2/2", "(1/1,", "1/1)"]
    assert _row(w2, "cmd_s.p50")[-4:] == ["+7.50%", "0/2", "(0/1,", "0/1)"]
    assert w2[-1] == "failed checks, new: 1 of 16"


def test_main_runs_every_named_workload_in_both_trees(tmp_path, monkeypatch, capsys):
    for side in ("old", "new"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "side.txt").write_text(side)
        (tmp_path / side / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    ran = []

    def perfbench(tree, workload, seed, seconds):
        side = (tree / "side.txt").read_text()
        ran.append((seed, side, workload))
        return _result({"w1": 0.1, "w2": 0.2}[workload] * (0.9 if side == "new" else 1.0))

    monkeypatch.setitem(pairs["main"].__globals__, "perfbench", perfbench)
    pairs["main"]([str(tmp_path / "old"), str(tmp_path / "new"), "--workload", "w1",
                   "--workload", "w2", "--seconds", "1", "--pairs", "2",
                   "--scratch", str(tmp_path / "scratch")])
    # each pair runs both workloads in one tree, then in the other, in alternated order
    assert ran == [(1, "old", "w1"), (1, "old", "w2"), (1, "new", "w1"), (1, "new", "w2"),
                   (2, "new", "w1"), (2, "new", "w2"), (2, "old", "w1"), (2, "old", "w2")]
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.endswith(":")] == ["w1:", "w2:"]
    assert [_row(out[out.index(w):], "cmd_s.p50")[-4:] for w in ("w1:", "w2:")] == [
        ["-10.00%", "2/2", "(1/1,", "1/1)"]] * 2
