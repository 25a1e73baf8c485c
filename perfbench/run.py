"""Benchmark of the demongain CLI: three workloads, timed and traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

Run from the repository root. Workloads (see workloads.py):
tomo_bootstrap, fit_sampled and circuit_sweep. Each runs in a fresh
single process through `demongain.cli.main` at the default `--jobs 1`;
the process pool is left out because on a small shared machine its
scaling mostly measures the scheduler.

With `--trace 0` the run reports, tracing off:

- cmd_s.p50: median time of one subcommand invocation;
- cmd_s.tail: 90th percentile of invocation times, interpolated. A run
  holds 5 to 40 invocations, too few for ten samples beyond any
  percentile above the median; the sample count and the number beyond
  the tail are printed beside it;
- items_per_s: theta points per second of invocation time
  (tomo_bootstrap, circuit_sweep) or dataset fits per second,
  spread refits included (fit_sampled);
- setup_s: median over five fresh processes of importing
  `demongain.cli` plus writing the inputs;
- peak_rss_mb: peak resident memory of the workload process.

Times are wall times scaled to a reference host speed (see worker.py):
the speed of a shared host drifts by a third and more between runs, and
scaling by a fixed calibration kernel timed beside each invocation
removes most of that drift. The unscaled wall times are printed beside
the metrics and kept in the run record.

Failed output checks over checks attempted (failed_frac) is the result
line's `failed` / `attempted`.

With `--trace 1` a separate run wraps every public function of the
layers qlin, gates, protocol, tomography, noisefit and cli, and reports
per workload pass: `<layer>.<function>.calls`, `.self_s` (span time
minus child spans), counts taken at layer boundaries, the bytes the CLI
wrote, and trace.overhead_s (traced minus untraced median invocation).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A run record with versions, thread
settings, sample counts, check results and artifact digests is written
to `.perfbench_out/<workload>-trace<0|1>/run_record.json`; traced runs
also leave their spans in `traced/spans.npz` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # plus the workload process itself: five set-up samples
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Workers:
    """Starts worker processes with single-threaded BLAS, within a deadline."""

    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.env = {**os.environ, **{v: "1" for v in THREAD_VARS}}
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, mode: str, tag: str) -> dict:
        result = self.run_dir / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--mode", mode,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--run-dir", str(self.run_dir / tag),
            "--result", str(result),
        ]
        timeout = max(1.0, self.deadline - time.monotonic())
        # worker output goes to stderr so the result stays the last stdout line
        subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=timeout, check=True)
        return json.loads(result.read_text())


def end_to_end(timed: dict, setups: list[dict], peak_rss_mb: float):
    """(metric values, sample counts for the record, notes to print beside them)."""
    scaled, walls = timed["scaled"], timed["walls"]
    setup_scaled = [s["setup_scaled_s"] for s in setups]
    tail = statistics.quantiles(scaled, n=10, method="inclusive")[-1]
    beyond = sum(t > tail for t in scaled)
    values = {
        "cmd_s.p50": statistics.median(scaled),
        "cmd_s.tail": tail,
        "items_per_s": timed["items"] / sum(scaled),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "cmd_s": {"samples": len(scaled), "tail_percentile": 90, "samples_beyond_tail": beyond},
        "setup_s": {"samples": len(setups), "values": setup_scaled},
        "passes": timed["passes"],
        "items": timed["items"],
        "wall_s": {
            "cmd_p50": statistics.median(walls),
            "cmd_p90": statistics.quantiles(walls, n=10, method="inclusive")[-1],
            "setup_median": statistics.median(s["setup_s"] for s in setups),
        },
    }
    notes = {
        "cmd_s.p50": f"median of {len(scaled)} invocations; wall {statistics.median(walls):.4g} s",
        "cmd_s.tail": f"p90 of {len(scaled)} invocations, {beyond} beyond; "
        f"wall {samples['wall_s']['cmd_p90']:.4g} s",
        "items_per_s": f"{timed['items']} items; wall {timed['items'] / sum(walls):.4g}/s",
        "setup_s": f"median of {len(setups)} processes; "
        f"wall {samples['wall_s']['setup_median']:.4g} s",
    }
    return values, samples, notes


def per_layer(names: list[str], traced: dict) -> dict:
    """Per-layer metric values; a function that no longer exists made 0 calls."""
    first = traced["summaries"][0]
    fns, counts = first["functions"], first["counts"]

    def calls(fn: str) -> int:
        return fns.get(fn, {}).get("calls", 0)

    def self_s(fn: str) -> float:
        return statistics.median(
            s["functions"].get(fn, {}).get("self_s", 0.0) for s in traced["summaries"]
        )

    derived = {
        "trace.overhead_s": lambda: statistics.median(traced["traced_scaled"])
        - statistics.median(traced["untraced_scaled"]),
        "cli.artifact_bytes": lambda: first["artifact_bytes"],
        "noisefit.residual.calls_per_fit": lambda: calls("noisefit.residual")
        / max(calls("noisefit.fit"), 1),
        "noisefit.fit.converged_frac": lambda: counts.get("noisefit.fit.converged", 0)
        / max(calls("noisefit.fit"), 1),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]()
        elif name.endswith(".calls"):
            values[name] = calls(name.removesuffix(".calls"))
        elif name.endswith(".self_s"):
            values[name] = self_s(name.removesuffix(".self_s"))
        elif name in traced["counter_keys"]:
            values[name] = counts.get(name, 0)
        else:
            raise ValueError(f"no source for per-layer metric {name!r}")
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "demongain" / "cli.py").is_file():
        raise SystemExit(f"no demongain sources under {ROOT / 'src'}; run from a checkout")
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workers = Workers(args, run_dir)

    notes: dict[str, str] = {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "threads": {v: workers.env[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
    }
    try:
        if args.trace:
            res = workers.run("traced", "traced")
            values = per_layer([m["name"] for m in metric_specs], res["traced"])
            record["samples"] = {
                "passes": res["traced"]["passes"],
                "traced_scaled": res["traced"]["traced_scaled"],
                "untraced_scaled": res["traced"]["untraced_scaled"],
            }
            record["layers"] = res["traced"]["summaries"]
            record["wrapped"] = res["traced"]["wrapped"]
            record["digests"] = res["traced"]["digests"]
        else:
            setups = [workers.run("probe", f"probe{i}")["setup"] for i in range(SETUP_PROBES)]
            res = workers.run("timed", "timed")
            setups.append(res["setup"])
            values, record["samples"], notes = end_to_end(
                res["timed"], setups, res["peak_rss_mb"]
            )
            record["digests"] = res["timed"]["digests"]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    checks = res["checks"]
    record["versions"] = res["versions"]
    record["checks"] = checks
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    record["metrics"] = metrics
    (run_dir / "run_record.json").write_text(json.dumps(record, indent=1))

    failed = len(checks["failures"])
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"record {run_dir.relative_to(ROOT) / 'run_record.json'}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:9s} {notes.get(name, '')}")
    print(f"  {'failed_frac':40s} {failed / checks['attempted']:>14.6g} "
          f"({failed} of {checks['attempted']} checks)")
    for name in checks["failures"]:
        print(f"  FAILED: {name}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
