"""One fresh benchmark process: set up, then run a workload through the CLI.

    python3 perfbench/worker.py --mode {probe,timed,traced} --workload W
        --seed N --seconds S --run-dir DIR --result FILE

Set-up is the import of `demongain.cli` (numpy and scipy.optimize come
with it) plus writing the workload's inputs; `probe` stops there. `timed`
calls `demongain.cli.main` pass after pass until `--seconds` have gone,
with tracing off. `traced` alternates an untraced and a traced pass on
the same inputs. Every invocation's outputs are checked and digested.
The result is written as JSON to `--result`.

Host speed on a shared machine drifts by a third and more over tens of
seconds, and every wall time drifts with it. So a fixed kernel that calls
no demongain code is timed around each invocation and after set-up, and
times are also reported scaled to the reference speed: as they would read
on a host where the kernel takes REFERENCE_KERNEL_S.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("qlin", "gates", "protocol", "tomography", "noisefit", "cli")
REFERENCE_KERNEL_S = 0.010


def kernel_seconds() -> float:
    """Median wall time of three runs of a fixed interpreter and numpy work item."""
    import numpy as np

    a = np.array([[0.6, 0.8], [0.8, -0.6]])
    h = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i
        for _ in range(200):
            np.linalg.eigh(h + np.kron(a, a))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Checks:
    """Counts correctness checks and keeps the names of failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(name)


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every file under an output directory, by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


class Runner:
    """Runs passes of CLI steps, timing and checking each invocation."""

    def __init__(self, cli, workloads, run_dir: Path, checks: Checks):
        self.cli = cli
        self.workloads = workloads
        self.out_root = run_dir / "out"
        self.checks = checks
        self.kernel_s = kernel_seconds()

    def run_pass(self, steps, before_call=None) -> dict:
        """Walls as measured and scaled to the reference speed, digests, bytes."""
        walls, scaled, kernels, digests, nbytes, items = [], [], [], {}, 0, 0
        for step in steps:
            out = self.out_root / step.tag
            shutil.rmtree(out, ignore_errors=True)
            if before_call is not None:
                before_call()
            kernel_before = self.kernel_s
            rc, wall = self._invoke([*step.argv, "--out", str(out)])
            self.kernel_s = kernel_seconds()
            kernel = (kernel_before + self.kernel_s) / 2
            walls.append(wall)
            scaled.append(wall * REFERENCE_KERNEL_S / kernel)
            kernels.append(kernel)
            items += step.items
            self.checks.add(f"{step.tag}: exit status 0", rc == 0)
            try:
                for name, passed in self.workloads.check(step.tag, out):
                    self.checks.add(name, passed)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self.checks.add(f"{step.tag}: outputs readable ({exc!r})", False)
            digests[step.tag] = digest(out)
            nbytes += tree_bytes(out)
        return {"walls": walls, "scaled": scaled, "kernels": kernels,
                "digests": digests, "bytes": nbytes, "items": items}

    def _invoke(self, argv: list[str]) -> tuple[int, float]:
        gc.collect()
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(argv)
        except (Exception, SystemExit):
            # The benchmark keeps going so the failure is counted, not lost.
            traceback.print_exc()
            rc = 1
        return rc, time.perf_counter() - start


def timed(runner: Runner, sets, seconds: float) -> dict:
    """Passes 0 and 1 use input set 0, pass k > 1 set k - 1; stop after `seconds`."""
    walls, scaled, items, digests = [], [], 0, []
    start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - start < seconds:
        p = runner.run_pass(sets[max(k - 1, 0) % len(sets)])
        walls += p["walls"]
        scaled += p["scaled"]
        items += p["items"]
        if k == 1:
            runner.checks.add("repeated pass writes identical artifacts", p["digests"] == digests[0])
        digests.append(p["digests"])
        k += 1
    return {"passes": k, "walls": walls, "scaled": scaled, "items": items, "digests": digests}


def traced(runner: Runner, sets, seconds: float, modules: dict, package) -> dict:
    """Untraced then traced pass on input set 0, repeated until `seconds`."""
    counters = runner.workloads.COUNTERS
    tracer = spans.Tracer(modules, also_patch=(package,), counters=counters)

    def next_invocation():
        tracer.invocation += 1

    untraced_scaled, traced_scaled, summaries, reference = [], [], [], None
    start = time.perf_counter()
    k = 0
    while k < 1 or time.perf_counter() - start < seconds:
        plain = runner.run_pass(sets[0])
        first = tracer.invocation + 1
        with tracer:
            probe = runner.run_pass(sets[0], before_call=next_invocation)
        ids = range(first, tracer.invocation + 1)
        untraced_scaled += plain["scaled"]
        traced_scaled += probe["scaled"]
        if reference is None:
            reference = plain["digests"]
        runner.checks.add("repeated pass writes identical artifacts", plain["digests"] == reference)
        runner.checks.add("traced pass writes the untraced artifacts", probe["digests"] == reference)
        counts: dict[str, int] = {}
        for i in ids:
            for key, value in tracer.counts.get(i, {}).items():
                counts[key] = counts.get(key, 0) + value
        scale = REFERENCE_KERNEL_S / statistics.median(probe["kernels"])
        functions = spans.summarize(tracer, ids)
        for f in functions.values():
            f["self_s"] *= scale
        summary = {
            "functions": functions,
            "counts": counts,
            "artifact_bytes": probe["bytes"],
        }
        if summaries:
            runner.checks.add(
                "traced call counts repeat exactly",
                _exact_counts(summary) == _exact_counts(summaries[0]),
            )
        summaries.append(summary)
        k += 1
    return {
        "passes": k,
        "untraced_scaled": untraced_scaled,
        "traced_scaled": traced_scaled,
        "wrapped": tracer.wrapped_names(),
        "counter_keys": [key for key, _ in counters.values()],
        "digests": reference,
        "summaries": summaries,
        "tracer": tracer,
    }


def _exact_counts(summary: dict) -> dict:
    calls = {name: f["calls"] for name, f in summary["functions"].items()}
    return {"calls": calls, "counts": summary["counts"], "bytes": summary["artifact_bytes"]}


def write_spans(tracer, path: Path) -> None:
    import numpy as np

    columns = list(zip(*tracer.spans)) or [[]] * 5
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name_id=np.array(columns[0], dtype=np.int32),
        start=np.array(columns[1], dtype=float),
        end=np.array(columns[2], dtype=float),
        parent=np.array(columns[3], dtype=np.int64),
        invocation=np.array(columns[4], dtype=np.int64),
    )


def setup(workload: str, seed: int, run_dir: Path):
    """Import the CLI and write the inputs; return (modules, sets, times)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    cli = importlib.import_module("demongain.cli")
    import_s = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"demongain.cli was imported from {cli.__file__}, not from {src}")
    import workloads

    sets = workloads.make_inputs(workload, seed, run_dir / "inputs")
    setup_s = time.perf_counter() - start
    kernel_seconds()  # first numpy calls pay one-off costs
    kernel = kernel_seconds()
    modules = {name: importlib.import_module(f"demongain.{name}") for name in LAYERS}
    return modules, sets, {
        "import_s": import_s,
        "setup_s": setup_s,
        "setup_scaled_s": setup_s * REFERENCE_KERNEL_S / kernel,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--run-dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    modules, sets, setup_times = setup(args.workload, args.seed, args.run_dir)
    result: dict = {"setup": setup_times}
    if args.mode != "probe":
        import numpy
        import scipy
        import workloads

        checks = Checks()
        runner = Runner(modules["cli"], workloads, args.run_dir, checks)
        if args.mode == "timed":
            result["timed"] = timed(runner, sets, args.seconds)
        else:
            package = importlib.import_module("demongain")
            run = traced(runner, sets, args.seconds, modules, package)
            write_spans(run.pop("tracer"), args.run_dir / "spans.npz")
            result["traced"] = run
        result["checks"] = {"attempted": checks.attempted, "failures": checks.failures}
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["versions"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
