"""Tests of the benchmark's own machinery: span arithmetic, patching, counts.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import json
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _layers():
    return {name: importlib.import_module(f"demongain.{name}") for name in worker.LAYERS}


def test_self_time_subtracts_the_union_of_child_intervals():
    spans_ = [
        (0, 0.0, 10.0, -1, 1),  # root
        (1, 1.0, 3.0, 0, 1),  # child
        (1, 2.0, 5.0, 0, 1),  # overlaps the first child: union [1, 5]
        (2, 2.5, 2.75, 2, 1),  # grandchild: counts against its parent only
        (1, 8.0, 12.0, 0, 1),  # runs past the root: clipped to [8, 10]
        (0, 20.0, 21.0, -1, 2),  # second invocation, no children
    ]
    assert spans.self_times(spans_) == pytest.approx([4.0, 2.0, 2.75, 0.25, 4.0, 1.0])


def test_summarize_sums_calls_and_self_time_per_name_and_invocation():
    tracer = spans.Tracer({})
    tracer.names = ["a", "b"]
    tracer.spans = [(0, 0.0, 4.0, -1, 1), (1, 1.0, 2.0, 0, 1), (1, 2.0, 2.5, 0, 1), (1, 9.0, 9.5, -1, 2)]
    assert spans.summarize(tracer, [1]) == {
        "a": {"calls": 1, "self_s": pytest.approx(2.5)},
        "b": {"calls": 2, "self_s": pytest.approx(1.5)},
    }


def test_tracer_wraps_aliases_and_restores_every_attribute():
    layers = _layers()
    package = importlib.import_module("demongain")
    targets = [*layers.values(), package]
    before = [dict(vars(mod)) for mod in targets]
    originals = {
        "kron": layers["qlin"].kron,
        "outcome_table_exact": layers["protocol"].outcome_table_exact,
    }
    tracer = spans.Tracer(layers, also_patch=(package,))
    with tracer:
        for alias in (layers["gates"], layers["protocol"], layers["tomography"]):
            assert alias.kron is layers["qlin"].kron is not originals["kron"]
        assert layers["noisefit"].outcome_table_exact is not originals["outcome_table_exact"]
        assert package.bootstrap is layers["tomography"].bootstrap
        layers["protocol"].prepare_resource(layers["protocol"].ProtocolConfig(theta=0.3))
    names = {tracer.names[s[0]] for s in tracer.spans}
    assert {"protocol.prepare_resource", "gates.bell_prep", "qlin.kron"} <= names
    for mod, saved in zip(targets, before):
        now = vars(mod)
        assert now.keys() == saved.keys()
        changed = [k for k in saved if now[k] is not saved[k]]
        assert changed == [], f"{mod.__name__} not restored: {changed}"


def _traced_once(tmp_path: Path, workload: str, seed: int) -> tuple[dict, list[str]]:
    modules, sets, _ = worker.setup(workload, seed, tmp_path)
    checks = worker.Checks()
    runner = worker.Runner(modules["cli"], workloads, tmp_path, checks)
    run_ = worker.traced(runner, sets, 0.0, modules, importlib.import_module("demongain"))
    run_.pop("tracer")
    return run_, checks.failures


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced runs per workload with the same seed, at a reduced shape."""
    mp = pytest.MonkeyPatch()
    mp.setattr(workloads, "INPUT_SETS", 1)
    mp.setattr(workloads, "TOMO_RESAMPLES", 20)
    mp.setattr(workloads, "FIT_SPREAD_RESAMPLES", 2)
    mp.setattr(workloads, "SWEEP_STEPS", 33)
    try:
        yield {
            w: [_traced_once(tmp_path_factory.mktemp(f"{w}{i}"), w, 7) for i in range(2)]
            for w in WORKLOADS
        }
    finally:
        mp.undo()


def test_traced_runs_pass_every_check(traced_twice):
    for workload, runs in traced_twice.items():
        for _, failures in runs:
            assert failures == [], workload


def test_call_and_count_metrics_repeat_exactly(traced_twice):
    exact = [n for n in PER_LAYER if not n.endswith("_s")]
    for workload, ((a, _), (b, _)) in traced_twice.items():
        va, vb = run.per_layer(exact, a), run.per_layer(exact, b)
        assert va == vb, workload


def test_every_per_layer_metric_has_a_source(traced_twice):
    (run_, _), _ = traced_twice["fit_sampled"]
    values = run.per_layer(PER_LAYER, run_)
    assert set(values) == set(PER_LAYER)
    functions = {n.rsplit(".", 1)[0] for n in PER_LAYER if n.endswith((".calls", ".self_s"))}
    assert functions <= set(run_["wrapped"])


def test_zero_call_pairings(traced_twice):
    def calls(workload):
        (run_, _), _ = traced_twice[workload]
        return run.per_layer([n for n in PER_LAYER if n.endswith(".calls")], run_)

    tomo = calls("tomo_bootstrap")
    assert all(v == 0 for n, v in tomo.items() if n.startswith("noisefit."))
    assert tomo["tomography.bootstrap.calls"] == 9
    for workload in ("fit_sampled", "circuit_sweep"):
        assert calls(workload)["tomography.bootstrap.calls"] == 0
