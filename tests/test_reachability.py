"""Reachability and layering of src/demongain.

Every public function is called by one of the four subcommands, and the
modules import each other only along the layers.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public functions no subcommand calls, each kept for a stated reason.
ALLOWED_UNREACHED = {
    # BENCHMARK.json names gates.cy.calls and .self_s as per-layer metrics;
    # gates.kets applies the controlled-Y's factors to kets instead
    "gates.cy",
    # BENCHMARK.json names qlin.partial_trace.calls and .self_s
    "qlin.partial_trace",
}

# Runs sweep (exact and sampled), tomo, fit and verify on tiny manifests,
# with the profiler set before demongain.cli is imported so calls made at
# import count, and prints the public functions that were never called.
PROBE = textwrap.dedent(
    """
    import importlib, inspect, json, pkgutil, sys
    from pathlib import Path

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    from demongain import cli

    out = Path(sys.argv[1])
    noise = [0.014, 0.107, 0.259]
    manifests = {
        "exact": {"sweep": {"theta_steps": 3}},
        "sampled": {"sweep": {"theta_steps": 3, "mode": "sampled", "shots": 200, "noise": noise}},
        "tomo": {"tomo": {"thetas": [0.0, 0.7], "shots_per_setting": 20, "resamples": 4}},
        "fit": {"fit": {"dataset": "sampled/outcome_tables.csv", "spread_resamples": 2,
                        "spread_shots": 200}},
    }
    codes = []
    for name, manifest in manifests.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(manifest))
        command = next(iter(manifest))
        codes.append(cli.main([command, "--manifest", str(path), "--out", str(out / name)]))
    codes.append(cli.main(["verify", "--out", str(out / "verify")]))
    sys.setprofile(None)

    package = importlib.import_module("demongain")
    unreached = []
    for info in pkgutil.iter_modules(package.__path__):
        mod = importlib.import_module(f"demongain.{info.name}")
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_") and fn.__code__ not in called):
                unreached.append(f"{info.name}.{name}")
    print(json.dumps({"exit_codes": codes, "unreached": sorted(unreached)}))
    """
)


def test_every_public_function_is_reached_by_a_subcommand(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["exit_codes"] == [0] * 5
    assert set(report["unreached"]) == ALLOWED_UNREACHED


def _imports(path: Path):
    """(module, names) of every relative import in `path`; module is None for `from . import`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node.module, [alias.name for alias in node.names]


def test_modules_import_along_the_layers():
    paths = sorted((ROOT / "src/demongain").glob("*.py"))
    assert {"protocol", "noisefit", "shared"} <= {path.stem for path in paths}
    for path in paths:
        modules = set()
        for module, names in _imports(path):
            private = [n for n in names if n.startswith("_")]
            assert not private, f"{path.stem} imports {private} from {module}"
            modules.update(names if module is None else [module.split(".")[0]])
        if path.stem in ("protocol", "noisefit"):
            assert "tomography" not in modules, f"{path.stem} imports tomography"
        if path.stem == "shared":
            assert not modules, f"shared imports {sorted(modules)}"


def test_package_namespace_holds_only_the_traced_alias():
    # callers import from the modules; perfbench's tracer test patches
    # demongain.bootstrap through the package
    import demongain
    from demongain import tomography

    public = {name for name, value in vars(demongain).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"bootstrap"}
    assert demongain.bootstrap is tomography.bootstrap
