"""Batch front end: theta sweeps, tomography studies, noise fits, checks.

Runs are driven by a JSON manifest with one section per subcommand:

    {
      "sweep":  {"theta_start": 0.0, "theta_end": 1.5707963267948966,
                 "theta_steps": 33, "shots": 3500, "seed": 20240901,
                 "mode": "exact", "noise": [0.0, 0.0, 0.0]},
      "tomo":   {"thetas": [...], "shots_per_setting": 100,
                 "resamples": 500, "seed": 20240901,
                 "noise": [0.0, 0.0, 0.0], "exact_moments": false},
      "fit":    {"dataset": "path/to/tables.csv", "init": null,
                 "bounds": [[-0.7853981633974483, 0.7853981633974483], ...],
                 "spread_resamples": 0, "spread_shots": 3500},
      "verify": {"tolerances": {"relation": 1e-12, ...}}
    }

A relative "dataset" path is read from the manifest's directory. Every
JSON artifact carries a schema_version field; CSV numbers are written
with 12 significant digits. Unreadable or malformed input ends the run
with a one-line error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import noisefit, protocol, tomography
from .gates import NoiseParams
from .protocol import DEFAULT_SEED, DEFAULT_SHOTS, ProtocolConfig

SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_manifest(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}:{exc.lineno}: invalid manifest JSON: {exc.msg}")
    except OSError as exc:
        raise SystemExit(f"cannot read manifest {path}: {exc}")


def _section(manifest: dict, name: str) -> dict:
    if name not in manifest:
        raise SystemExit(f"manifest has no '{name}' section")
    if not isinstance(manifest[name], dict):
        raise SystemExit(f"manifest section '{name}' must be an object")
    return manifest[name]


def _noise_from(section: dict) -> NoiseParams:
    raw = section.get("noise", [0.0, 0.0, 0.0])
    if len(raw) != 3:
        raise SystemExit("manifest 'noise' must list three phase deviations")
    return NoiseParams(tuple(float(x) for x in raw))


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(manifest: dict, manifest_dir: Path, out_dir: Path, seed_override) -> int:
    sec = _section(manifest, "sweep")
    start = float(sec.get("theta_start", 0.0))
    end = float(sec.get("theta_end", np.pi / 2))
    steps = int(sec.get("theta_steps", 33))
    shots = int(sec.get("shots", DEFAULT_SHOTS))
    seed = int(seed_override if seed_override is not None else sec.get("seed", DEFAULT_SEED))
    mode = sec.get("mode", "exact")
    if mode not in ("exact", "sampled"):
        raise SystemExit(f"sweep mode must be 'exact' or 'sampled', got {mode!r}")
    noise = _noise_from(sec)
    thetas = np.linspace(start, end, steps)

    if mode == "exact":
        table = protocol.outcome_table_exact(thetas, noise)
    else:
        table = protocol.run_shots(thetas, noise, shots, seed)

    protocol.write_tables_csv(out_dir / "outcome_tables.csv", table)
    with open(out_dir / "energies.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "w_i", "w_f", "delta_w", "concurrence_analytic", "bound"])
        for theta, (wi, wf, dw) in zip(table.thetas, protocol.energies_from_table(table)):
            c = protocol.analytic_concurrence(theta)
            w.writerow([_fmt(v) for v in (theta, wi, wf, dw, c, protocol.gain_lower_bound(c))])
    _write_json(
        out_dir / "sweep_summary.json",
        {
            "mode": mode,
            "shots": shots,
            "seed": seed,
            "noise": list(noise.delta_phi),
            "points": protocol.table_to_json_dicts(table),
        },
    )
    return 0


# ---------------------------------------------------------------------------
# tomo


def cmd_tomo(manifest: dict, manifest_dir: Path, out_dir: Path, seed_override) -> int:
    sec = _section(manifest, "tomo")
    thetas = [float(t) for t in sec.get("thetas", list(np.linspace(0, np.pi / 2, 9)))]
    shots = int(sec.get("shots_per_setting", 100))
    resamples = int(sec.get("resamples", 500))
    seed = int(seed_override if seed_override is not None else sec.get("seed", DEFAULT_SEED))
    exact_moments = bool(sec.get("exact_moments", False))
    noise = _noise_from(sec)

    # every theta is checked before the first tomogram CSV is written
    rhos = [protocol.prepare_resource(ProtocolConfig(theta=t, noise=noise)) for t in thetas]
    points = []
    for i, (theta, rho) in enumerate(zip(thetas, rhos)):
        if exact_moments:
            tomo = tomography.Tomogram(tomography.linear_inversion(tomography.setting_probs(rho)))
        else:
            tomo = tomography.tomography_study(rho, shots, resamples, seed + i)
            tomography.write_counts_csv(out_dir / f"tomogram_{i:02d}.csv", tomo.counts)
        points.append(tomography.summary_to_json_dict(theta, tomo))
    c0, stderr = tomography.fit_c0(thetas, [p["concurrence"] for p in points])
    _write_json(
        out_dir / "tomo_metrics.json",
        {
            "shots_per_setting": shots,
            "resamples": resamples,
            "seed": seed,
            "noise": list(noise.delta_phi),
            "exact_moments": exact_moments,
            "points": points,
            "c0_fit": {"c0": c0, "stderr": stderr},
        },
    )
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(manifest: dict, manifest_dir: Path, out_dir: Path, seed_override) -> int:
    sec = _section(manifest, "fit")
    dataset_path = sec.get("dataset")
    if not dataset_path:
        raise SystemExit("fit section needs a 'dataset' CSV path")
    data = protocol.read_tables_csv(manifest_dir / dataset_path)
    init = None
    if sec.get("init") is not None:
        init = NoiseParams(tuple(float(x) for x in sec["init"]))
    bounds = noisefit.DEFAULT_BOUNDS
    if sec.get("bounds") is not None:
        bounds = tuple((float(lo), float(hi)) for lo, hi in sec["bounds"])
    result = noisefit.fit(data, init=init, bounds=bounds)

    spread_resamples = int(sec.get("spread_resamples", 0))
    if spread_resamples:
        seed = int(seed_override if seed_override is not None else sec.get("seed", DEFAULT_SEED))
        spread = noisefit.bootstrap_spread(
            data,
            result,
            shots=int(sec.get("spread_shots", DEFAULT_SHOTS)),
            resamples=spread_resamples,
            seed=seed,
        )
        result.per_parameter_spread = spread

    _write_json(out_dir / "fit_result.json", result.to_json_dict())
    model = noisefit.model_curves(NoiseParams(result.delta_phi), data.thetas)
    with open(out_dir / "fit_overlay.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "d", "d_prime", "a_prime", "data", "model"])
        for theta, obs, fitted in zip(data.thetas, data.cells, model.cells):
            for c, p, q in zip(protocol.CELLS, obs, fitted):
                w.writerow([_fmt(theta), *c, _fmt(p), _fmt(q)])
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_checks(tol: dict):
    """Yield (name, passed, measure) for every library invariant."""
    thetas = np.linspace(0, np.pi / 2, 33)
    rng = np.random.default_rng(0)
    rhos = [protocol.prepare_resource(ProtocolConfig(theta=t)) for t in thetas]
    branches = [protocol.measure_demon(rho) for rho in rhos]
    gains = [
        protocol.demonic_gain(rho, protocol.apply_feedback(b))
        for rho, b in zip(rhos, branches)
    ]

    rel_tol = tol.get("relation", 1e-12)
    dev = max(abs(g - np.cos(t) ** 2 / 2) for t, g in zip(thetas, gains))
    yield "gain equals half squared concurrence", dev <= rel_tol, dev

    bound_tol = tol.get("bound", 1e-12)
    min_slack = np.inf
    for t in thetas:
        c = protocol.analytic_concurrence(t)
        slack = np.cos(t) ** 2 / 2 - protocol.gain_lower_bound(c)
        min_slack = min(min_slack, slack)
    edge = max(
        abs(0.5 - protocol.gain_lower_bound(1.0)),
        abs(protocol.gain_lower_bound(0.0)),
    )
    yield "gain bound holds with tight edges", (
        min_slack >= -bound_tol and edge <= bound_tol
    ), min_slack

    bal_tol = tol.get("balanced", 1e-12)
    dev = max(abs(b.prob - 0.5) for bs in branches for b in bs)
    yield "balanced mid-circuit probabilities", dev <= bal_tol, dev

    conc_tol = tol.get("concurrence", 1e-10)
    dev = max(abs(tomography.concurrence(rho) - abs(np.cos(t))) for t, rho in zip(thetas, rhos))
    yield "concurrence law |cos(theta)|", dev <= conc_tol, dev

    inv_tol = tol.get("inversion", 1e-12)
    dev = 0.0
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        rec = tomography.linear_inversion(tomography.setting_probs(rho))
        dev = max(dev, np.max(np.abs(rec - rho)))
    yield "linear inversion exact on moments", dev <= inv_tol, dev

    en_tol = tol.get("energies", 1e-12)
    table = protocol.outcome_table_exact(thetas, NoiseParams.zeros())
    dev = max(abs(dw - g) for dw, g in zip(protocol.energies_from_table(table)[:, 2], gains))
    yield "table energies match state gain", dev <= en_tol, dev

    swap_u = protocol._U_SWAP
    x_d = np.kron(np.eye(2), np.array([[0, 1], [1, 0]])).astype(complex)
    candidates = [np.eye(4, dtype=complex), swap_u, x_d, x_d @ swap_u]
    ok = True
    for rho in rhos:
        ref = protocol.policy_gain(rho, (swap_u, np.eye(4, dtype=complex)))
        best = max(
            protocol.policy_gain(rho, (u0, u1))
            for u0 in candidates
            for u1 in candidates
        )
        if best > ref + 1e-12:
            ok = False
    yield "conditional swap is the optimal policy", ok, 0.0


def cmd_verify(manifest: dict, manifest_dir: Path, out_dir: Path, seed_override) -> int:
    sec = manifest.get("verify", {})
    tol = sec.get("tolerances", {})
    failures = 0
    results = []
    for name, passed, measure in _verify_checks(tol):
        print(f"[{'PASS' if passed else 'FAIL'}] {name} (measure {_fmt(measure)})")
        results.append({"name": name, "passed": bool(passed), "measure": float(measure)})
        failures += 0 if passed else 1
    _write_json(out_dir / "verify_report.json", {"checks": results})
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="demongain",
        description="Two-qubit feedback energy-extraction protocol toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep", "tomo", "fit", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=(name != "verify"), help="JSON run manifest")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override manifest seed")
    args = parser.parse_args(argv)

    manifest = _load_manifest(args.manifest) if args.manifest else {}
    manifest_dir = Path(args.manifest).parent if args.manifest else Path(".")
    handler = {
        "sweep": cmd_sweep,
        "tomo": cmd_tomo,
        "fit": cmd_fit,
        "verify": cmd_verify,
    }[args.command]
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return handler(manifest, manifest_dir, out_dir, args.seed)
    except (OSError, ValueError, TypeError) as exc:
        raise SystemExit(f"demongain {args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
