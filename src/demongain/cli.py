"""Batch front end: theta sweeps, tomography studies, noise fits, checks.

sweep, tomo and fit are driven by a JSON manifest with one section per
subcommand. The format is the table MANIFEST: section -> key ->
(default, converter). `main` resolves the invoked section once, before
any file is written: a key left out takes its default, each value goes
through its converter, and --seed (offered where the section has a
"seed" key) replaces the seed. Each of those cmd_* takes the output
directory, the manifest's directory and those values as keywords. Runs
that draw nothing ignore the seed: exact sweeps, exact-moment
tomography, fits without spread refits. verify takes no manifest: it
checks the library at fixed tolerances and seeds.

A relative "dataset" path is read from the manifest's directory. Every
JSON artifact carries a schema_version field; CSV numbers are written
with 12 significant digits. Unreadable or malformed input ends the run
with a one-line error. An unknown section or key, or a value of the
wrong type or form, is named by its section and key, e.g.
"manifest sweep.shot: unknown key" or "manifest sweep.noise: ...".
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import noisefit, protocol, tomography
from .gates import NoiseParams
from .protocol import DEFAULT_SEED, DEFAULT_SHOTS, ProtocolConfig, _fmt

SCHEMA_VERSION = 1


def _load_manifest(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}:{exc.lineno}: invalid manifest JSON: {exc.msg}")
    except OSError as exc:
        raise SystemExit(f"cannot read manifest {path}: {exc}")


def _typed(where: str, value, convert):
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest {where}: {exc}") from None


def _expect(value, kind, what: str):
    """`value` if it is a `kind`, else a TypeError; true/false is only a bool."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise TypeError(f"expected {what}, got {value!r}")
    return value


def _number(value) -> float:
    return float(_expect(value, (int, float), "a number"))


def _integer(value) -> int:
    return _expect(value, int, "an integer")


def _flag(value) -> bool:
    return _expect(value, bool, "true or false")


def _numbers(value) -> list[float]:
    return [_number(x) for x in _expect(value, list, "a list of numbers")]


def _mode(value) -> str:
    if value not in ("exact", "sampled"):
        raise ValueError(f"expected 'exact' or 'sampled', got {value!r}")
    return value


def _noise(value) -> NoiseParams:
    if len(_expect(value, list, "a list of three phase deviations")) != 3:
        raise ValueError(f"expected three phase deviations, got {value!r}")
    return NoiseParams(tuple(_numbers(value)))


# section -> key -> (default, converter). A default is written as in a
# manifest and goes through its converter.
MANIFEST = {
    "sweep": {
        "theta_start": (0.0, _number),
        "theta_end": (np.pi / 2, _number),
        "theta_steps": (33, _integer),
        "shots": (DEFAULT_SHOTS, _integer),
        "seed": (DEFAULT_SEED, _integer),
        "mode": ("exact", _mode),
        "noise": ([0.0, 0.0, 0.0], _noise),
    },
    "tomo": {
        "thetas": (np.linspace(0, np.pi / 2, 9).tolist(), _numbers),
        "shots_per_setting": (100, _integer),
        "resamples": (500, _integer),
        "seed": (DEFAULT_SEED, _integer),
        "exact_moments": (False, _flag),
        "noise": ([0.0, 0.0, 0.0], _noise),
    },
    "fit": {
        "dataset": (None, lambda v: _expect(v, str, "a CSV path")),
        "init": (None, lambda v: None if v is None else _noise(v)),
        "spread_resamples": (0, _integer),
        "spread_shots": (DEFAULT_SHOTS, _integer),
        "seed": (DEFAULT_SEED, _integer),
    },
}


def _section(manifest, name: str, seed) -> dict:
    """Resolved values of the manifest's section `name`; a given `seed` replaces its seed.

    A key left out takes its default; a section or key MANIFEST lacks is refused.
    """
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest: expected an object, got {type(manifest).__name__}")
    unknown = [s for s in manifest if s not in MANIFEST]
    if unknown:
        raise ValueError(f"manifest {unknown[0]}: unknown section")
    if name not in manifest:
        raise ValueError(f"manifest has no '{name}' section")
    given = _typed(name, manifest[name], lambda v: _expect(v, dict, "an object"))
    unknown = [key for key in given if key not in MANIFEST[name]]
    if unknown:
        raise ValueError(f"manifest {name}.{unknown[0]}: unknown key")
    values = {key: _typed(f"{name}.{key}", given.get(key, default), convert)
              for key, (default, convert) in MANIFEST[name].items()}
    if seed is not None:
        values["seed"] = seed
    return values


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(out_dir: Path, manifest_dir: Path, theta_start, theta_end, theta_steps,
              shots, seed, mode, noise) -> int:
    # refused here, so every sweep's outcome table is a dataset fit accepts
    if theta_steps < 1:
        raise ValueError(f"theta_steps must be >= 1, got {theta_steps}")
    if theta_steps > 1 and theta_end < theta_start:
        raise ValueError(f"theta_end {theta_end!r} lies below theta_start {theta_start!r}")
    thetas = np.linspace(theta_start, theta_end, theta_steps)
    if mode == "exact":
        table = protocol.outcome_table_exact(thetas, noise)
    else:
        table = protocol.run_shots(thetas, noise, shots, seed)

    protocol.write_tables_csv(out_dir / "outcome_tables.csv", table)
    with open(out_dir / "energies.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "w_i", "w_f", "delta_w", "concurrence_analytic", "bound"])
        c = protocol.analytic_concurrence(table.thetas)
        columns = (table.thetas[:, None], protocol.energies_from_table(table), c[:, None],
                   protocol.gain_lower_bound(c)[:, None])
        w.writerows([_fmt(v) for v in row] for row in np.hstack(columns))
    # exact tables draw no shots: the sampling settings would be unused
    sampling = {} if mode == "exact" else {"shots": shots, "seed": seed}
    _write_json(out_dir / "sweep_summary.json", {
        "mode": mode, **sampling, "noise": list(noise.delta_phi),
        "points": protocol.table_to_json_dicts(table)})
    return 0


# ---------------------------------------------------------------------------
# tomo


def cmd_tomo(out_dir: Path, manifest_dir: Path, thetas, shots_per_setting, resamples, seed,
             exact_moments, noise) -> int:
    # every theta is checked before the first tomogram CSV is written
    rhos = protocol.prepare_resource(ProtocolConfig(theta=np.array(thetas), noise=noise))
    bootstraps = None
    if exact_moments:
        rho_hat = tomography.linear_inversion(tomography.setting_probs(rhos))
    else:
        counts, rho_hat, bootstraps = tomography.tomography_study(
            rhos, shots_per_setting, resamples, seed
        )
        for i, c in enumerate(counts):
            tomography.write_counts_csv(out_dir / f"tomogram_{i:02d}.csv", c)
    conc = tomography.concurrence(rho_hat).tolist()
    pur = tomography.purity(rho_hat).tolist()
    shots = 0 if exact_moments else shots_per_setting
    points = []
    for i, theta in enumerate(thetas):
        point = {"concurrence": conc[i], "purity": pur[i]}
        points.append({"theta": theta, "shots_per_setting": shots, **point})
        if bootstraps:
            b = bootstraps[i]
            points[-1]["bootstrap"] = {"resamples": b.resamples, "point": point, "lower": b.lower,
                                       "upper": b.upper, "percentiles": list(tomography.PERCENTILES)}
    c0, stderr = tomography.fit_c0(thetas, conc)
    # exact moments draw no shots: the sampling settings would be unused
    sampling = {} if exact_moments else {
        "shots_per_setting": shots_per_setting, "resamples": resamples, "seed": seed}
    _write_json(out_dir / "tomo_metrics.json", {
        **sampling, "noise": list(noise.delta_phi), "exact_moments": exact_moments,
        "points": points, "c0_fit": {"c0": c0, "stderr": stderr}})
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(out_dir: Path, manifest_dir: Path, dataset, init, spread_resamples, spread_shots,
            seed) -> int:
    data = protocol.read_tables_csv(manifest_dir / dataset)
    result = noisefit.fit(data, init=init)
    if spread_resamples:
        result.per_parameter_spread = noisefit.bootstrap_spread(
            data, result, shots=spread_shots, resamples=spread_resamples, seed=seed
        )

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


def _verify_checks():
    """Yield (name, passed, measure) for every library invariant.

    Analytic checks pass at 1e-12; the concurrence law, read through one
    eigendecomposition, one eigenvalue solve and square roots, at 1e-10.
    """
    thetas = np.linspace(0, np.pi / 2, 33)
    rng = np.random.default_rng(0)
    rhos = protocol.prepare_resource(ProtocolConfig(theta=thetas))
    branches = protocol.measure_demon(rhos)
    gains = protocol.demonic_gain(rhos, protocol.apply_feedback(branches))

    dev = np.max(np.abs(gains - np.cos(thetas) ** 2 / 2))
    yield "gain equals half squared concurrence", dev <= 1e-12, dev

    min_slack = np.min(
        np.cos(thetas) ** 2 / 2
        - protocol.gain_lower_bound(protocol.analytic_concurrence(thetas))
    )
    edge = np.max(np.abs(protocol.gain_lower_bound(np.array([1.0, 0.0])) - [0.5, 0.0]))
    yield "gain bound holds with tight edges", min_slack >= -1e-12 and edge <= 1e-12, min_slack

    dev = np.max(np.abs(np.trace(branches, axis1=-2, axis2=-1).real - 0.5))
    yield "balanced mid-circuit probabilities", dev <= 1e-12, dev

    dev = np.max(np.abs(tomography.concurrence(rhos) - np.abs(np.cos(thetas))))
    yield "concurrence law |cos(theta)|", dev <= 1e-10, dev

    dev = 0.0
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        rec = tomography.linear_inversion(tomography.setting_probs(rho))
        dev = max(dev, np.max(np.abs(rec - rho)))
    yield "linear inversion exact on moments", dev <= 1e-12, dev

    table = protocol.outcome_table_exact(thetas, NoiseParams.zeros())
    dev = np.max(np.abs(protocol.energies_from_table(table)[:, 2] - gains))
    yield "table energies match state gain", dev <= 1e-12, dev

    # the 16 two-branch policies over {I, SWAP, X_D, X_D SWAP}, as (16, 1, 2, 4, 4)
    swap_u, ident = protocol.CONDITIONAL_SWAP
    x_d = np.kron(np.eye(2), np.array([[0, 1], [1, 0]])).astype(complex)
    candidates = [ident, swap_u, x_d, x_d @ swap_u]
    policies = np.array(list(product(candidates, repeat=2)))[:, None]
    margin = np.max(
        protocol.policy_gain(rhos, policies).max(axis=0)
        - protocol.policy_gain(rhos, protocol.CONDITIONAL_SWAP)
    )  # best gain minus the conditional swap's, worst theta
    yield "conditional swap is the optimal policy", margin <= 1e-12, margin

    table = protocol.run_shots(
        thetas, NoiseParams.zeros(), DEFAULT_SHOTS, DEFAULT_SEED, purpose="verify"
    )
    z = np.max(np.abs(table.pr_d[:, 1] - 0.5)) / np.sqrt(0.25 / DEFAULT_SHOTS)
    yield "sampled Pr(d) within 4 sigma of 1/2", z <= 4.0, z  # z of the worst theta


def cmd_verify(out_dir: Path) -> int:
    failures = 0
    results = []
    for name, passed, measure in _verify_checks():
        print(f"[{'PASS' if passed else 'FAIL'}] {name} (measure {_fmt(measure)})")
        results.append({"name": name, "passed": bool(passed), "measure": float(measure)})
        failures += 0 if passed else 1
    _write_json(out_dir / "verify_report.json", {"checks": results})
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="demongain", description="Two-qubit feedback energy-extraction protocol toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in MANIFEST.items():
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=True, help="JSON run manifest")
        p.add_argument("--out", default=".", help="output directory")
        if "seed" in keys:
            p.add_argument("--seed", type=int, default=None,
                           help="override the manifest seed; a run that draws nothing ignores it")
    sub.add_parser("verify").add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    verify = args.command == "verify"
    handlers = {"sweep": cmd_sweep, "tomo": cmd_tomo, "fit": cmd_fit}
    try:
        values = {} if verify else _section(
            _load_manifest(args.manifest), args.command, getattr(args, "seed", None))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if verify:
            return cmd_verify(out_dir)
        return handlers[args.command](out_dir, Path(args.manifest).parent, **values)
    except (OSError, ValueError, TypeError) as exc:
        raise SystemExit(f"demongain {args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
