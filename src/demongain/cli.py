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

A relative "dataset" path is read from the manifest's directory. Only this
module builds JSON: sorted keys, indent 2, a schema_version field, floats
as Python's shortest round-trip repr. CSV rows, written by `shared.write_csv`
from `shared.texts` columns, end in CRLF and carry 12 significant digits; a
sweep formats each value once per format, across its columns and files.
Unreadable or malformed input ends the run with a one-line error; an
unknown section or key, or a value of the wrong type, form or range, is
named by section and key, e.g. "manifest sweep.shot: unknown key"; an
out-of-range --seed is named as such.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from itertools import product
from pathlib import Path

import numpy as np

from . import noisefit, protocol, tomography
from .gates import PLANTED_DELTA_PHI, deviations
from .protocol import CELLS, DEFAULT_SEED, DEFAULT_SHOTS, ProtocolConfig
from .qlin import ID2, PAULI_X, dag, kron
from .shared import texts, write_csv

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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _expect(value, kind, what: str):
    """`value` if it is a `kind`, else a TypeError; true/false is only a bool."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise TypeError(f"expected {what}, got {value!r}")
    return value


def _number(value) -> float:
    number = float(_expect(value, (int, float), "a number"))
    if not np.isfinite(number):  # json reads Infinity and NaN
        raise ValueError(f"expected a finite number, got {number}")
    return number


def _seed(value) -> int:
    if _expect(value, int, "an integer") < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return value


def _count(value, least=1) -> int:
    if _expect(value, int, "an integer") >= 2**63:  # numpy draws take int64 counts
        raise ValueError(f"{value} is too large: a count must be below 2**63")
    if value < least:
        raise ValueError(f"expected a count >= {least}, got {value}")
    return value


def _resamples(value) -> int:
    if _count(value, 0) == 1:  # 0 skips the bootstrap; one resample has no spread
        raise ValueError("expected 0 or a count >= 2, got 1")
    return value


def _flag(value) -> bool:
    return _expect(value, bool, "true or false")


def _numbers(value) -> list[float]:
    if not _expect(value, list, "a list of numbers"):  # tomo.thetas: the study needs a point
        raise ValueError("expected at least one number, got []")
    return [_number(x) for x in value]


def _mode(value) -> str:
    if value not in ("exact", "sampled"):
        raise ValueError(f"expected 'exact' or 'sampled', got {value!r}")
    return value


def _noise(value) -> tuple[float, float, float]:
    if len(_expect(value, list, "a list of three phase deviations")) != 3:
        raise ValueError(f"expected three phase deviations, got {value!r}")
    return tuple(deviations(_numbers(value))[0].tolist())


# section -> key -> (default, converter). A default is written as in a
# manifest and goes through its converter.
MANIFEST = {
    "sweep": {
        "theta_start": (0.0, _number),
        "theta_end": (np.pi / 2, _number),
        "theta_steps": (33, _count),
        "shots": (DEFAULT_SHOTS, _count),
        "seed": (DEFAULT_SEED, _seed),
        "mode": ("exact", _mode),
        "noise": ([0.0, 0.0, 0.0], _noise),
    },
    "tomo": {
        "thetas": (np.linspace(0, np.pi / 2, 9).tolist(), _numbers),
        "shots_per_setting": (100, _count),
        "resamples": (500, _resamples),
        "seed": (DEFAULT_SEED, _seed),
        "exact_moments": (False, _flag),
        "noise": ([0.0, 0.0, 0.0], _noise),
    },
    "fit": {
        "dataset": (None, lambda v: _expect(v, str, "a CSV path")),
        "init": (None, lambda v: None if v is None else _noise(v)),
        "spread_resamples": (0, _resamples),
        "spread_shots": (DEFAULT_SHOTS, _count),
        "seed": (DEFAULT_SEED, _seed),
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
    given = _typed(f"manifest {name}", manifest[name], lambda v: _expect(v, dict, "an object"))
    unknown = [key for key in given if key not in MANIFEST[name]]
    if unknown:
        raise ValueError(f"manifest {name}.{unknown[0]}: unknown key")
    values = {key: _typed(f"manifest {name}.{key}", given.get(key, default), convert)
              for key, (default, convert) in MANIFEST[name].items()}
    if seed is not None:
        values["seed"] = _typed("--seed", seed, _seed)
    return values


def _write_json(path: Path, payload: dict, rows=None) -> None:
    """Write `payload` and its schema_version as sorted JSON indented by 2.

    With `rows`, payload["points"] = [point]: each row of texts fills its nulls in sorted key order.
    """
    text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        if rows is not None:  # json lays out the point; texts' %r of a finite number is json's text
            row = json.dumps(payload["points"][0], indent=2, sort_keys=True).replace("\n", "\n    ")
            head, text = text.split(row)
            row = row.replace("null", "%s")
            fh.writelines([head, row % next(rows)])
            fh.writelines(map((",\n    " + row).__mod__, rows))
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(out_dir: Path, manifest_dir: Path, theta_start, theta_end, theta_steps,
              shots, seed, mode, noise) -> int:
    # refused here, so every sweep's outcome table is a dataset fit accepts
    if theta_steps > 1 and theta_end < theta_start:
        raise ValueError(f"theta_end {theta_end!r} lies below theta_start {theta_start!r}")
    if theta_steps > np.iinfo(np.intp).max // 8:  # numpy cannot index the float64 grid
        raise ValueError(f"theta_steps {theta_steps} is too large: its grid would exceed "
                         f"{np.iinfo(np.intp).max} bytes")
    thetas = np.linspace(theta_start, theta_end, theta_steps)
    if mode == "exact":
        table = protocol.outcome_table_exact(thetas, noise)
    else:
        table = protocol.run_shots(thetas, noise, shots, seed)

    c = protocol.analytic_concurrence(table.thetas)
    energies = [*protocol.energies_from_table(table).T, c, protocol.gain_lower_bound(c)]
    # theta and the energies share the table's one %.12g pass; their texts die before the JSON's
    write_csv(out_dir / "energies.csv", "theta,w_i,w_f,delta_w,concurrence_analytic,bound",
              protocol.write_tables_csv(out_dir / "outcome_tables.csv", table, *energies))
    # exact tables draw no shots: the sampling settings would be unused
    sampling = {} if mode == "exact" else {"shots": shots, "seed": seed}
    keys = ["".join(map(str, cell)) for cell in CELLS]  # "d d' a'", e.g. "010"
    point = {"pr_d": dict.fromkeys("01"), "pr_joint": dict.fromkeys(keys), "theta": None}
    cols = texts("%r", *table.pr_d.T, *table.cells.T, table.thetas)
    if table.counts is not None:  # sampled tables only
        point["counts"] = dict.fromkeys(keys)
        cols[:0] = texts("%r", *table.counts.T)
    _write_json(out_dir / "sweep_summary.json", {
        "mode": mode, **sampling, "noise": list(noise), "points": [point]}, zip(*cols))
    return 0


# ---------------------------------------------------------------------------
# tomo


def cmd_tomo(out_dir: Path, manifest_dir: Path, thetas, shots_per_setting, resamples, seed,
             exact_moments, noise) -> int:
    # every theta is checked before the first tomogram CSV is written
    rhos = protocol.prepare_resource(ProtocolConfig(theta=np.array(thetas), delta_phi=noise))
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
    points = [{"theta": t, "concurrence": c, "purity": p} for t, c, p in zip(thetas, conc, pur)]
    # exact moments draw no shots: the sampling settings would be unused
    sampling = {} if exact_moments else {
        "shots_per_setting": shots_per_setting, "resamples": resamples, "seed": seed}
    if bootstraps:
        sampling["percentiles"] = list(tomography.PERCENTILES)
        for point, b in zip(points, bootstraps):
            point["bootstrap"] = {"lower": b.lower, "upper": b.upper}
    try:
        c0_fit = dict(zip(("c0", "stderr"), tomography.fit_c0(thetas, conc)))
    except tomography.Unidentifiable:  # the per-theta metrics stand without the fit
        c0_fit = None
    _write_json(out_dir / "tomo_metrics.json", {
        **sampling, "noise": list(noise), "exact_moments": exact_moments,
        "points": points, "c0_fit": c0_fit})
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(out_dir: Path, manifest_dir: Path, dataset, init, spread_resamples, spread_shots,
            seed) -> int:
    data = protocol.read_tables_csv(manifest_dir / dataset)
    spread = (spread_shots, spread_resamples, seed) if spread_resamples else None
    result = noisefit.fit(data, init=init, spread=spread)
    _write_json(out_dir / "fit_result.json", {
        **asdict(result), "delta_phi_over_half_pi": [d / (np.pi / 2) for d in result.delta_phi]})
    model = noisefit.model_curves(result.delta_phi, data.thetas)
    thetas, *cells = texts("%.12g", data.thetas, data.cells.ravel(), model.cells.ravel())
    rows = [f"{t},{d},{dp},{ap}" for t in thetas for d, dp, ap in CELLS]
    write_csv(out_dir / "fit_overlay.csv", "theta,d,d_prime,a_prime,data,model", [rows, *cells])
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

    a = rng.normal(size=(20, 2, 4, 4))  # state k's real part, then its imaginary part
    a = a[:, 0] + 1j * a[:, 1]
    mixed = a @ dag(a)
    mixed /= np.trace(mixed, axis1=-2, axis2=-1)[:, None, None]
    dev = np.max(np.abs(tomography.linear_inversion(tomography.setting_probs(mixed)) - mixed))
    yield "linear inversion exact on moments", dev <= 1e-12, dev

    for at, delta_phi in (("", (0.0, 0.0, 0.0)), (" at planted noise", PLANTED_DELTA_PHI)):
        table = protocol.outcome_table_exact(thetas, delta_phi)
        noisy = protocol.prepare_resource(ProtocolConfig(theta=thetas, delta_phi=delta_phi))
        gain = protocol.demonic_gain(noisy, protocol.apply_feedback(protocol.measure_demon(noisy)))
        dev = np.max(np.abs(protocol.energies_from_table(table)[:, 2] - gain))
        yield f"table energies match state gain{at}", dev <= 1e-12, dev

    # the 16 two-branch policies over {I, SWAP, X_D, X_D SWAP}, as (16, 1, 2, 4, 4)
    swap_u, ident = protocol.CONDITIONAL_SWAP
    x_d = kron(ID2, PAULI_X)
    candidates = [ident, swap_u, x_d, x_d @ swap_u]
    policies = np.array(list(product(candidates, repeat=2)))[:, None]
    margin = np.max(
        protocol.policy_gain(rhos, policies).max(axis=0)
        - protocol.policy_gain(rhos, protocol.CONDITIONAL_SWAP)
    )  # best gain minus the conditional swap's, worst theta
    yield "conditional swap is the optimal policy", margin <= 1e-12, margin

    table = protocol.run_shots(thetas, (0.0, 0.0, 0.0), DEFAULT_SHOTS, DEFAULT_SEED, "verify")
    z = np.max(np.abs(table.pr_d[:, 1] - 0.5)) / np.sqrt(0.25 / DEFAULT_SHOTS)
    yield "sampled Pr(d) within 4 sigma of 1/2", z <= 4.0, z  # z of the worst theta


def cmd_verify(out_dir: Path) -> int:
    results = []
    for name, passed, measure in _verify_checks():
        print(f"[{'PASS' if passed else 'FAIL'}] {name} (measure {measure:.12g})")
        results.append({"name": name, "passed": bool(passed), "measure": float(measure)})
    _write_json(out_dir / "verify_report.json", {"checks": results})
    return 0 if all(r["passed"] for r in results) else 1


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
    except (OSError, ValueError, TypeError, OverflowError, MemoryError) as exc:
        raise SystemExit(f"demongain {args.command}: {str(exc) or type(exc).__name__}")


if __name__ == "__main__":
    sys.exit(main())
