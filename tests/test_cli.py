"""End-to-end tests of the four CLI subcommands."""

import csv
import json
import os
import re
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from demongain import cli, protocol, tomography
from demongain.cli import MANIFEST, main
from demongain.gates import PLANTED_DELTA_PHI
from demongain.noisefit import model_curves
from demongain.protocol import (
    CONDITIONAL_SWAP,
    DEFAULT_SEED,
    DEFAULT_SHOTS,
    ProtocolConfig,
    joint_cells,
    policy_gain,
    prepare_resource,
    read_tables_csv,
    run_shots,
    write_tables_csv,
)

from conftest import read_tables_csv_oracle, record_drawn_keys, resource_ket

HALF_PI = np.pi / 2
ROOT = Path(__file__).resolve().parent.parent


def _write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(argv):
    return main(argv)


# Goldens of exact runs compare exactly; those of sampled runs allow their
# floats, frequencies and statistics of counts, to move by 1e-12.
EXACT, SAMPLED = 0.0, 1e-12


def _compare(a, b, path, float_tol):
    """Same keys and lengths, floats within `float_tol`, everything else equal."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _compare(a[k], b[k], f"{path}/{k}", float_tol)
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (u, v) in enumerate(zip(a, b)):
            _compare(u, v, f"{path}[{i}]", float_tol)
    elif isinstance(a, float):
        assert abs(a - b) <= float_tol, path
    else:
        assert a == b, path


class TestSweep:
    def test_exact_sweep_outputs(self, tmp_path):
        manifest = _write_manifest(
            tmp_path,
            {"sweep": {"theta_steps": 5, "mode": "exact"}},
        )
        out = tmp_path / "out"
        assert _run(["sweep", "--manifest", manifest, "--out", str(out)]) == 0
        assert (out / "outcome_tables.csv").exists()
        assert (out / "energies.csv").exists()
        payload = json.loads((out / "sweep_summary.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["points"]) == 5
        # exact tables draw no shots, so no sampling settings are recorded
        assert "shots" not in payload and "seed" not in payload

    def test_energies_csv_relation(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"sweep": {"theta_steps": 9}})
        out = tmp_path / "out"
        _run(["sweep", "--manifest", manifest, "--out", str(out)])
        import csv

        with open(out / "energies.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            theta = float(row["theta"])
            assert float(row["delta_w"]) == pytest.approx(
                np.cos(theta) ** 2 / 2, abs=1e-10
            )
            assert float(row["delta_w"]) >= float(row["bound"]) - 1e-10

    def test_sampled_deterministic(self, tmp_path):
        manifest = _write_manifest(
            tmp_path,
            {"sweep": {"theta_steps": 4, "mode": "sampled", "shots": 300, "seed": 7}},
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        _run(["sweep", "--manifest", manifest, "--out", str(out1)])
        _run(["sweep", "--manifest", manifest, "--out", str(out2)])
        for name in ("outcome_tables.csv", "energies.csv", "sweep_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override(self, tmp_path):
        manifest = _write_manifest(
            tmp_path,
            {"sweep": {"theta_steps": 3, "mode": "sampled", "shots": 500, "seed": 1}},
        )
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        _run(["sweep", "--manifest", manifest, "--out", str(out1)])
        _run(["sweep", "--manifest", manifest, "--out", str(out2), "--seed", "99"])
        a = json.loads((out1 / "sweep_summary.json").read_text())
        b = json.loads((out2 / "sweep_summary.json").read_text())
        assert a["seed"] == 1 and b["seed"] == 99
        assert a["points"] != b["points"]

    @pytest.mark.parametrize("name", ["sweep_exact", "sweep_sampled_noisy"])
    def test_manifest_matches_golden_summary(self, name, tmp_path):
        # sweep_summary.json of the checked-in manifest as written when each
        # theta's outcome table was a dict of cells, less the per-point shot
        # totals and null counts; counts compare exactly
        golden = json.loads((ROOT / f"tests/data/{name}_summary.json").read_text())
        manifest = str(ROOT / f"manifests/{name}.json")
        assert _run(["sweep", "--manifest", manifest, "--out", str(tmp_path)]) == 0
        float_tol = EXACT if name == "sweep_exact" else SAMPLED
        _compare(json.loads((tmp_path / "sweep_summary.json").read_text()), golden, "", float_tol)

    def test_ideal_empty_cells_written_as_zero(self, tmp_path):
        # cells that vanish analytically print as 0, not as rounding residue
        manifest = str(ROOT / "manifests/sweep_exact.json")
        assert _run(["sweep", "--manifest", manifest, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "outcome_tables.csv", newline="") as fh:
            probs = [row["probability"] for row in csv.DictReader(fh)]
        thetas = np.linspace(0, HALF_PI, 33)
        analytic = joint_cells(np.array([resource_ket(t) for t in thetas])).ravel()
        empty = [p for p, a in zip(probs, analytic) if a < 1e-20]
        assert len(probs) == analytic.size and len(empty) > 4 * len(thetas)
        assert set(empty) == {"0"}

    def test_bad_mode_exits(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"sweep": {"mode": "guess"}})
        with pytest.raises(SystemExit, match="mode"):
            _run(["sweep", "--manifest", manifest, "--out", str(tmp_path / "o")])

    def test_thetas_alike_at_12_digits_exit(self, tmp_path):
        # the CSV writes theta with 12 significant digits; two grid points
        # that print alike would make a file that fit cannot read back
        manifest = _write_manifest(
            tmp_path,
            {"sweep": {"theta_start": 1.0, "theta_end": 1.0000000000001, "theta_steps": 2}},
        )
        out = tmp_path / "o"
        with pytest.raises(SystemExit, match=r"1\.0000000000001 .*12 significant digits") as exc:
            _run(["sweep", "--manifest", manifest, "--out", str(out)])
        assert "\n" not in str(exc.value)
        assert not (out / "outcome_tables.csv").exists()

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ({"theta_steps": 0}, "manifest sweep.theta_steps: expected a count >= 1, got 0"),
            ({"theta_steps": 0, "mode": "sampled"},
             "manifest sweep.theta_steps: expected a count >= 1, got 0"),
            ({"theta_start": 1.0, "theta_end": 0.0, "theta_steps": 3},
             "theta_end 0.0 lies below theta_start 1.0"),
        ],
        ids=["no-theta-exact", "no-theta-sampled", "descending"],
    )
    def test_grid_that_fit_refuses_exits_before_any_file(self, tmp_path, sweep, message):
        # fit needs at least one theta, in strictly increasing order
        manifest = _write_manifest(tmp_path, {"sweep": sweep})
        out = tmp_path / "o"
        with pytest.raises(SystemExit, match=f"^demongain sweep: {re.escape(message)}$"):
            _run(["sweep", "--manifest", manifest, "--out", str(out)])
        assert not any(out.glob("*"))  # theta_steps is refused before out is made

    def test_grid_beyond_the_address_space_exits_before_any_file(self, tmp_path):
        # below 2**63, so the manifest passes it; its float64 grid could not be indexed
        manifest = _write_manifest(tmp_path, {"sweep": {"theta_steps": 2**63 - 1}})
        out = tmp_path / "o"
        pattern = f"^demongain sweep: theta_steps {2**63 - 1} is too large: "
        with pytest.raises(SystemExit, match=pattern) as exc:
            _run(["sweep", "--manifest", manifest, "--out", str(out)])
        assert "\n" not in str(exc.value)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "error, message",
        [(MemoryError("Unable to allocate 4.00 EiB for an array"),
          "Unable to allocate 4.00 EiB for an array"),
         (MemoryError(), "MemoryError")],
        ids=["numpy", "bare"],
    )
    def test_memory_error_exits_with_one_line(self, tmp_path, monkeypatch, error, message):
        # a grid too large to allocate; raised here so that the test allocates nothing
        def no_memory(*args):
            raise error

        monkeypatch.setattr(cli.protocol, "outcome_table_exact", no_memory)
        manifest = _write_manifest(tmp_path, {"sweep": {"theta_steps": 3}})
        with pytest.raises(SystemExit, match=f"^demongain sweep: {message}$"):
            _run(["sweep", "--manifest", manifest, "--out", str(tmp_path / "o")])

    def test_one_step_grid_is_theta_start(self, tmp_path):
        manifest = _write_manifest(
            tmp_path, {"sweep": {"theta_start": 1.0, "theta_end": 0.0, "theta_steps": 1}})
        assert _run(["sweep", "--manifest", manifest, "--out", str(tmp_path)]) == 0
        assert read_tables_csv(tmp_path / "outcome_tables.csv").thetas.tolist() == [1.0]


class TestSweepPoints:
    """The per-theta points of sweep_summary.json."""

    def test_exact_points_hold_no_counts(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"sweep": {"theta_steps": 3}})
        assert _run(["sweep", "--manifest", manifest, "--out", str(tmp_path)]) == 0
        points = json.loads((tmp_path / "sweep_summary.json").read_text())["points"]
        table = read_tables_csv(tmp_path / "outcome_tables.csv")
        assert [p["theta"] for p in points] == pytest.approx(table.thetas.tolist(), rel=1e-11)
        assert all(p.keys() == {"theta", "pr_d", "pr_joint"} for p in points)
        assert all(sum(p["pr_d"].values()) == pytest.approx(1.0) for p in points)

    def test_sampled_points_hold_their_counts(self, tmp_path):
        manifest = _write_manifest(
            tmp_path, {"sweep": {"theta_steps": 3, "mode": "sampled", "shots": 400, "seed": 3}})
        assert _run(["sweep", "--manifest", manifest, "--out", str(tmp_path)]) == 0
        points = json.loads((tmp_path / "sweep_summary.json").read_text())["points"]
        table = run_shots(np.linspace(0, HALF_PI, 3), (0.0, 0.0, 0.0), 400, 3)
        assert all(p.keys() == {"theta", "pr_d", "pr_joint", "counts"} for p in points)
        assert [list(p["counts"].values()) for p in points] == table.counts.tolist()
        assert [list(p["pr_joint"].values()) for p in points] == table.cells.tolist()
        assert list(points[0]["counts"]) == ["000", "001", "010", "011", "100", "101", "110", "111"]


@pytest.mark.parametrize("mode, noise", [("exact", (0.0, 0.0, 0.0)),
                                         ("sampled", PLANTED_DELTA_PHI)])
def test_sweep_formats_each_value_once_per_spec(tmp_path, monkeypatch, mode, noise):
    # every spec handed to texts records the values it formats; a value is
    # keyed by its spec, type and bit pattern, so -0.0 and 0.0 count apart
    formatted = []

    class Counted(str):
        def __mod__(self, value):
            bits = value if isinstance(value, int) else np.float64(value).tobytes()
            formatted.append((str(self), type(value), bits))
            return str.__mod__(self, value)

    for module in (cli, protocol):
        def counted(*args, _texts=module.texts):
            return _texts(*(Counted(a) if isinstance(a, str) else a for a in args))

        monkeypatch.setattr(module, "texts", counted)
    assert cli.cmd_sweep(tmp_path, tmp_path, 0.0, HALF_PI, 33, 500, 3, mode, noise) == 0
    assert {spec for spec, _, _ in formatted} == (
        {"%.12g", "%r"} if mode == "exact" else {"%.12g", "%r", "%d"})
    assert len(formatted) == len(set(formatted))


class TestTomo:
    def test_tomo_outputs(self, tmp_path):
        manifest = _write_manifest(
            tmp_path,
            {
                "tomo": {
                    "thetas": [0.0, HALF_PI / 2],
                    "shots_per_setting": 60,
                    "resamples": 10,
                    "seed": 5,
                }
            },
        )
        out = tmp_path / "out"
        assert _run(["tomo", "--manifest", manifest, "--out", str(out)]) == 0
        assert (out / "tomogram_00.csv").exists()
        assert (out / "tomogram_01.csv").exists()
        payload = json.loads((out / "tomo_metrics.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["points"]) == 2
        assert 0.5 < payload["c0_fit"]["c0"] < 1.2
        # the sampling settings and percentiles are written once, beside the points
        assert (payload["shots_per_setting"], payload["resamples"]) == (60, 10)
        assert payload["percentiles"] == [16.0, 84.0]
        for pt in payload["points"]:
            assert pt.keys() == {"theta", "concurrence", "purity", "bootstrap"}
            b = pt["bootstrap"]
            assert b.keys() == {"lower", "upper"}
            assert b["lower"].keys() == b["upper"].keys() == {"concurrence", "purity"}

    def test_exact_moments_mode(self, tmp_path):
        manifest = _write_manifest(
            tmp_path,
            {"tomo": {"thetas": [0.0, 0.5, 1.0], "exact_moments": True}},
        )
        out = tmp_path / "out"
        _run(["tomo", "--manifest", manifest, "--out", str(out)])
        payload = json.loads((out / "tomo_metrics.json").read_text())
        # infinite-shot tomography reproduces the cosine law exactly
        for pt in payload["points"]:
            assert pt["concurrence"] == pytest.approx(np.cos(pt["theta"]), abs=1e-9)
        assert payload["c0_fit"]["c0"] == pytest.approx(1.0, abs=1e-9)
        assert all(pt.keys() == {"theta", "concurrence", "purity"} for pt in payload["points"])
        # no shot is drawn, so the sampling settings are not recorded
        assert not {"shots_per_setting", "resamples", "seed", "percentiles"} & payload.keys()
        assert not (out / "tomogram_00.csv").exists()

    def test_noisy_exact_moments_give_the_state_metrics(self, tmp_path):
        # at the planted noise, infinite-shot tomography gives the prepared
        # state's concurrence, not |cos(theta)|
        thetas = [0.0, 0.7, HALF_PI]
        manifest = _write_manifest(
            tmp_path,
            {"tomo": {"thetas": thetas, "exact_moments": True, "noise": list(PLANTED_DELTA_PHI)}},
        )
        assert _run(["tomo", "--manifest", manifest, "--out", str(tmp_path / "o")]) == 0
        points = json.loads((tmp_path / "o/tomo_metrics.json").read_text())["points"]
        rhos = prepare_resource(ProtocolConfig(theta=np.array(thetas), delta_phi=PLANTED_DELTA_PHI))
        moments = tomography.linear_inversion(tomography.setting_probs(rhos))
        for pt, rho, rho_hat in zip(points, rhos, moments):
            assert pt["concurrence"] == tomography.concurrence(rho_hat)
            assert pt["purity"] == tomography.purity(rho_hat)
            assert abs(pt["concurrence"] - tomography.concurrence(rho)) <= 1e-12
        assert points[-1]["concurrence"] > 0.2  # C = 0 at pi/2 without noise

    def test_seed_at_the_top_of_uint64_exits(self, tmp_path):
        # two theta need the keys seed and seed + 1; the second does not fit
        manifest = _write_manifest(tmp_path, {"tomo": {"thetas": [0.1, 0.2], "resamples": 0}})
        with pytest.raises(SystemExit, match=r"seed \+ theta index must stay below 2\*\*64") as exc:
            _run(["tomo", "--manifest", manifest, "--out", str(tmp_path / "o"),
                  "--seed", str(2**64 - 1)])
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("exact", [False, True])
    def test_no_cos_theta_writes_metrics_without_c0(self, tmp_path, exact):
        # at theta = pi/2 alone c0 is unidentifiable; the per-theta metrics still stand
        manifest = _write_manifest(
            tmp_path, {"tomo": {"thetas": [HALF_PI], "resamples": 5, "exact_moments": exact}})
        assert _run(["tomo", "--manifest", manifest, "--out", str(tmp_path / "o")]) == 0
        payload = json.loads((tmp_path / "o/tomo_metrics.json").read_text())
        assert payload["c0_fit"] is None
        (point,) = payload["points"]
        assert point["theta"] == HALF_PI and point["concurrence"] <= 1.0
        assert ("bootstrap" in point) != exact

    @pytest.mark.parametrize("exact", [False, True])
    def test_no_theta_exits(self, tmp_path, exact):
        # refused by key before the study would run on nothing
        manifest = _write_manifest(tmp_path, {"tomo": {"thetas": [], "exact_moments": exact}})
        with pytest.raises(SystemExit, match=(
                r"^demongain tomo: manifest tomo\.thetas: expected at least one number, got \[\]$")):
            _run(["tomo", "--manifest", manifest, "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()

    def test_bad_theta_exits_before_any_csv(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"tomo": {"thetas": [0.1, 2.0], "resamples": 0}})
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=r"theta must lie in \[0, pi/2\], got 2\.0"):
            _run(["tomo", "--manifest", manifest, "--out", str(out)])
        assert not list(out.iterdir())

    def test_deterministic(self, tmp_path):
        manifest = _write_manifest(
            tmp_path,
            {"tomo": {"thetas": [0.3], "shots_per_setting": 50, "resamples": 5}},
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        _run(["tomo", "--manifest", manifest, "--out", str(out1)])
        _run(["tomo", "--manifest", manifest, "--out", str(out2)])
        assert (out1 / "tomo_metrics.json").read_bytes() == (
            out2 / "tomo_metrics.json"
        ).read_bytes()

    def test_theta_bootstrap_does_not_follow_the_seed(self, tmp_path):
        # theta 1 at seed s and theta 0 at seed s + 1 are different draws
        manifest = _write_manifest(
            tmp_path,
            {"tomo": {"thetas": [0.4, 0.4], "shots_per_setting": 50, "resamples": 20, "seed": 5}},
        )
        bounds = []
        for seed, i in (("5", 1), ("6", 0)):
            out = tmp_path / seed
            _run(["tomo", "--manifest", manifest, "--out", str(out), "--seed", seed])
            b = json.loads((out / "tomo_metrics.json").read_text())["points"][i]["bootstrap"]
            bounds.append((b["lower"], b["upper"]))
        assert bounds[0] != bounds[1]

    @pytest.fixture(scope="class")
    def default_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tomo_default")
        manifest = str(ROOT / "manifests/tomo_default.json")
        assert _run(["tomo", "--manifest", manifest, "--out", str(out)]) == 0
        return out

    def test_default_manifest_matches_golden_metrics(self, default_out):
        # tomo_metrics.json of manifests/tomo_default.json as written when
        # each theta's bootstrap drew one block from its own keyed stream;
        # covers theta = 0 and theta = pi/2 among its nine points
        golden = json.loads((ROOT / "tests/data/tomo_default_metrics.json").read_text())
        got = json.loads((default_out / "tomo_metrics.json").read_text())
        assert [p["theta"] for p in got["points"]][::8] == [0.0, HALF_PI]
        _compare(got, golden, "", SAMPLED)

    def test_default_manifest_matches_golden_counts(self, default_out):
        # the nine tomogram CSVs of manifests/tomo_default.json as written
        # when counts were dicts keyed by setting; rows run through the
        # settings XX, XY, ..., ZZ and, within each, outcomes ++, +-, -+, --
        golden = json.loads((ROOT / "tests/data/tomo_default_counts.json").read_text())
        order = [
            [a, d, o] for a in "XYZ" for d in "XYZ" for o in ("++", "+-", "-+", "--")
        ]
        for name, counts in golden.items():
            with open(default_out / name, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["setting_a", "setting_d", "outcome", "count"]
            assert [r[:3] for r in rows] == order
            assert [int(r[3]) for r in rows] == [c for row in counts for c in row]
        assert sorted(p.name for p in default_out.glob("tomogram_*.csv")) == sorted(golden)


class TestFit:
    def test_fit_recovers_planted(self, tmp_path):
        dataset = tmp_path / "tables.csv"
        write_tables_csv(dataset, model_curves(PLANTED_DELTA_PHI, np.linspace(0, HALF_PI, 9)))
        manifest = _write_manifest(tmp_path, {"fit": {"dataset": str(dataset)}})
        out = tmp_path / "out"
        assert _run(["fit", "--manifest", manifest, "--out", str(out)]) == 0
        payload = json.loads((out / "fit_result.json").read_text())
        assert payload["schema_version"] == 1
        got = np.array(payload["delta_phi"])
        assert np.max(np.abs(got - PLANTED_DELTA_PHI)) < 1e-3 * HALF_PI
        assert (out / "fit_overlay.csv").exists()
        # exact curves hold no counts, so no Fisher spread can be given
        assert payload["converged"] is True and payload["at_bound"] is False
        assert payload["fisher_stderr"] is None and payload["iterations"] >= 1

    def test_sampled_fit_records_fisher_stderr(self, tmp_path):
        dataset = tmp_path / "tables.csv"
        table = run_shots(np.linspace(0, HALF_PI, 17), PLANTED_DELTA_PHI, 3500, 3)
        write_tables_csv(dataset, table)
        manifest = _write_manifest(
            tmp_path, {"fit": {"dataset": str(dataset), "spread_resamples": 4, "seed": 1}}
        )
        assert _run(["fit", "--manifest", manifest, "--out", str(tmp_path / "o")]) == 0
        payload = json.loads((tmp_path / "o/fit_result.json").read_text())
        assert payload["converged"] is True
        assert all(0.0 < s < 0.02 * HALF_PI for s in payload["fisher_stderr"])
        assert len(payload["per_parameter_spread"]) == 3

    def test_counts_in_a_structurally_empty_cell_exit(self, tmp_path):
        # shots moved into a cell no phase deviation reaches, as a readout
        # that flips the demon's qubit would put them there
        dataset = tmp_path / "tables.csv"
        table = run_shots([0.3, 0.9], PLANTED_DELTA_PHI, 3500, 7)
        table.counts[0, [0, 1]] += [-40, 40]  # (0, 0, 0) -> (0, 0, 1)
        write_tables_csv(dataset, replace(table, cells=table.counts / 3500))
        manifest = _write_manifest(tmp_path, {"fit": {"dataset": str(dataset)}})
        pattern = r"^demongain fit: theta 0\.3, cell \(0, 0, 1\): probability \S+, count \d+ in a cell"
        with pytest.raises(SystemExit, match=pattern) as exc:
            _run(["fit", "--manifest", manifest, "--out", str(tmp_path / "o")])
        assert "\n" not in str(exc.value)

    def test_theta_out_of_range_exits_before_any_file(self, tmp_path):
        # the last theta of the planted curves, pi/2, rewritten as 2.0
        text = (ROOT / "manifests/data/planted_tables.csv").read_text()
        (tmp_path / "tables.csv").write_text(text.replace("1.57079632679,", "2.0,"))
        manifest = _write_manifest(tmp_path, {"fit": {"dataset": str(tmp_path / "tables.csv")}})
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=r"^demongain fit: theta must lie in \[0, pi/2\], got 2\.0$"):
            _run(["fit", "--manifest", manifest, "--out", str(out)])
        assert not list(out.iterdir())

    def test_missing_dataset_exits(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"fit": {}})
        with pytest.raises(SystemExit, match="dataset"):
            _run(["fit", "--manifest", manifest, "--out", str(tmp_path / "o")])


    def test_missing_dataset_file_exits(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"fit": {"dataset": "absent.csv"}})
        with pytest.raises(SystemExit, match="absent.csv"):
            _run(["fit", "--manifest", manifest, "--out", str(tmp_path / "o")])

    def test_missing_cell_exits(self, tmp_path):
        rows = (ROOT / "manifests/data/planted_tables.csv").read_text().splitlines()
        # drop the (d, d', a') = (0, 0, 1) row of the first theta
        (tmp_path / "tables.csv").write_text("\n".join(rows[:2] + rows[3:]) + "\n")
        manifest = _write_manifest(tmp_path, {"fit": {"dataset": str(tmp_path / "tables.csv")}})
        with pytest.raises(SystemExit, match=r"theta 0 has no row for cell \(0, 0, 1\)"):
            _run(["fit", "--manifest", manifest, "--out", str(tmp_path / "o")])

    def test_non_numeric_probability_exits(self, tmp_path):
        rows = (ROOT / "manifests/data/planted_tables.csv").read_text().splitlines()
        rows[5] = rows[5].rsplit(",", 1)[0] + ",abc"
        (tmp_path / "tables.csv").write_text("\n".join(rows) + "\n")
        manifest = _write_manifest(tmp_path, {"fit": {"dataset": str(tmp_path / "tables.csv")}})
        with pytest.raises(SystemExit, match=r"theta 0, cell \(1, 0, 0\): not a number"):
            _run(["fit", "--manifest", manifest, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("row, text, message", [
        (3, "0,0,1,0,,0.483418657474,7", r"theta 0, cell \(0, 1, 0\): more fields than the header"),
        (0, "theta,d,d_prime,a_prime,count,prob", r"missing column\(s\) probability"),
        (2, "0,0,0,2,,0", r"theta 0, cell \(0, 0, 2\): unknown or repeated cell"),
        (2, "0,0,0,0,,0", r"theta 0, cell \(0, 0, 0\): unknown or repeated cell"),
        (1, "0,0,0,0,,1.5", r"theta 0, cell \(0, 0, 0\): probability 1\.5 outside \[0, 1\]"),
        (1, "0,0,0,0,,nan", r"theta 0, cell \(0, 0, 0\): probability nan outside \[0, 1\]"),
        (4, "0,0,1,1", r"theta 0, cell \(0, 1, 1\): not a number"),
    ], ids=["extra field", "missing column", "unknown cell", "repeated cell", "probability 1.5",
            "probability nan", "short row"])
    def test_malformed_row_exits_with_one_line(self, tmp_path, row, text, message):
        # one row of the planted curves rewritten; csv.DictReader would drop
        # an extra field without a word and fill a short row with None
        rows = (ROOT / "manifests/data/planted_tables.csv").read_text().splitlines()
        rows[row] = text
        dataset = tmp_path / "tables.csv"
        dataset.write_text("\n".join(rows) + "\n")
        manifest = _write_manifest(tmp_path, {"fit": {"dataset": str(dataset)}})
        pattern = f"^demongain fit: {re.escape(str(dataset))}: {message}$"
        with pytest.raises(SystemExit, match=pattern):
            _run(["fit", "--manifest", manifest, "--out", str(tmp_path / "o")])

    def test_negative_count_exits(self, tmp_path):
        # the (0, 0, 0) row of theta 0.3 keeps its probability; only its count turns negative
        dataset = tmp_path / "tables.csv"
        write_tables_csv(dataset, run_shots([0.3, 0.9], PLANTED_DELTA_PHI, 3500, 7))
        rows = dataset.read_text().splitlines()
        theta, *cell, count, p = rows[1].split(",")
        rows[1] = ",".join([theta, *cell, f"-{count}", p])
        dataset.write_text("\n".join(rows) + "\n")
        manifest = _write_manifest(tmp_path, {"fit": {"dataset": str(dataset)}})
        pattern = rf"^demongain fit: \S+: theta 0\.3, cell \(0, 0, 0\): negative count -{count}$"
        with pytest.raises(SystemExit, match=pattern):
            _run(["fit", "--manifest", manifest, "--out", str(tmp_path / "o")])

    def test_probabilities_not_summing_to_one_exit(self, tmp_path):
        rows = (ROOT / "manifests/data/planted_tables.csv").read_text().splitlines()
        # the second theta's (0, 0, 0) cell loses 0.01: each cell stays in
        # [0, 1], but the eight no longer sum to 1
        theta, *cell, count, p = rows[9].split(",")
        rows[9] = ",".join([theta, *cell, count, repr(float(p) - 0.01)])
        (tmp_path / "tables.csv").write_text("\n".join(rows) + "\n")
        manifest = _write_manifest(tmp_path, {"fit": {"dataset": str(tmp_path / "tables.csv")}})
        with pytest.raises(SystemExit, match=rf"theta {re.escape(theta)}: probabilities sum to 0\.9899") as exc:
            _run(["fit", "--manifest", manifest, "--out", str(tmp_path / "o")])
        assert "\n" not in str(exc.value)


def _csv_text(rows, end="\r\n") -> str:
    return "".join(",".join(row) + end for row in rows)


def _reordered(rows):
    """Rows with the columns in the order probability, theta, count, a_prime, d, d_prime."""
    return [[row[i] for i in (5, 0, 4, 3, 1, 2)] for row in rows]


# Layouts of a two-theta sampled table: the rows of fields as written, to the
# text of the file read. Each outcome is "read" or words of the error.
READER_CASES = {
    "columns in another order": (lambda r: _csv_text(_reordered(r)), "read"),
    "an extra named column": (
        lambda r: _csv_text([r[0] + ["note"]] + [row + ["x"] for row in r[1:]]), "read"),
    "a repeated column name": (  # the last "count" column, all empty, is the one read
        lambda r: _csv_text([r[0] + ["count"]] + [row + [""] for row in r[1:]]), "read"),
    "blank lines": (lambda r: _csv_text(r[:3] + [[]] + r[3:] + [[], []]), "read"),
    "a blank line before the header": (lambda r: _csv_text([[]] + r), "missing column(s) theta"),
    "quoted fields": (lambda r: _csv_text([[f'"{f}"' for f in row] for row in r]), "read"),
    "a quoted comma": (
        lambda r: _csv_text(r[:2] + [['"0,3"', *r[2][1:]]] + r[3:]), "theta 0,3, cell (0, 0, 1)"),
    "LF line endings": (lambda r: _csv_text(r, "\n"), "read"),
    "CRLF line endings": (lambda r: _csv_text(r), "read"),
    "no final line end": (lambda r: _csv_text(r)[:-2], "read"),
    "an empty file": (lambda r: "", "missing column(s) theta, d, d_prime"),
    "a header-only file": (lambda r: _csv_text(r[:1]), "read"),
    "a short row in another order": (
        lambda r: _csv_text(_reordered(r[:4]) + [[r[4][5]]] + r[5:]),
        "theta None, cell (None, None, None): not a number"),
    "a long row in another order": (
        lambda r: _csv_text(_reordered(r[:4]) + [[r[4][5], *r[4]]] + r[5:]),
        "more fields than the header"),
}


@pytest.mark.parametrize("case", READER_CASES)
def test_reader_reads_and_refuses_as_dict_reader(tmp_path, case):
    # the positional reader against the csv.DictReader form it replaced:
    # the same arrays, bit for bit, or the same one-line error
    written = tmp_path / "written.csv"
    write_tables_csv(written, run_shots([0.3, 0.9], PLANTED_DELTA_PHI, 3500, 7))
    with open(written, newline="") as fh:
        rows = list(csv.reader(fh))
    layout, outcome = READER_CASES[case]
    path = tmp_path / "tables.csv"
    path.write_bytes(layout(rows).encode())

    def read(reader):
        try:
            table = reader(path)
        except ValueError as exc:
            return str(exc)
        arrays = (table.thetas, table.cells, table.counts)
        return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays]

    got = read(read_tables_csv)
    assert got == read(read_tables_csv_oracle)
    if outcome == "read":
        assert not isinstance(got, str), got
    else:
        assert got.startswith(f"{path}: ") and outcome in got, got


@pytest.mark.parametrize("path", sorted((ROOT / "manifests").glob("*.json")), ids=lambda p: p.name)
def test_checked_in_manifest_runs(path, tmp_path, monkeypatch):
    # from an unrelated working directory, so relative paths must resolve
    # against the manifest itself
    monkeypatch.chdir(tmp_path)
    for command in json.loads(path.read_text()):
        assert _run([command, "--manifest", str(path), "--out", command]) == 0


def test_cli_import_leaves_scipy_out():
    # each costs start-up time or memory: scipy, numpy.ma (about 19 ms and
    # 0.6 MB; np.unique, which np.percentile calls, would import it), queue
    # (1-2 ms), logging and concurrent.futures (7-8 ms). Neither the import, nor a
    # study that draws ahead on a helper thread and scores its bootstrap
    # blocks, nor a fit with spread refits, nor the artifact writers (an
    # exact and a sampled sweep, a tomogram CSV) load them.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = """if True:
        import os, sys, tempfile
        from pathlib import Path
        def loaded(*names):
            return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))
        costly = ("scipy", "numpy.ma", "queue", "logging", "concurrent.futures")
        import demongain.cli
        from demongain import noisefit, protocol, tomography
        print(loaded(*costly))
        rhos = protocol.prepare_resource(protocol.ProtocolConfig(theta=[0.0, 0.5, 1.0]))
        tomography.tomography_study(rhos, 100, 50, 1)
        print(loaded(*costly))
        data = protocol.run_shots([0.0, 0.4, 0.8, 1.2], (0.01, 0.1, 0.2), 500, 3)
        noisefit.fit(data, spread=(500, 3, 5))
        print(loaded(*costly))
        with tempfile.TemporaryDirectory() as d:
            out = Path(d)
            for mode in ("exact", "sampled"):
                demongain.cli.cmd_sweep(out, out, 0.0, 1.5, 33, 100, 1, mode, (0.01, 0.1, 0.2))
            tomography.write_counts_csv(out / "counts.csv", [[25, 25, 25, 25]] * 9)
        print(loaded(*costly))
    """
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split("\n") == ["[]", "[]", "[]", "[]", ""]


def test_planted_dataset_matches_study_deviations(tmp_path):
    # manifests/data/planted_tables.csv holds the exact curves of the
    # deviations the study script reports as planted
    study = runpy.run_path(str(ROOT / "scripts/run_full_study.py"), run_name="study")
    ds = model_curves(study["PLANTED_DELTA_PHI"], np.linspace(0.0, HALF_PI, 17))
    write_tables_csv(tmp_path / "tables.csv", ds)
    checked_in = (ROOT / "manifests/data/planted_tables.csv").read_bytes()
    assert (tmp_path / "tables.csv").read_bytes() == checked_in


def test_full_study_with_relative_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["run_full_study.py", "--out", "out/study"])
    runpy.run_path(str(ROOT / "scripts/run_full_study.py"), run_name="__main__")
    fit = json.loads((tmp_path / "out/study/fit/fit_result.json").read_text())
    assert np.max(np.abs(np.array(fit["delta_phi"]) - PLANTED_DELTA_PHI)) < 1e-3 * HALF_PI
    report = json.loads((tmp_path / "out/study/verify/verify_report.json").read_text())
    assert all(c["passed"] for c in report["checks"])


def test_full_study_draws_no_two_streams_from_one_key(tmp_path, monkeypatch):
    # the sampled sweep, the 9 x 9 tomography settings, the nine
    # bootstraps and verify's sampled check each draw from one Philox
    # stream's start, and no two share a key
    keys = record_drawn_keys(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["run_full_study.py", "--out", str(tmp_path)])
    runpy.run_path(str(ROOT / "scripts/run_full_study.py"), run_name="__main__")
    assert len(keys) == 1 + 81 + 9 + 1
    assert len(set(keys)) == len(keys)


def test_record_goldens_reproduces_checked_in_files(tmp_path, monkeypatch, capsys):
    # scripts/record_goldens.py rewrites the five goldens of tests/data;
    # run into a scratch directory, they match the checked-in ones
    names = sorted(p.name for p in (ROOT / "tests/data").glob("*_summary.json")) + [
        "tomo_default_counts.json",
        "tomo_default_metrics.json",
        "run_shots_counts.json",
    ]
    monkeypatch.setattr(sys, "argv", ["record_goldens.py", "--out", str(tmp_path)])
    runpy.run_path(str(ROOT / "scripts/record_goldens.py"), run_name="__main__")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        new = json.loads((tmp_path / name).read_text())
        float_tol = EXACT if name == "sweep_exact_summary.json" else SAMPLED
        _compare(new, json.loads((ROOT / "tests/data" / name).read_text()), name, float_tol)
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


def test_record_goldens_names_the_key_that_changed():
    script = runpy.run_path(str(ROOT / "scripts/record_goldens.py"), run_name="goldens")
    compare = script["compare"]

    def first_change(old, new):
        """The line main prints for the first layout change it meets."""
        return script["_described"](*compare(old, new)[1][0])

    big = {"points": [{"theta": 0.1 * i, "pr_d": {"0": 0.5, "1": 0.5}} for i in range(500)]}
    grown = json.loads(json.dumps(big))
    grown["points"][3]["pr_d"]["2"] = 0.0
    assert first_change(big, grown) == "key /points[3]/pr_d/2 appeared"
    assert first_change(big, {"seed": 1}) == "key /points went"
    assert first_change(big, {"points": big["points"][1:]}) == "/points: length 500 became 499"
    assert first_change(big, {"points": [{"theta": 0.0, "pr_d": [0.5, 0.5]}] + big["points"][1:]}) \
        == "/points[0]/pr_d: dict became list"
    grown["points"][3]["pr_d"] = {"0": 0.25, "1": 0.5}
    assert compare(big, {"points": grown["points"]}) == ([0.25], [])
    # past a layout change, compare still counts the moves at the paths both hold
    moved, changes = compare(big, {"points": [{"theta": 1.0}] * 500})
    assert len(moved) == 499  # point 10 keeps theta = 1.0
    assert changes == [(f"/points[{i}]/pr_d", "went") for i in range(500)]


def test_record_goldens_reports_moves_beside_a_layout_change(tmp_path, monkeypatch, capsys):
    # a checked-in golden with a key the run does not write, without a key
    # it writes, and one number off at a path both hold: all three are
    # printed, list indices as [*]
    script = runpy.run_path(str(ROOT / "scripts/record_goldens.py"), run_name="goldens")
    name = "sweep_exact_summary.json"
    recorded = json.loads((ROOT / "tests/data" / name).read_text())
    golden = json.loads(json.dumps(recorded))
    for p in golden["points"]:
        del p["pr_joint"]
    golden["shots"] = 1
    golden["points"][2]["pr_d"]["0"] += 0.5
    moved, changes = script["compare"](golden, recorded)
    assert moved == [pytest.approx(0.5)] and len(changes) == 1 + len(golden["points"])
    (tmp_path / name).write_text(json.dumps(golden))
    monkeypatch.setitem(script["main"].__globals__, "GOLDENS", tmp_path)
    monkeypatch.setattr(sys, "argv", ["record_goldens.py", "--out", str(tmp_path / "o"), name])
    script["main"]()
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: layout changed, 1 numbers moved at the paths both files hold, largest 0.5",
        "  key /shots went",
        "  key /points[*]/pr_joint appeared",
    ]
    assert (tmp_path / "o" / name).read_bytes() == (ROOT / "tests/data" / name).read_bytes()


class TestVerify:
    def test_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(["verify", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9
        assert all(line.startswith("[PASS]") for line in lines)
        payload = json.loads((out / "verify_report.json").read_text())
        assert payload["schema_version"] == 1
        assert all(c["passed"] for c in payload["checks"])

    def test_policy_check_records_its_margin(self, tmp_path):
        # measure of the policy check: best of the 16 two-branch policies
        # minus the conditional swap's gain, at the worst of 33 theta
        assert _run(["verify", "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "verify_report.json").read_text())["checks"]
        measure = {c["name"]: c["measure"] for c in checks}["conditional swap is the optimal policy"]
        swap, ident = CONDITIONAL_SWAP
        x_d = np.kron(np.eye(2), [[0, 1], [1, 0]]).astype(complex)
        candidates = [ident, swap, x_d, x_d @ swap]
        margin = -np.inf
        for theta in np.linspace(0, HALF_PI, 33):
            rho = prepare_resource(ProtocolConfig(theta=float(theta)))
            best = max(
                policy_gain(rho, np.array([u0, u1])) for u0 in candidates for u1 in candidates
            )
            margin = max(margin, best - policy_gain(rho, np.array([swap, ident])))
        assert measure == pytest.approx(margin, rel=1e-9, abs=0.0)

    def test_sampled_pr_d_check_records_its_z(self, tmp_path):
        # measure of the sampled check: |Pr(d = 1) - 1/2| in binomial
        # standard errors, at the worst of 33 ideal theta
        assert _run(["verify", "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "verify_report.json").read_text())["checks"]
        measure = {c["name"]: c["measure"] for c in checks}["sampled Pr(d) within 4 sigma of 1/2"]
        table = run_shots(
            np.linspace(0, HALF_PI, 33), (0.0, 0.0, 0.0), DEFAULT_SHOTS, DEFAULT_SEED, "verify"
        )
        z = np.abs(table.pr_d[:, 1] - 0.5) / np.sqrt(0.25 / DEFAULT_SHOTS)
        assert measure == pytest.approx(z.max(), rel=1e-12, abs=0.0)
        assert 0.0 < measure <= 4.0

    def test_inversion_check_equals_the_per_state_loop_bit_for_bit(self, monkeypatch):
        # oracle: the check as a loop over 20 states, each drawn real part
        # first; the stack must hold the same states and give the same measure
        rng = np.random.default_rng(0)
        states, dev = [], 0.0
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            rec = tomography.linear_inversion(tomography.setting_probs(rho))
            dev = max(dev, np.max(np.abs(rec - rho)))
            states.append(rho)
        seen, setting_probs = [], tomography.setting_probs
        monkeypatch.setattr(tomography, "setting_probs",
                            lambda rho: seen.append(rho.copy()) or setting_probs(rho))
        measure = {name: m for name, _, m in cli._verify_checks()}["linear inversion exact on moments"]
        assert len(seen) == 1 and seen[0].shape == (20, 4, 4)  # one call on the stack
        assert seen[0].tobytes() == np.array(states).tobytes()
        assert 0.0 < measure == dev

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        # verify draws from fixed seeds, so a --seed would be ignored
        with pytest.raises(SystemExit) as exc:
            _run(["verify", "--out", str(tmp_path), "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_manifest_is_not_an_option(self, tmp_path, capsys):
        # verify checks the library at fixed tolerances and reads no manifest
        manifest = _write_manifest(tmp_path, {})
        with pytest.raises(SystemExit) as exc:
            _run(["verify", "--manifest", manifest, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --manifest" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_check_exits_1(self, tmp_path, capsys, monkeypatch):
        checks = cli._verify_checks

        def one_failing():
            for i, (name, passed, measure) in enumerate(checks()):
                yield name, passed and i != 0, measure

        monkeypatch.setattr(cli, "_verify_checks", one_failing)
        out = tmp_path / "out"
        assert _run(["verify", "--out", str(out)]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("[FAIL] gain equals half squared concurrence")
        assert all(line.startswith("[PASS]") for line in lines[1:])
        payload = json.loads((out / "verify_report.json").read_text())
        assert payload["checks"][0]["passed"] is False
        assert all(c["passed"] for c in payload["checks"][1:])


class TestManifestHandling:
    def test_invalid_json_exits_with_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(SystemExit, match="bad.json:2"):
            _run(["sweep", "--manifest", str(bad), "--out", str(tmp_path / "o")])

    def test_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            _run(
                [
                    "sweep",
                    "--manifest",
                    str(tmp_path / "nope.json"),
                    "--out",
                    str(tmp_path / "o"),
                ]
            )

    def test_missing_section_exits(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"tomo": {}})
        with pytest.raises(SystemExit, match="no 'sweep' section"):
            _run(["sweep", "--manifest", manifest, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("sweep", {"sweep": {"theta_steps": 2, "mode": "sampled"}}),
            ("tomo", {"tomo": {"thetas": [0.3], "resamples": 2}}),
        ],
    )
    def test_negative_seed_exits(self, tmp_path, command, payload):
        manifest = _write_manifest(tmp_path, payload)
        out = tmp_path / "o"
        pattern = f"^demongain {command}: --seed: expected a non-negative integer, got -1$"
        with pytest.raises(SystemExit, match=pattern):
            _run([command, "--manifest", manifest, "--out", str(out), "--seed", "-1"])
        assert not out.exists()

    def test_bad_noise_exits(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"sweep": {"noise": [0.1]}})
        with pytest.raises(SystemExit, match="noise"):
            _run(["sweep", "--manifest", manifest, "--out", str(tmp_path / "o")])

    # each value's one line after "demongain <command>: manifest <section>.<key>: "
    BAD_DEVIATIONS = {
        "two": ([0.1, 0.2], "expected three phase deviations, got [0.1, 0.2]"),
        "2.0": ([2.0, 0, 0], "|delta_phi| must be < pi/2, got 2.0"),
        "-pi/2": ([-HALF_PI, 0, 0], "|delta_phi| must be < pi/2, got -1.5707963267948966"),
        "string": (["a", 0, 0], "expected a number, got 'a'"),
        "true": ([True, 0, 0], "expected a number, got True"),
        "number": (0.1, "expected a list of three phase deviations, got 0.1"),
        "null": (None, "expected a list of three phase deviations, got None"),
        "empty": ([], "expected three phase deviations, got []"),
        "one string": (["a"], "expected three phase deviations, got ['a']"),
        "Infinity": ([float("inf"), 0, 0], "expected a finite number, got inf"),
    }

    @pytest.mark.parametrize("bad", BAD_DEVIATIONS)
    @pytest.mark.parametrize("where", ["sweep.noise", "tomo.noise", "fit.init"])
    def test_bad_deviations_exit_with_one_pinned_line(self, tmp_path, where, bad):
        value, error = self.BAD_DEVIATIONS[bad]
        command, key = where.split(".")
        section = {key: value}
        if command == "fit":
            section["dataset"] = str(ROOT / "manifests/data/planted_tables.csv")
        argv = [command, "--manifest", _write_manifest(tmp_path, {command: section}),
                "--out", str(tmp_path / "o")]
        if where == "fit.init" and value is None:  # null seeds the fit from its grid
            assert _run(argv) == 0
            return
        with pytest.raises(SystemExit) as exc:
            _run(argv)
        assert str(exc.value) == f"demongain {command}: manifest {where}: {error}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, section", [
        ("sweep", {"theta_steps": 2}),
        ("tomo", {"thetas": [0.3], "exact_moments": True}),
    ])
    def test_noise_field_echoes_the_manifest(self, tmp_path, command, section):
        manifest = _write_manifest(tmp_path, {command: {**section, "noise": [0, -0.0, 5e-324]}})
        assert _run([command, "--manifest", manifest, "--out", str(tmp_path / "o")]) == 0
        name = "sweep_summary.json" if command == "sweep" else "tomo_metrics.json"
        text = (tmp_path / "o" / name).read_text()
        assert '"noise": [\n    0.0,\n    -0.0,\n    5e-324\n  ],' in text

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("sweep", {"sweep": {"noise": 0.1}}, "sweep.noise"),
            ("tomo", {"tomo": {"thetas": 5}}, "tomo.thetas"),
            ("sweep", {"sweep": {"shots": None, "mode": "sampled"}}, "sweep.shots"),
            # read although no spread refit draws from it
            ("fit", {"fit": {"dataset": "tables.csv", "seed": "x"}}, "fit.seed"),
            # json reads Infinity and NaN
            ("sweep", {"sweep": {"theta_end": float("inf")}}, "sweep.theta_end"),
            ("sweep", {"sweep": {"theta_start": float("nan")}}, "sweep.theta_start"),
            ("tomo", {"tomo": {"thetas": [0.1, float("nan")]}}, "tomo.thetas"),
            ("sweep", {"sweep": {"theta_end": 10**400}}, "sweep.theta_end"),  # beyond any float
            # out of range; exact sweeps draw nothing but are refused too
            ("sweep", {"sweep": {"seed": -1}}, "sweep.seed"),
            ("sweep", {"sweep": {"shots": 0}}, "sweep.shots"),
            ("tomo", {"tomo": {"seed": -1}}, "tomo.seed"),
            ("tomo", {"tomo": {"shots_per_setting": 0}}, "tomo.shots_per_setting"),
            ("tomo", {"tomo": {"resamples": 1}}, "tomo.resamples"),
            ("tomo", {"tomo": {"resamples": -1}}, "tomo.resamples"),
            ("fit", {"fit": {"dataset": "tables.csv", "seed": -1}}, "fit.seed"),
            ("fit", {"fit": {"dataset": "tables.csv", "spread_shots": 0}}, "fit.spread_shots"),
            ("fit", {"fit": {"dataset": "tables.csv", "spread_resamples": 1}},
             "fit.spread_resamples"),
        ],
        ids=["noise-number", "thetas-number", "shots-null", "unused-seed", "theta-end-inf",
             "theta-start-nan", "thetas-nan", "theta-end-huge", "sweep-seed-negative",
             "sweep-shots-zero", "tomo-seed-negative", "tomo-shots-zero", "tomo-resamples-one",
             "tomo-resamples-negative", "fit-seed-negative", "fit-spread-shots-zero",
             "fit-spread-resamples-one"],
    )
    def test_wrong_value_type_exits_with_one_line(self, tmp_path, command, payload, key):
        manifest = _write_manifest(tmp_path, payload)
        out = tmp_path / "o"
        pattern = f"demongain {command}: manifest {re.escape(key)}: "
        with pytest.raises(SystemExit, match=pattern) as exc:
            _run([command, "--manifest", manifest, "--out", str(out)])
        assert "\n" not in str(exc.value)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload, where",
        [
            ("sweep", {"sweep": {"mode": "sampled", "shot": 50}}, "sweep.shot: unknown key"),
            ("tomo", {"tomo": {"shots_per_settings": 7}}, "tomo.shots_per_settings: unknown key"),
            ("fit", {"fit": {"dataset": "t.csv", "spread_resample": 4}},
             "fit.spread_resample: unknown key"),
            # the search range is the fixed noisefit.BOUNDS
            ("fit", {"fit": {"dataset": "t.csv", "bounds": [[-0.1, 0.1]] * 3}},
             "fit.bounds: unknown key"),
            ("sweep", {"sweep": {}, "swep": {"shots": 50}}, "swep: unknown section"),
            ("sweep", {"sweep": {}, "verify": {}}, "verify: unknown section"),
        ],
        ids=["sweep-key", "tomo-key", "fit-key", "fit-bounds", "section", "verify-section"],
    )
    def test_unknown_key_exits_before_any_file(self, tmp_path, command, payload, where):
        manifest = _write_manifest(tmp_path, payload)
        out = tmp_path / "o"
        pattern = f"^demongain {command}: manifest {re.escape(where)}$"
        with pytest.raises(SystemExit, match=pattern):
            _run([command, "--manifest", manifest, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section, key",
        [
            ("sweep", {"mode": "sampled", "shots": 10**30}, "shots"),
            ("sweep", {"theta_steps": 2**63}, "theta_steps"),
            ("tomo", {"shots_per_setting": 10**30}, "shots_per_setting"),
            ("tomo", {"resamples": 2**63}, "resamples"),
            ("fit", {"dataset": str(ROOT / "manifests/data/planted_tables.csv"),
                     "spread_resamples": 2, "spread_shots": 10**30}, "spread_shots"),
            ("fit", {"dataset": str(ROOT / "manifests/data/planted_tables.csv"),
                     "spread_resamples": 2**64}, "spread_resamples"),
        ],
        ids=["sweep-shots", "sweep-steps", "tomo-shots", "tomo-resamples", "fit-spread-shots",
             "fit-spread-resamples"],
    )
    def test_integer_beyond_int64_exits_with_one_line(self, tmp_path, command, section, key):
        # numpy's draws take int64 counts: the manifest refuses a larger one by name
        manifest = _write_manifest(tmp_path, {command: section})
        out = tmp_path / "o"
        pattern = f"^demongain {command}: manifest {command}.{key}: .* too large"
        with pytest.raises(SystemExit, match=pattern) as exc:
            _run([command, "--manifest", manifest, "--out", str(out)])
        assert "\n" not in str(exc.value)
        assert not out.exists()

    def test_counts_below_2_63_pass_the_manifest(self):
        # the largest int64 is a count; seeds keep their full range
        section = cli._section({"sweep": {"shots": 2**63 - 1, "seed": 2**70}}, "sweep", None)
        assert (section["shots"], section["seed"]) == (2**63 - 1, 2**70)

    def test_manifest_not_an_object_exits(self, tmp_path):
        manifest = _write_manifest(tmp_path, ["sweep"])
        out = tmp_path / "o"
        with pytest.raises(SystemExit, match=r"^demongain sweep: manifest: expected an object, got list$"):
            _run(["sweep", "--manifest", manifest, "--out", str(out)])
        assert not out.exists()

    def test_seed_offered_where_the_section_has_one(self, capsys):
        for command, keys in MANIFEST.items():
            with pytest.raises(SystemExit):
                _run([command, "--help"])
            assert ("--seed" in capsys.readouterr().out) == ("seed" in keys)
        # verify is no manifest section: it takes neither option
        with pytest.raises(SystemExit):
            _run(["verify", "--help"])
        usage = capsys.readouterr().out
        assert "--out" in usage and "--seed" not in usage and "--manifest" not in usage
