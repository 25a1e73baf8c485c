"""End-to-end tests of the four CLI subcommands."""

import json
from pathlib import Path

import numpy as np
import pytest

from demongain.cli import main
from demongain.gates import NoiseParams
from demongain.noisefit import model_curves
from demongain.protocol import write_tables_csv

HALF_PI = np.pi / 2
ROOT = Path(__file__).resolve().parent.parent


def _write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(argv):
    return main(argv)


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

    def test_jobs_parity(self, tmp_path):
        manifest = _write_manifest(
            tmp_path,
            {"sweep": {"theta_steps": 6, "mode": "sampled", "shots": 200, "seed": 3}},
        )
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        _run(["sweep", "--manifest", manifest, "--out", str(out1)])
        _run(["sweep", "--manifest", manifest, "--out", str(out2), "--jobs", "2"])
        for name in ("outcome_tables.csv", "sweep_summary.json"):
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

    def test_bad_mode_exits(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"sweep": {"mode": "guess"}})
        with pytest.raises(SystemExit, match="mode"):
            _run(["sweep", "--manifest", manifest, "--out", str(tmp_path / "o")])


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
        assert "bootstrap" in payload["points"][0]

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
        assert not (out / "tomogram_00.csv").exists()

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

    def test_jobs_parity(self, tmp_path):
        manifest = _write_manifest(
            tmp_path,
            {
                "tomo": {
                    "thetas": [0.0, 0.4, 0.8],
                    "shots_per_setting": 40,
                    "resamples": 5,
                }
            },
        )
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        _run(["tomo", "--manifest", manifest, "--out", str(out1)])
        _run(["tomo", "--manifest", manifest, "--out", str(out2), "--jobs", "3"])
        assert (out1 / "tomo_metrics.json").read_bytes() == (
            out2 / "tomo_metrics.json"
        ).read_bytes()

    def test_default_manifest_matches_golden_metrics(self, tmp_path):
        # tomo_metrics.json of manifests/tomo_default.json as written by the
        # per-resample bootstrap loop that the stacked bootstrap replaced;
        # covers theta = 0 and theta = pi/2 among its nine points
        golden = json.loads((ROOT / "tests/data/tomo_default_metrics.json").read_text())
        manifest = str(ROOT / "manifests/tomo_default.json")
        assert _run(["tomo", "--manifest", manifest, "--out", str(tmp_path)]) == 0
        got = json.loads((tmp_path / "tomo_metrics.json").read_text())
        assert [p["theta"] for p in got["points"]][::8] == [0.0, HALF_PI]

        def compare(a, b, path):
            if isinstance(a, dict):
                assert a.keys() == b.keys(), path
                for k in a:
                    compare(a[k], b[k], f"{path}/{k}")
            elif isinstance(a, list):
                assert len(a) == len(b), path
                for i, (u, v) in enumerate(zip(a, b)):
                    compare(u, v, f"{path}[{i}]")
            elif isinstance(a, float):
                assert abs(a - b) <= 1e-12, path
            else:
                assert a == b, path

        compare(got, golden, "")


class TestFit:
    def test_fit_recovers_planted(self, tmp_path):
        planted = NoiseParams((0.009 * HALF_PI, 0.068 * HALF_PI, 0.165 * HALF_PI))
        ds = model_curves(planted, np.linspace(0, HALF_PI, 9))
        dataset = tmp_path / "tables.csv"
        write_tables_csv(dataset, list(zip(ds.thetas, ds.tables)))
        manifest = _write_manifest(tmp_path, {"fit": {"dataset": str(dataset)}})
        out = tmp_path / "out"
        assert _run(["fit", "--manifest", manifest, "--out", str(out)]) == 0
        payload = json.loads((out / "fit_result.json").read_text())
        assert payload["schema_version"] == 1
        got = np.array(payload["delta_phi"])
        assert np.max(np.abs(got - planted.delta_phi)) < 1e-3 * HALF_PI
        assert (out / "fit_overlay.csv").exists()

    def test_missing_dataset_exits(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"fit": {}})
        with pytest.raises(SystemExit, match="dataset"):
            _run(["fit", "--manifest", manifest, "--out", str(tmp_path / "o")])


class TestVerify:
    def test_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(["verify", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7
        assert all(line.startswith("[PASS]") for line in lines)
        payload = json.loads((out / "verify_report.json").read_text())
        assert payload["schema_version"] == 1
        assert all(c["passed"] for c in payload["checks"])

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        manifest = _write_manifest(
            tmp_path, {"verify": {"tolerances": {"relation": 1e-30}}}
        )
        out = tmp_path / "out"
        assert _run(["verify", "--manifest", manifest, "--out", str(out)]) == 1
        assert "[FAIL]" in capsys.readouterr().out


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

    def test_bad_noise_exits(self, tmp_path):
        manifest = _write_manifest(tmp_path, {"sweep": {"noise": [0.1]}})
        with pytest.raises(SystemExit, match="noise"):
            _run(["sweep", "--manifest", manifest, "--out", str(tmp_path / "o")])
