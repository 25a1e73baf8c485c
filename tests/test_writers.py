"""The artifact writers against the csv.writer and json.dump oracles, byte for byte."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demongain import cli, protocol
from demongain.gates import PLANTED_DELTA_PHI
from demongain.noisefit import model_curves
from demongain.protocol import OutcomeTable, outcome_table_exact, read_tables_csv, run_shots
from demongain.tomography import write_counts_csv

from conftest import (
    counts_csv_oracle,
    energies_csv_oracle,
    fit_overlay_csv_oracle,
    sweep_summary_oracle,
    tables_csv_oracle,
)

HALF_PI = np.pi / 2

# Cells at the edges of float text: exact zeros and ones, a value below
# 12 significant digits of its neighbours, and the smallest subnormal. The
# last row repeats values of the rows above and puts -0.0 (written "-0")
# into columns that hold 0.0, so a dedupe keyed by value would print both alike.
EDGE_CELLS = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 - 1e-13, 1e-13, 0.0, 5e-324, 0.0, 0.0, 0.0, 0.0],
    [0.5, 0.0, 0.25, 0.0, 0.0, 1e-13, 0.25 - 1e-13, 5e-324],
    [0.5, -0.0, 0.25, -0.0, 0.0, 1e-13, 0.25 - 1e-13, -0.0],
])


def _sweep_matches_oracles(out: Path, table: OutcomeTable, noise, shots, seed):
    """Run cmd_sweep on `table` and compare its three artifacts with the oracles' bytes."""
    mode = "exact" if table.counts is None else "sampled"
    make = "outcome_table_exact" if mode == "exact" else "run_shots"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, make, lambda *args: table)
        assert cli.cmd_sweep(out, out, 0.0, HALF_PI, len(table.thetas), shots, seed, mode,
                             noise) == 0
    sampling = {} if mode == "exact" else {"shots": shots, "seed": seed}
    tables_csv_oracle(out / "oracle_tables.csv", table)
    energies_csv_oracle(out / "oracle_energies.csv", table)
    sweep_summary_oracle(out / "oracle_summary.json", table,
                         {"mode": mode, **sampling, "noise": list(noise)})
    for written, oracle in [("outcome_tables.csv", "oracle_tables.csv"),
                            ("energies.csv", "oracle_energies.csv"),
                            ("sweep_summary.json", "oracle_summary.json")]:
        assert (out / written).read_bytes() == (out / oracle).read_bytes(), written


@pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
def test_sweep_artifacts_at_edge_cells(tmp_path, sampled):
    thetas = np.array([0.0, 0.7, 1.2, HALF_PI])
    counts = (EDGE_CELLS * 4).astype(int) if sampled else None  # counts need not match cells
    table = OutcomeTable(thetas=thetas, cells=EDGE_CELLS, counts=counts)
    _sweep_matches_oracles(tmp_path, table, (0.0, -0.0, 5e-324), 4, 2**64 - 1)


@given(
    thetas=st.lists(st.floats(0, HALF_PI), min_size=1, max_size=40,
                    unique_by=lambda t: f"{t:.12g}").map(sorted),
    deltas=st.tuples(*[st.floats(-0.7, 0.7)] * 3),
    shots=st.none() | st.integers(1, 5000),
    seed=st.integers(0, 2**64),
)
@example(thetas=[0.3], deltas=(0.0, 0.0, 0.0), shots=None, seed=0)
@example(thetas=[HALF_PI], deltas=(0.0, 0.0, 0.0), shots=7, seed=1)
@settings(max_examples=30, deadline=None)
def test_sweep_artifacts_on_random_grids(thetas, deltas, shots, seed):
    if shots is None:
        table = outcome_table_exact(thetas, deltas)
    else:
        table = run_shots(thetas, deltas, shots, seed)
    with tempfile.TemporaryDirectory() as d:
        _sweep_matches_oracles(Path(d), table, deltas, shots, seed)


def test_fit_overlay_matches_oracle(tmp_path):
    dataset = tmp_path / "tables.csv"
    table = run_shots(np.linspace(0, HALF_PI, 9), PLANTED_DELTA_PHI, 3500, 5)
    # every other theta's empty cells are written "-0", so the data column
    # read back holds both -0.0 and 0.0
    table.cells[::2][table.cells[::2] == 0.0] = -0.0
    protocol.write_tables_csv(dataset, table)
    assert b",-0\r\n" in dataset.read_bytes() and b",0\r\n" in dataset.read_bytes()
    assert cli.cmd_fit(tmp_path, tmp_path, "tables.csv", None, 0, 3500, 0) == 0
    data = read_tables_csv(dataset)
    fitted = json.loads((tmp_path / "fit_result.json").read_text())["delta_phi"]
    fit_overlay_csv_oracle(tmp_path / "oracle.csv", data,
                           model_curves(fitted, data.thetas))
    assert (tmp_path / "fit_overlay.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize(
    "counts",
    [np.arange(36).reshape(9, 4), np.full((9, 4), 2**62), np.arange(36.0).reshape(9, 4)],
    ids=["ints", "large", "floats"],
)
def test_counts_csv_matches_oracle(tmp_path, counts):
    write_counts_csv(tmp_path / "counts.csv", counts)
    counts_csv_oracle(tmp_path / "oracle.csv", counts)
    assert (tmp_path / "counts.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(2.2250738585072009e-308)  # the largest subnormal
@example(1e-13)
def test_percent_formats_write_what_the_oracles_write(x):
    assert "%.12g" % x == f"{x:.12g}"
    assert "%r" % x == json.dumps(x)


@given(st.integers())
def test_percent_r_writes_ints_as_json(n):
    assert "%r" % n == json.dumps(n)
