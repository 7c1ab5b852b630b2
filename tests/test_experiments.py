"""Smoke tests for every experiment harness (one per table/figure)."""

import csv
import os

import pytest

from repro.experiments import REGISTRY
from repro.experiments import (
    fig02,
    fig14,
    fig15,
    fig17,
    fig18,
    fig19,
    fig20,
    fig22,
    fig23,
    fig24,
    noise,
    table1,
    table2,
)
from repro.experiments.common import check_scale, default_scale, workload
from repro.report.manifest import EXPERIMENTS
from repro.report.render import render_csv_artifacts
from repro.report.store import run_experiment

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "results")

#: Wall-clock columns: the only cells a rerun is allowed to change.
TIMING_COLUMNS = {
    "fig19": {"synth_seconds"},
    "fig24": {"ph_compile_s", "ph_total_s", "tetris_compile_s", "tetris_total_s"},
}


class TestCommon:
    def test_scales(self):
        assert check_scale("smoke") == "smoke"
        with pytest.raises(ValueError):
            check_scale("huge")
        assert default_scale() in ("smoke", "small", "full")

    def test_workload_truncation(self):
        blocks = workload("LiH", "JW", "smoke")
        assert len(blocks) == 48
        full = workload("LiH", "JW", "full")
        assert len(full) == 92


class TestRegistry:
    def test_all_fifteen_experiments_registered(self):
        assert len(REGISTRY) == 15
        for module in REGISTRY.values():
            assert hasattr(module, "run")

    def test_every_module_declares_a_manifest_spec(self):
        for name, module in REGISTRY.items():
            spec = module.EXPERIMENT
            assert spec.id == name
            assert spec.kind in ("table", "figure")
            assert spec.claim and spec.grid and spec.columns
            for pin in spec.pins:
                assert pin.scale in ("smoke", "small", "full")

    def test_smoke_rows_carry_declared_columns(self):
        """The manifest's row schema matches what run() actually emits
        (spot-checked on the cheap experiments; `repro report --check`
        covers all of them in CI)."""
        for module in (table1, fig23):
            rows = module.run("smoke")
            for column in module.EXPERIMENT.columns:
                assert all(column in row for row in rows), column


class TestRuns:
    """Each experiment runs at smoke scale and satisfies its key invariant."""

    def test_table1_matches_paper_for_lih(self):
        rows = {r["bench"]: r for r in table1.run("smoke")}
        assert rows["LiH"]["pauli"] == 640
        assert rows["LiH"]["cnot"] == 8064
        assert rows["LiH"]["oneq"] == 4992

    def test_fig02_max_above_ph(self):
        for row in fig02.run("smoke"):
            assert row["max_cancel"] >= row["paulihedral"] - 0.05

    def test_table2_tetris_wins(self):
        rows = table2.run("smoke", encoders=("JW",))
        for row in rows:
            assert row["tetris_cnot"] < row["ph_cnot"]

    def test_fig14_ordering(self):
        for row in fig14.run("smoke"):
            assert row["tket_cnot"] > row["tetris_lookahead_cnot"]
            assert row["ph_cnot"] > row["tetris_lookahead_cnot"]

    def test_fig15_breakdown_consistency(self):
        for row in fig15.run_swap_breakdown("smoke"):
            for label in ("pcoast", "ph", "tetris"):
                assert row[f"{label}_swap_cnot"] <= row[f"{label}_cnot"]

    def test_fig17_middle_ground(self):
        for row in fig17.run("smoke", encoders=("JW",)):
            assert row["ph"] <= row["tetris"] + 0.05
            assert row["tetris"] <= row["max_cancel"] + 0.05

    def test_fig18_swap_fraction(self):
        for row in fig18.run("smoke", encoders=("JW",), include_synthetic=False):
            # Paulihedral is the SWAP-lightest, max_cancel the heaviest.
            assert row["ph_swap_cnot"] <= row["tetris_swap_cnot"]
            assert row["max_swap_cnot"] >= 0.5 * row["tetris_swap_cnot"]

    def test_fig19_rows(self):
        rows = fig19.run("smoke")
        assert {row["K"] for row in rows} == {1, 10}

    def test_fig20_weight_direction(self):
        rows = fig20.run("smoke")
        by_weight = {row["w"]: row for row in rows}
        assert by_weight[10]["ithaca_swaps"] <= by_weight[1]["ithaca_swaps"]

    def test_fig22_fidelity_bounds(self):
        for row in fig22.run("smoke"):
            for key in ("ph_fidelity", "tetris_fidelity"):
                assert 0.0 <= row[key] <= 1.0

    def test_fig23_normalized_below_one(self):
        for row in fig23.run("smoke"):
            assert row["tetris/ph_cnot"] < 1.0
            assert row["2qan/ph_cnot"] < 1.0

    def test_fig24_latencies_positive(self):
        for row in fig24.run("smoke"):
            assert row["ph_total_s"] > 0
            assert row["tetris_total_s"] > 0

    def test_noise_sizes_its_region_to_wide_workloads(self, monkeypatch):
        # MgH2 has 22 qubits, more than the default 20-qubit region.
        monkeypatch.setitem(noise.MOLECULES_BY_SCALE, "smoke", ("MgH2",))
        monkeypatch.setitem(noise.SYNTHETIC_BY_SCALE, "smoke", ())
        [row] = noise.run("smoke")
        assert row["bench"] == "chem:MgH2"
        assert row["aware_cnot"] > 0
        assert 0.0 < row["aware_fidelity"] <= 1.0


def _read_csv(path, skip):
    with open(path, newline="") as handle:
        return [
            [(key, value) for key, value in row.items() if key not in skip]
            for row in csv.DictReader(handle)
        ]


def test_smoke_rows_match_committed_results(tmp_path):
    """Every experiment's smoke rows equal the committed
    ``docs/results/<id>.csv``, wall-clock columns aside."""
    outcomes = [
        run_experiment(EXPERIMENTS.get(exp_id), scale="smoke")
        for exp_id in sorted(REGISTRY)
    ]
    render_csv_artifacts(outcomes, str(tmp_path))
    for exp_id in sorted(REGISTRY):
        skip = TIMING_COLUMNS.get(exp_id, set())
        fresh = _read_csv(tmp_path / f"{exp_id}.csv", skip)
        committed = _read_csv(os.path.join(RESULTS_DIR, f"{exp_id}.csv"), skip)
        assert fresh == committed, exp_id
