"""Cross-stack integration tests (compile -> optimize -> measure -> export)."""

import os

import pytest

from repro.chem import encoder_by_name, molecule_blocks
from repro.circuit import circuit_duration, depth, to_qasm
from repro.experiments.common import rows_to_csv
from repro.hardware import google_sycamore_64, ibm_ithaca_65
from repro.pipeline import run_pipeline
from repro.qaoa import benchmark_graph, maxcut_blocks
from repro.routing import verify_hardware_compliant


class TestPipeline:
    def test_full_lih_pipeline(self):
        """The paper's LiH headline: full-molecule compile on heavy-hex."""
        blocks = molecule_blocks("LiH")
        coupling = ibm_ithaca_65()
        tetris = run_pipeline("tetris", blocks, coupling)
        ph = run_pipeline("paulihedral", blocks, coupling)
        assert verify_hardware_compliant(tetris.result.circuit, coupling)
        assert verify_hardware_compliant(ph.result.circuit, coupling)
        # Paper Table II: Tetris reduces CNOTs, depth, and duration on LiH.
        tetris_metrics, ph_metrics = tetris.metrics(), ph.metrics()
        assert tetris_metrics.cnot_gates < ph_metrics.cnot_gates
        assert tetris_metrics.duration < ph_metrics.duration
        # Reduction in the paper's ballpark (-17%); require at least -8%.
        reduction = 1 - tetris_metrics.cnot_gates / ph_metrics.cnot_gates
        assert reduction > 0.08

    def test_bk_pipeline(self):
        blocks = molecule_blocks("LiH", encoder_by_name("BK"))[:60]
        coupling = ibm_ithaca_65()
        run = run_pipeline("tetris", blocks, coupling)
        assert verify_hardware_compliant(run.result.circuit, coupling)
        assert run.metrics().cnot_gates > 0

    def test_sycamore_pipeline(self):
        blocks = molecule_blocks("LiH")[:40]
        coupling = google_sycamore_64()
        run = run_pipeline("tetris", blocks, coupling)
        assert verify_hardware_compliant(run.result.circuit, coupling)

    def test_qaoa_pipeline(self):
        blocks = maxcut_blocks(benchmark_graph("REG3-16", seed=0))
        coupling = ibm_ithaca_65()
        run = run_pipeline("tetris-qaoa", blocks, coupling)
        assert verify_hardware_compliant(run.result.circuit, coupling)

    def test_qasm_roundtrips_compiled_circuit(self, tmp_path):
        blocks = molecule_blocks("LiH")[:10]
        run = run_pipeline("tetris", blocks, ibm_ithaca_65())
        text = to_qasm(run.result.circuit)
        assert text.count("\n") > 10
        path = tmp_path / "circuit.qasm"
        path.write_text(text)
        assert path.stat().st_size > 0

    def test_metrics_internally_consistent(self):
        blocks = molecule_blocks("LiH")[:30]
        run = run_pipeline("tetris", blocks, ibm_ithaca_65())
        circuit = run.result.circuit
        metrics = run.metrics()
        assert metrics.depth == depth(circuit)
        assert metrics.duration == circuit_duration(circuit)
        assert metrics.total_gates == metrics.cnot_gates + metrics.one_qubit_gates


class TestCsvExport:
    def test_rows_to_csv(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = str(tmp_path / "out.csv")
        rows_to_csv(rows, path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert lines == ["a,b", "1,x", "2,y"]

    def test_empty_rows_no_file(self, tmp_path):
        path = str(tmp_path / "none.csv")
        rows_to_csv([], path)
        assert not os.path.exists(path)
