"""Cross-stack integration tests (compile -> optimize -> measure -> export)."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.chem import encoder_by_name, molecule_blocks
from repro.circuit import circuit_duration, depth, to_qasm
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


class TestVerifyApi:
    def test_verify_compilation_small_device(self):
        from repro import verify_compilation
        from repro.hardware import linear
        from repro.pauli import PauliBlock, PauliString
        from repro.pipeline import run_pipeline

        blocks = [
            PauliBlock(
                [PauliString("XZZY"), PauliString("YZZX")], weights=[0.5, -0.5]
            )
        ]
        coupling = linear(6)
        result = run_pipeline("tetris+o0", blocks, coupling).result
        report = verify_compilation(result, blocks, coupling)
        assert report.ok
        assert report.equivalence_overlap == pytest.approx(1.0, abs=1e-7)

    def test_verify_compilation_large_device_compliance_only(self):
        from repro import verify_compilation
        from repro.chem import molecule_blocks
        from repro.hardware import ibm_ithaca_65
        from repro.pipeline import run_pipeline

        blocks = molecule_blocks("LiH")[:5]
        coupling = ibm_ithaca_65()
        result = run_pipeline("paulihedral+o0", blocks, coupling).result
        report = verify_compilation(result, blocks, coupling)
        assert report.compliant
        assert report.equivalence_overlap is None
        assert report.ok

    def test_compliance_check_reads_the_tape(self):
        # The check reads the CX and SWAP rows of the tape, so a routed
        # result is checked without decoding its gates.
        from repro.hardware import linear
        from repro.verify import check_hardware_compliance

        blocks = molecule_blocks("LiH")[:5]
        coupling = ibm_ithaca_65()
        result = run_pipeline("tetris+o0", blocks, coupling).result
        assert result.circuit.tape_backed
        assert check_hardware_compliance(result, coupling)
        assert not check_hardware_compliance(result, linear(coupling.num_qubits))
        assert result.circuit.tape_backed


#: Compiles a chemistry cell in a fresh interpreter, then builds a QAOA
#: graph: networkx must load only for the second.
IMPORT_PATH_PROBE = textwrap.dedent("""\
    import sys

    import repro
    import repro.serve
    from repro.workloads import workload_blocks

    result = repro.compile(bench="chem:LiH", device="heavy-hex:ibm-65",
                           scale="smoke", use_cache=False)
    assert result.metrics.cnot_gates > 0
    assert "networkx" not in sys.modules, "a chemistry compile loaded networkx"
    workload_blocks("qaoa:Rand-12", "JW", "smoke")
    assert "networkx" in sys.modules, "a QAOA graph was built without networkx"
""")


#: Builds every device family, with its distance matrix, in a fresh
#: interpreter: none of them may load networkx.
DEVICE_PROBE = textwrap.dedent("""\
    import sys

    from repro.hardware.families import resolve_device

    for spec in ("linear:7", "ring:7", "grid:3x4", "full:5", "sycamore:4x4",
                 "heavy-hex:5", "heavy-hex:ibm-65", "ithaca", "sycamore"):
        graph = resolve_device(spec, 5)
        assert graph.distance_matrix().max() < graph.num_qubits, spec
    assert "networkx" not in sys.modules, "a device family loaded networkx"
""")


def run_probe(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_only_qaoa_graphs_load_networkx():
    run_probe(IMPORT_PATH_PROBE)


def test_device_families_build_without_networkx():
    run_probe(DEVICE_PROBE)
