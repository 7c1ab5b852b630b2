"""Tests for the OpenQASM importer and its roundtrip with the exporter."""

import numpy as np
import pytest

from repro.circuit import QasmParseError, QuantumCircuit, from_qasm, to_qasm
from repro.sim import circuit_unitary, unitaries_equal


def roundtrip(circuit: QuantumCircuit) -> QuantumCircuit:
    return from_qasm(to_qasm(circuit))


class TestRoundtrip:
    def test_all_gates(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.s(1)
        qc.sdg(2)
        qc.x(0)
        qc.y(1)
        qc.z(2)
        qc.rx(0.5, 0)
        qc.ry(-0.25, 1)
        qc.rz(1.75, 2)
        qc.u3(0.1, 0.2, 0.3, 0)
        qc.cx(0, 1)
        qc.swap(1, 2)
        back = roundtrip(qc)
        assert [g.name for g in back] == [g.name for g in qc]
        assert unitaries_equal(circuit_unitary(qc), circuit_unitary(back))

    def test_non_unitary_ops(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.measure(0)
        qc.reset(1)
        qc.barrier(0, 1)
        back = roundtrip(qc)
        assert [g.name for g in back] == ["h", "measure", "reset", "barrier"]
        assert back.gates[3].qubits == (0, 1)

    def test_random_circuit_roundtrip(self):
        rng = np.random.default_rng(7)
        qc = QuantumCircuit(4)
        for _ in range(30):
            kind = rng.integers(3)
            if kind == 0:
                qc.h(int(rng.integers(4)))
            elif kind == 1:
                qc.rz(float(rng.uniform(-3, 3)), int(rng.integers(4)))
            else:
                a, b = rng.choice(4, 2, replace=False)
                qc.cx(int(a), int(b))
        back = roundtrip(qc)
        assert unitaries_equal(circuit_unitary(qc), circuit_unitary(back))

    def test_compiled_circuit_roundtrip(self):
        from repro.chem import molecule_blocks
        from repro.hardware import ibm_ithaca_65
        from repro.pipeline import run_pipeline

        blocks = molecule_blocks("LiH")[:5]
        result = run_pipeline("tetris+o0", blocks, ibm_ithaca_65()).result
        back = roundtrip(result.circuit)
        assert len(back) == len(result.circuit)


class TestParsing:
    def test_pi_expressions(self):
        text = (
            "OPENQASM 2.0;\nqreg q[1];\n"
            "rz(pi/2) q[0];\nrz(-pi) q[0];\nrz(2*pi/3) q[0];\n"
        )
        qc = from_qasm(text)
        assert qc.gates[0].params[0] == pytest.approx(np.pi / 2)
        assert qc.gates[1].params[0] == pytest.approx(-np.pi)
        assert qc.gates[2].params[0] == pytest.approx(2 * np.pi / 3)

    def test_comments_and_blanks(self):
        text = (
            "OPENQASM 2.0;\n// a comment\n\nqreg q[2];\n"
            "h q[0]; // trailing comment\n"
        )
        qc = from_qasm(text)
        assert len(qc) == 1

    def test_errors(self):
        with pytest.raises(QasmParseError):
            from_qasm("OPENQASM 2.0;\nh q[0];\n")  # gate before qreg
        with pytest.raises(QasmParseError):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1],q[0];\n")
        with pytest.raises(QasmParseError):
            from_qasm("OPENQASM 2.0;\nqreg q[1];\nrz(import_os) q[0];\n")
        with pytest.raises(QasmParseError):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n")
        with pytest.raises(QasmParseError):
            from_qasm("")


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
