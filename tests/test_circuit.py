"""Tests for the circuit IR: gates, circuits, QASM export."""

import numpy as np
import pytest

from helpers import unitaries_equal
from repro.circuit import QuantumCircuit, measure_circuit, to_qasm
from repro.circuit.gate import Gate
from repro.circuit.tape import GATE_CODES
from repro.sim import circuit_unitary


def small_circuit():
    qc = QuantumCircuit(3)
    qc.h(0)
    qc.s(1)
    qc.sdg(2)
    qc.x(0)
    qc.rz(0.5, 1)
    qc.rx(-0.25, 2)
    qc.u3(0.1, 0.2, 0.3, 0)
    qc.cx(0, 1)
    qc.swap(1, 2)
    return qc


class TestGate:
    def test_inverse_pairs(self):
        assert Gate("s", (0,)).inverse().name == "sdg"
        assert Gate("sdg", (0,)).inverse().name == "s"
        assert Gate("h", (0,)).inverse().name == "h"
        assert Gate("rz", (0,), (0.5,)).inverse().params == (-0.5,)
        inv = Gate("u3", (0,), (0.1, 0.2, 0.3)).inverse()
        assert inv.params == (-0.1, -0.3, -0.2)

    def test_inverse_of_non_unitary_raises(self):
        with pytest.raises(ValueError):
            Gate("measure", (0,)).inverse()

    def test_cancels_with(self):
        assert Gate("h", (0,)).cancels_with(Gate("h", (0,)))
        assert not Gate("h", (0,)).cancels_with(Gate("h", (1,)))
        assert Gate("s", (0,)).cancels_with(Gate("sdg", (0,)))
        assert Gate("cx", (0, 1)).cancels_with(Gate("cx", (0, 1)))
        assert not Gate("cx", (0, 1)).cancels_with(Gate("cx", (1, 0)))

    def test_remapped(self):
        gate = Gate("cx", (0, 1)).remapped({0: 5, 1: 7})
        assert gate.qubits == (5, 7)

    def test_classification(self):
        assert Gate("rz", (0,), (1.0,)).is_one_qubit()
        assert Gate("cx", (0, 1)).is_two_qubit()
        assert not Gate("measure", (0,)).is_unitary()


class TestCircuitBuilding:
    def test_counts(self):
        qc = small_circuit()
        counts = qc.count_ops()
        assert counts["cx"] == 1
        assert counts["swap"] == 1
        metrics = measure_circuit(qc)
        assert metrics.cnot_gates == 4  # 1 cx + 3 from the swap
        assert metrics.one_qubit_gates == 7

    def test_out_of_range_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValueError):
            qc.h(2)

    def test_degenerate_two_qubit_gates_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValueError):
            qc.cx(1, 1)
        with pytest.raises(ValueError):
            qc.swap(0, 0)

    def test_touched_qubits(self):
        qc = QuantumCircuit(5)
        qc.h(3)
        qc.cx(1, 3)
        assert qc.touched_qubits() == (1, 3)


class TestCircuitTransforms:
    def test_copy_is_independent(self):
        qc = small_circuit()
        clone = qc.copy()
        clone.h(0)
        assert len(clone) == len(qc) + 1

    def test_compose(self):
        a, b = QuantumCircuit(2), QuantumCircuit(2)
        a.h(0)
        b.cx(0, 1)
        combined = a.compose(b)
        assert [g.name for g in combined] == ["h", "cx"]
        with pytest.raises(ValueError):
            a.compose(QuantumCircuit(3))

    def test_extend_validates_bounds(self):
        qc = QuantumCircuit(2)
        qc.extend([Gate("h", (0,)), Gate("cx", (0, 1))])
        assert len(qc) == 2
        with pytest.raises(ValueError):
            qc.extend([Gate("h", (5,))])

    def test_compose_with_qubit_map(self):
        wide = QuantumCircuit(4)
        wide.h(0)
        narrow = QuantumCircuit(2)
        narrow.cx(0, 1)
        narrow.rz(0.25, 1)
        out = wide.compose(narrow, qubit_map={0: 2, 1: 3})
        assert [(g.name, g.qubits) for g in out.gates] == [
            ("h", (0,)), ("cx", (2, 3)), ("rz", (3,))
        ]
        assert out.num_qubits == 4
        # originals untouched
        assert len(wide) == 1 and len(narrow) == 2

    def test_compose_qubit_map_errors(self):
        wide = QuantumCircuit(4)
        narrow = QuantumCircuit(2)
        narrow.cx(0, 1)
        with pytest.raises(ValueError, match="missing wires"):
            wide.compose(narrow, qubit_map={0: 2})
        with pytest.raises(ValueError, match="out of range"):
            wide.compose(narrow, qubit_map={0: 2, 1: 9})
        with pytest.raises(ValueError, match="more than once"):
            wide.compose(narrow, qubit_map={0: 2, 1: 2})

    def test_inverse_is_inverse(self):
        qc = small_circuit()
        identity = qc.compose(qc.inverse())
        unitary = circuit_unitary(identity)
        assert unitaries_equal(unitary, np.eye(unitary.shape[0]))

    def test_decompose_swaps_preserves_unitary(self):
        qc = small_circuit()
        assert unitaries_equal(
            circuit_unitary(qc), circuit_unitary(qc.decompose_swaps())
        )
        assert "swap" not in qc.decompose_swaps().count_ops()

    def test_remapped(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        wide = qc.remapped({0: 3, 1: 1}, num_qubits=4)
        assert wide.gates[0].qubits == (3, 1)


class TestQasm:
    def test_exports_all_gates(self):
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
        qc.measure(0)
        qc.reset(1)
        qc.barrier(0, 1, 2)
        # One line per gate code, in program order.
        assert {gate.name for gate in qc} == set(GATE_CODES)
        assert to_qasm(qc) == (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[3];\n"
            "creg c[3];\n"
            "h q[0];\n"
            "s q[1];\n"
            "sdg q[2];\n"
            "x q[0];\n"
            "y q[1];\n"
            "z q[2];\n"
            "rx(0.5) q[0];\n"
            "ry(-0.25) q[1];\n"
            "rz(1.75) q[2];\n"
            "u3(0.1,0.2,0.3) q[0];\n"
            "cx q[0],q[1];\n"
            "swap q[1],q[2];\n"
            "measure q[0] -> c[0];\n"
            "reset q[1];\n"
            "barrier q[0],q[1],q[2];\n"
        )

    def test_angles_keep_twelve_significant_digits(self):
        qc = QuantumCircuit(1)
        qc.rz(np.pi, 0)
        qc.rx(1e-13, 0)
        qc.u3(-0.5, 2.0, 1 / 3, 0)
        assert to_qasm(qc).splitlines()[4:] == [
            "rz(3.14159265359) q[0];",
            "rx(1e-13) q[0];",
            "u3(-0.5,2,0.333333333333) q[0];",
        ]

    def test_compiled_circuit_exports_one_line_per_gate(self):
        from repro.chem import molecule_blocks
        from repro.hardware import ibm_ithaca_65
        from repro.pipeline import run_pipeline

        blocks = molecule_blocks("LiH")[:5]
        circuit = run_pipeline("tetris+o0", blocks, ibm_ithaca_65()).result.circuit
        body = to_qasm(circuit).splitlines()[4:]
        assert len(body) == len(circuit) > 0
        assert [line.split("(")[0].split(" ")[0] for line in body] == [
            gate.name for gate in circuit.gates
        ]
