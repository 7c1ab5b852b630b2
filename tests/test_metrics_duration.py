"""Tests for depth, gate-count metrics, and the ASAP duration model."""

import pytest

from repro.circuit import QuantumCircuit, circuit_duration, depth, measure_circuit
from repro.circuit.gate import DEFAULT_DURATIONS
from repro.circuit.metrics import CircuitMetrics


class TestDepth:
    def test_serial_chain(self):
        qc = QuantumCircuit(1)
        for _ in range(5):
            qc.h(0)
        assert depth(qc) == 5

    def test_parallel_gates_share_a_layer(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.h(1)
        qc.h(2)
        assert depth(qc) == 1

    def test_two_qubit_gate_synchronizes(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.h(1)
        assert depth(qc) == 3

    def test_swap_counts_three_layers(self):
        qc = QuantumCircuit(2)
        qc.swap(0, 1)
        assert depth(qc) == 3

    def test_barrier_is_transparent_but_aligns(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.barrier(0, 1)
        qc.h(1)
        assert depth(qc) == 2

    def test_empty_circuit(self):
        assert depth(QuantumCircuit(3)) == 0


class TestDuration:
    def test_single_cnot(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        assert circuit_duration(qc) == DEFAULT_DURATIONS["cx"]

    def test_rz_is_free(self):
        qc = QuantumCircuit(1)
        qc.rz(1.0, 0)
        assert circuit_duration(qc) == 0

    def test_parallel_vs_serial(self):
        serial = QuantumCircuit(1)
        serial.x(0)
        serial.x(0)
        parallel = QuantumCircuit(2)
        parallel.x(0)
        parallel.x(1)
        assert circuit_duration(serial) == 2 * DEFAULT_DURATIONS["x"]
        assert circuit_duration(parallel) == DEFAULT_DURATIONS["x"]

    def test_swap_decomposed_for_duration(self):
        qc = QuantumCircuit(2)
        qc.swap(0, 1)
        assert circuit_duration(qc) == 3 * DEFAULT_DURATIONS["cx"]

    def test_custom_duration_table(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        assert circuit_duration(qc, {"cx": 10}) == 10


class TestMetricsRecord:
    def test_measure_circuit(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.swap(0, 1)
        metrics = measure_circuit(qc)
        assert metrics.cnot_gates == 3
        assert metrics.one_qubit_gates == 1
        assert metrics.total_gates == 4
        assert metrics.depth == 4

    def test_cancel_ratio(self):
        metrics = CircuitMetrics(
            num_qubits=2,
            total_gates=10,
            cnot_gates=6,
            one_qubit_gates=4,
            depth=5,
            logical_cnots=100,
            canceled_cnots=25,
        )
        assert metrics.cancel_ratio == pytest.approx(0.25)
        assert metrics.as_row()["cancel_ratio"] == pytest.approx(0.25)

    def test_cancel_ratio_zero_logical(self):
        metrics = CircuitMetrics(2, 0, 0, 0, 0)
        assert metrics.cancel_ratio == 0.0
