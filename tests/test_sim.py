"""Tests for the statevector simulator and unitary helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_statevector, unitaries_equal
from repro.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.pauli import PauliString
from repro.sim import Statevector, circuit_unitary, gate_unitary, pauli_matrix


class TestGateUnitaries:
    def test_known_identities(self):
        h = gate_unitary(Gate("h", (0,)))
        assert np.allclose(h @ h, np.eye(2))
        s = gate_unitary(Gate("s", (0,)))
        sdg = gate_unitary(Gate("sdg", (0,)))
        assert np.allclose(s @ sdg, np.eye(2))
        assert np.allclose(s @ s, gate_unitary(Gate("z", (0,))))

    def test_rotations_at_pi(self):
        rx = gate_unitary(Gate("rx", (0,), (np.pi,)))
        assert unitaries_equal(rx, pauli_matrix(PauliString("X")))

    def test_u3_matches_zyz(self):
        theta, phi, lam = 0.3, -0.7, 1.9
        u3 = gate_unitary(Gate("u3", (0,), (theta, phi, lam)))
        rz = lambda a: gate_unitary(Gate("rz", (0,), (a,)))
        ry = gate_unitary(Gate("ry", (0,), (theta,)))
        assert unitaries_equal(u3, rz(phi) @ ry @ rz(lam))

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            gate_unitary(Gate("mystery", (0,)))


class TestStatevector:
    def test_initial_state(self):
        sim = Statevector(2)
        assert sim.probability_all_zero() == pytest.approx(1.0)

    def test_width_limit(self):
        with pytest.raises(ValueError):
            Statevector(30)

    def test_x_flips(self):
        qc = QuantumCircuit(2)
        qc.x(1)
        sim = run_statevector(qc)
        assert sim.probability_one(1) == pytest.approx(1.0)
        assert sim.probability_one(0) == pytest.approx(0.0)

    def test_bell_state(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        sim = run_statevector(qc)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.allclose(sim.state, expected)

    def test_qubit_zero_is_most_significant(self):
        qc = QuantumCircuit(2)
        qc.x(0)
        sim = run_statevector(qc)
        assert sim.state[2] == pytest.approx(1.0)  # |10>

    def test_measure_deterministic(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        sim = run_statevector(qc)
        assert sim.measure(0) == 1

    def test_reset_restores_zero(self):
        sim = Statevector(1)
        sim.apply_gate(Gate("x", (0,)))
        sim.reset(0)
        assert sim.probability_all_zero() == pytest.approx(1.0)

    def test_measure_collapses(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        sim = run_statevector(qc, seed=1)
        outcome = sim.measure(0)
        assert sim.probability_one(0) == pytest.approx(float(outcome))

    @settings(max_examples=25)
    @given(st.integers(0, 10**6))
    def test_tensordot_application_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        qc = QuantumCircuit(n)
        for _ in range(8):
            kind = rng.integers(3)
            if kind == 0:
                qc.h(int(rng.integers(n)))
            elif kind == 1:
                qc.rz(float(rng.uniform(-3, 3)), int(rng.integers(n)))
            else:
                a, b = rng.choice(n, 2, replace=False)
                qc.cx(int(a), int(b))
        unitary = circuit_unitary(qc)
        state = run_statevector(qc).state
        assert np.allclose(unitary[:, 0], state)


class TestUnitariesEqual:
    def test_global_phase_ignored(self):
        a = np.eye(2)
        assert unitaries_equal(a, 1j * a)

    def test_detects_difference(self):
        assert not unitaries_equal(np.eye(2), pauli_matrix(PauliString("X")))

    def test_shape_mismatch(self):
        assert not unitaries_equal(np.eye(2), np.eye(4))

    def test_circuit_unitary_rejects_non_unitary(self):
        qc = QuantumCircuit(1)
        qc.measure(0)
        with pytest.raises(ValueError):
            circuit_unitary(qc)
