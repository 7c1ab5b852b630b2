"""Tests for Pauli-exponential synthesis: trees, basis changes, emission."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.circuit import QuantumCircuit
from repro.circuit import gate as g
from repro.circuit.gate import Gate
from repro.pauli import PauliString
from repro.sim import circuit_unitary, pauli_matrix
from repro.synthesis import (
    emit_exponential,
    fan_in,
    post_rotation_gates,
    pre_rotation_gates,
    synthesize_chain,
)

from helpers import random_pauli_string, reference_circuit, unitaries_equal


def exact(string: PauliString, theta: float) -> np.ndarray:
    return expm(-1j * theta / 2 * pauli_matrix(string))


def tree_exponential(string: PauliString, theta: float, parent, root):
    """``exp(-i theta/2 string)`` emitted over the tree ``parent``."""
    qc = QuantumCircuit(string.num_qubits)
    emit_exponential(
        qc,
        [(string[q], q) for q in string.support],
        [Gate(g.CX, edge) for edge in fan_in(parent, root)],
        root,
        theta,
    )
    return qc


class TestFanIn:
    def test_chain(self):
        assert fan_in({3: 1, 1: 0}, 0) == [(3, 1), (1, 0)]

    def test_star(self):
        assert fan_in({4: 2, 0: 2, 1: 2}, 2) == [(0, 2), (1, 2), (4, 2)]

    def test_schedule_respects_dependencies(self):
        parent = {1: 0, 2: 1, 3: 1, 4: 2}
        schedule = fan_in(parent, 0)
        assert schedule == [(4, 2), (2, 1), (3, 1), (1, 0)]
        position = {edge[0]: i for i, edge in enumerate(schedule)}
        for child, node in parent.items():
            if node in position:  # parent is itself a child somewhere
                assert position[child] < position[node]


class TestBasisChanges:
    @pytest.mark.parametrize("op", ["X", "Y", "Z"])
    def test_pre_post_are_inverse(self, op):
        qc = QuantumCircuit(1)
        for gate in pre_rotation_gates(op, 0):
            qc.append(gate)
        for gate in post_rotation_gates(op, 0):
            qc.append(gate)
        assert unitaries_equal(circuit_unitary(qc), np.eye(2))

    @pytest.mark.parametrize("op", ["X", "Y"])
    def test_conjugation_maps_to_z(self, op):
        # post . Z . pre == op (reading the circuit left to right)
        qc = QuantumCircuit(1)
        for gate in pre_rotation_gates(op, 0):
            qc.append(gate)
        qc.z(0)
        for gate in post_rotation_gates(op, 0):
            qc.append(gate)
        assert unitaries_equal(circuit_unitary(qc), pauli_matrix(PauliString(op)))

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            pre_rotation_gates("I", 0)
        with pytest.raises(ValueError):
            post_rotation_gates("I", 0)


class TestSynthesis:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.floats(-3, 3))
    def test_chain_matches_expm(self, seed, theta):
        rng = np.random.default_rng(seed)
        string = random_pauli_string(rng, rng.integers(1, 5))
        qc = synthesize_chain(string, theta)
        assert unitaries_equal(circuit_unitary(qc), exact(string, theta))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_tree_matches_expm(self, seed):
        rng = np.random.default_rng(seed)
        string = random_pauli_string(rng, 5, min_weight=2)
        support = list(string.support)
        rng.shuffle(support)
        # Random tree: each node's parent is a random earlier node.
        parent = {}
        for index in range(1, len(support)):
            parent[support[index]] = support[int(rng.integers(index))]
        qc = tree_exponential(string, 0.9, parent, support[0])
        assert unitaries_equal(circuit_unitary(qc), exact(string, 0.9))

    def test_identity_string_synthesizes_empty(self):
        qc = synthesize_chain(PauliString("III"), 0.5)
        assert len(qc) == 0

    def test_single_qubit_string(self):
        qc = synthesize_chain(PauliString("IYI"), 0.4)
        assert unitaries_equal(circuit_unitary(qc), exact(PauliString("IYI"), 0.4))
        assert qc.count_ops().get("cx", 0) == 0

    def test_appends_into_existing_circuit(self):
        qc = QuantumCircuit(3)
        out = synthesize_chain(PauliString("ZZI"), 0.3, qc)
        assert out is qc
        assert len(qc) > 0

    def test_cnot_count_is_twice_weight_minus_one(self):
        string = PauliString("XZZY")
        qc = synthesize_chain(string, 1.0)
        assert qc.count_ops()["cx"] == 2 * (string.weight - 1)


class TestBlockSynthesis:
    def test_naive_block(self):
        from repro.pauli import PauliBlock

        block = PauliBlock(
            [PauliString("XZI"), PauliString("YZI")], weights=[0.5, -0.5], angle=0.8
        )
        qc = reference_circuit([block])
        expected = exact(PauliString("YZI"), -0.4) @ exact(PauliString("XZI"), 0.4)
        assert unitaries_equal(circuit_unitary(qc), expected)
