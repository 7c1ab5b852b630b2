"""Exact statevector simulation for small circuits.

Convention: qubit 0 is the *most significant* bit of the state index, so the
full-circuit unitary equals ``kron(op_on_q0, op_on_q1, ...)`` — consistent
with :func:`repro.sim.unitaries.pauli_matrix`.

This simulator exists for verification (synthesis correctness, peephole
soundness, bridging semantics) and for the noisy-trajectory fidelity model.
It is practical up to ~14 qubits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..circuit import gate as g
from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import Gate
from .unitaries import gate_unitary


class Statevector:
    """A mutable statevector on ``num_qubits`` qubits, starting at |0...0>."""

    def __init__(self, num_qubits: int, rng: Optional[np.random.Generator] = None) -> None:
        if num_qubits > 24:
            raise ValueError("statevector simulation beyond 24 qubits is not supported")
        self.num_qubits = num_qubits
        self.state = np.zeros(2**num_qubits, dtype=complex)
        self.state[0] = 1.0
        self.rng = rng or np.random.default_rng(0)

    # -- gate application --------------------------------------------------------

    def apply_unitary(self, matrix: np.ndarray, qubits) -> None:
        """Apply a ``2^k x 2^k`` unitary to the listed qubits."""
        k = len(qubits)
        n = self.num_qubits
        tensor = self.state.reshape([2] * n)
        operator = np.asarray(matrix, dtype=complex).reshape([2] * (2 * k))
        moved = np.tensordot(operator, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
        self.state = np.moveaxis(moved, list(range(k)), list(qubits)).reshape(-1)

    def apply_gate(self, gate: Gate) -> None:
        if gate.name == g.BARRIER:
            return
        if gate.name == g.MEASURE:
            self.measure(gate.qubits[0])
            return
        if gate.name == g.RESET:
            self.reset(gate.qubits[0])
            return
        self.apply_unitary(gate_unitary(gate), gate.qubits)

    def run(self, circuit: QuantumCircuit) -> "Statevector":
        for gate in circuit.gates:
            self.apply_gate(gate)
        return self

    # -- measurement --------------------------------------------------------------

    def probability_one(self, qubit: int) -> float:
        """Probability of measuring |1> on ``qubit``."""
        n = self.num_qubits
        tensor = np.abs(self.state.reshape([2] * n)) ** 2
        axes = tuple(axis for axis in range(n) if axis != qubit)
        marginal = tensor.sum(axis=axes)
        return float(marginal[1])

    def measure(self, qubit: int) -> int:
        """Projective measurement with state collapse; returns the outcome."""
        p_one = self.probability_one(qubit)
        outcome = 1 if self.rng.random() < p_one else 0
        self._project(qubit, outcome, p_one if outcome else 1.0 - p_one)
        return outcome

    def reset(self, qubit: int) -> None:
        """Measure and flip to |0> if needed (hardware-style reset)."""
        outcome = self.measure(qubit)
        if outcome == 1:
            self.apply_unitary(gate_unitary(Gate(g.X, (qubit,))), (qubit,))

    def _project(self, qubit: int, outcome: int, probability: float) -> None:
        if probability <= 1e-15:
            raise ValueError(f"projecting qubit {qubit} onto outcome {outcome} "
                             "with (near-)zero probability")
        n = self.num_qubits
        tensor = self.state.reshape([2] * n)
        index = [slice(None)] * n
        index[qubit] = 1 - outcome
        tensor[tuple(index)] = 0.0
        self.state = tensor.reshape(-1) / np.sqrt(probability)

    # -- observables ---------------------------------------------------------------

    def probability_all_zero(self) -> float:
        return float(np.abs(self.state[0]) ** 2)


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Dense unitary of ``circuit`` (unitary gates only, <= ~10 qubits)."""
    n = circuit.num_qubits
    dim = 2**n
    if n > 12:
        raise ValueError("dense unitary extraction beyond 12 qubits is not supported")
    columns = np.eye(dim, dtype=complex)
    sim = Statevector(n)
    out = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        sim.state = columns[:, col].copy()
        for gate in circuit.gates:
            if not gate.is_unitary():
                raise ValueError("circuit_unitary requires a unitary circuit")
            sim.apply_gate(gate)
        out[:, col] = sim.state
    return out

