"""Naive ladder (chain) synthesis — the generic per-string strategy.

This is what hardware-oblivious compilers such as T|Ket> emit for a Pauli
exponential: a CNOT ladder over the support in index order.  It serves as
the per-string building block of the tket-like baseline.
"""

from __future__ import annotations

from typing import Optional

from ..circuit import gate as g
from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import Gate
from ..pauli.pauli_string import PauliString
from .tree import emit_exponential


def synthesize_chain(
    string: PauliString,
    angle: float,
    circuit: Optional[QuantumCircuit] = None,
) -> QuantumCircuit:
    """Emit the exponential with an ascending-index CNOT ladder."""
    out = circuit if circuit is not None else QuantumCircuit(string.num_qubits)
    support = string.support
    if support:
        ladder = [Gate(g.CX, edge) for edge in zip(support, support[1:])]
        ops = [(string[qubit], qubit) for qubit in support]
        emit_exponential(out, ops, ladder, support[-1], angle)
    return out
