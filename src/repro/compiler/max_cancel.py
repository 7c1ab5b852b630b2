"""The max_cancel baseline (paper Sec. VI-A, Figs. 2, 17, 18).

Fixes the logical circuit to a *single leaf tree* per block — the extreme
end of the Tetris tuning spectrum that maximizes 2Q cancellation — while
ignoring hardware connectivity entirely.  The hardware-oblivious logical
circuit is then routed by the generic SWAP router (the paper transpiles it
with Qiskit for the same reason), which is where the method pays: maximal
cancellation, maximal SWAP insertion.

This module holds the single-leaf-tree synthesis; the ``max-cancel``
pipeline (``order-similarity``, ``synth-single-leaf``, ``layout``,
``route``) in :mod:`repro.pipeline.registry` runs it.
"""

from __future__ import annotations

from typing import Sequence

from ..circuit import gate as g
from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import Gate
from ..pauli.block import PauliBlock
from ..pauli.operators import I
from ..synthesis.basis_change import post_rotation_gates, pre_rotation_gates
from ..synthesis.tree import emit_exponential
from .base import blocks_num_qubits
from .tetris.ir import TetrisBlockIR, lower_blocks


def max_cancel_logical_circuit(
    blocks: Sequence[PauliBlock],
    sort_strings: bool = True,
) -> QuantumCircuit:
    """The single-leaf-tree logical circuit with structural cancellation.

    For each block, the common-operator qubits form one chain (the single
    leaf tree) feeding into a chain over the root qubits; the leaf chain and
    its basis changes are emitted once per block.
    """
    num_qubits = blocks_num_qubits(blocks)
    circuit = QuantumCircuit(num_qubits, name="max_cancel")
    for ir in lower_blocks(blocks, sort_strings=sort_strings):
        _emit_block_single_leaf_tree(circuit, ir)
    return circuit


def _emit_block_single_leaf_tree(circuit: QuantumCircuit, ir: TetrisBlockIR) -> None:
    leaf = list(ir.leaf_qubits)
    root = list(ir.root_qubits)
    if not root:
        if not leaf:
            # An all-identity block is a global phase: emit nothing.
            return
        root = [leaf.pop()]
    first = ir.strings[0]

    # Single leaf tree: a chain leaf[0] -> ... -> leaf[-1], emitted once per
    # block.  Every string contains the leaf (common) operators by
    # definition, so hoisting is always sound; only the per-string root
    # section varies (some strings may lack some root qubits under BK).
    leaf_chain = [
        Gate(g.CX, (leaf[index], leaf[index + 1])) for index in range(len(leaf) - 1)
    ]
    for qubit in leaf:
        circuit.extend(pre_rotation_gates(first[qubit], qubit))
    circuit.extend(leaf_chain)

    for string, weight in zip(ir.strings, ir.weights):
        string_roots = [q for q in root if string[q] != I]
        chain = leaf[-1:] + string_roots
        if not chain:
            # Only an identity string has no qubit in the chain: a
            # global phase, skipped as every compiler skips it.
            continue
        emit_exponential(
            circuit,
            [(string[q], q) for q in string_roots],
            [Gate(g.CX, (a, b)) for a, b in zip(chain, chain[1:])],
            chain[-1],
            ir.angle * weight,
        )

    circuit.extend(reversed(leaf_chain))
    for qubit in leaf:
        circuit.extend(post_rotation_gates(first[qubit], qubit))
