"""Paulihedral-style baseline compiler (Li et al., ASPLOS 2022).

Reproduces the behaviour the paper attributes to Paulihedral:

- blocks are chained greedily by similarity (maximizing adjacent 1Q
  cancellation), with no SWAP-cost lookahead;
- strings within a block are sorted lexicographically (adjacent strings
  differ in few operators -> maximal 1Q cancellation);
- per string, the compiler finds the largest connected component of the
  string's mapped support, SWAPs the remaining qubits toward it (SWAP-centric
  mapping), and synthesizes a BFS tree rooted at the component centre —
  without Tetris' root/leaf distinction, so common-operator qubits end up
  anywhere in the tree and 2Q cancellation is mostly missed (Fig. 4(b));
- gate cancellation itself is left to the downstream O3 pass
  ("PH leaves the job of canceling gates to Qiskit O3").

This module holds the ordering and per-string emission; the
``paulihedral`` pipeline (``order-similarity``, ``layout``,
``synth-spanning-tree``) in :mod:`repro.pipeline.registry` runs them.
"""

from __future__ import annotations

from typing import List, Sequence

from ..circuit import gate as g
from ..circuit.gate import Gate
from ..hardware.coupling import CouplingGraph
from ..pauli.block import PauliBlock
from ..pauli.similarity import block_similarity_matrix
from ..synthesis.basis_change import post_rotation_gates, pre_rotation_gates
from .mapping_utils import (
    SwapTracker,
    connect_support,
    find_center,
    physical_spanning_tree,
)


def similarity_chain_order(blocks: Sequence[PauliBlock]) -> List[int]:
    """Greedy nearest-neighbour chain over block similarity (Eq. 1).

    The full pairwise similarity matrix is one batch kernel over the
    blocks' packed leaf tables; the greedy chain then only indexes it.
    """
    remaining = list(range(len(blocks)))
    if not remaining:
        return []
    similarity = block_similarity_matrix(blocks)
    first = max(remaining, key=lambda i: (blocks[i].active_length, -i))
    order = [first]
    remaining.remove(first)
    while remaining:
        last_row = similarity[order[-1]]
        choice = max(remaining, key=lambda i: (last_row[i], -i))
        order.append(choice)
        remaining.remove(choice)
    return order


def emit_string_over_spanning_tree(
    tracker: SwapTracker,
    coupling: CouplingGraph,
    string,
    angle: float,
) -> None:
    """Connect the string's support, then emit a centre-rooted BFS tree."""
    circuit = tracker.circuit
    layout = tracker.layout
    support = list(string.support)
    if not support:
        return
    if len(support) == 1:
        qubit = layout.physical(support[0])
        for gate in pre_rotation_gates(string[support[0]], qubit):
            circuit.append(gate)
        circuit.rz(angle, qubit)
        for gate in post_rotation_gates(string[support[0]], qubit):
            circuit.append(gate)
        return

    connect_support(tracker, coupling, support)
    positions = [layout.physical(q) for q in support]
    root_position = find_center(coupling, positions, candidates=positions)
    parent = physical_spanning_tree(coupling, positions, root_position)

    depth = {root_position: 0}

    def depth_of(node: int) -> int:
        if node not in depth:
            depth[node] = depth_of(parent[node]) + 1
        return depth[node]

    for node in parent:
        depth_of(node)
    schedule = sorted(parent, key=lambda c: (-depth[c], c))

    for qubit in support:
        for gate in pre_rotation_gates(string[qubit], layout.physical(qubit)):
            circuit.append(gate)
    body = [Gate(g.CX, (child, parent[child])) for child in schedule]
    for gate in body:
        circuit.append(gate)
    circuit.rz(angle, root_position)
    for gate in reversed(body):
        circuit.append(gate)
    for qubit in support:
        for gate in post_rotation_gates(string[qubit], layout.physical(qubit)):
            circuit.append(gate)

