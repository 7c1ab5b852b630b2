"""QAOA MaxCut ansatz construction.

The p=1 QAOA circuit is ``H^n . exp(-i gamma/2 sum Z_u Z_v) . RX(beta)^n``.
Each edge contributes one two-operator Pauli string — its own block, since
QAOA strings share no operators (the low-similarity regime that motivates
fast bridging, Sec. IV-C).
"""

from __future__ import annotations

from typing import List, Tuple

import networkx as nx

from ..pauli.block import PauliBlock
from ..pauli.pauli_string import PauliString
from .graphs import edge_list


def maxcut_blocks(
    graph: nx.Graph,
    gamma: float = 0.7,
) -> List[PauliBlock]:
    """One single-string ZZ block per edge."""
    num_qubits = graph.number_of_nodes()
    blocks = []
    for u, v in edge_list(graph):
        string = PauliString.from_ops(num_qubits, {u: "Z", v: "Z"})
        blocks.append(PauliBlock([string], [1.0], angle=gamma, label=f"zz:{u},{v}"))
    return blocks


def qaoa_gate_counts(graph: nx.Graph) -> Tuple[int, int]:
    """Table I accounting: (CNOTs, 1Q gates) of the logical p=1 circuit.

    2 CNOTs per edge; 1 RZ per edge plus an H and an RX per qubit.
    """
    edges = graph.number_of_edges()
    nodes = graph.number_of_nodes()
    return 2 * edges, edges + 2 * nodes
