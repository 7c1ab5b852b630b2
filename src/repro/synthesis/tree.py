"""CNOT-tree emission of a Pauli exponential (paper Sec. I, Fig. 1).

``exp(-i angle/2 P)`` over a rooted tree spanning P's support: basis
changes map every operator onto Z, each directed edge ``child -> parent``
becomes a ``CNOT(child, parent)`` with edges deeper in the tree first,
the root receives the accumulated parity and an ``RZ``, and the CNOTs
and basis changes mirror back.  Any tree over the support yields a
correct circuit — the freedom Tetris exploits.  Every compiler emits its
exponentials through :func:`emit_exponential`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import Gate
from .basis_change import post_rotation_gates, pre_rotation_gates


def fan_in(parent: Mapping[int, int], root: int) -> List[Tuple[int, int]]:
    """The tree's ``(child, parent)`` edges in fan-in execution order.

    An edge runs after every edge in its child's subtree, so edges come
    deepest child first; edges at equal depth are independent and are
    ordered by child for determinism.
    """
    depth: Dict[int, int] = {root: 0}
    for node in parent:
        trail = []
        while node not in depth:
            trail.append(node)
            node = parent[node]
        base = depth[node]
        for node in reversed(trail):
            base += 1
            depth[node] = base
    return sorted(parent.items(), key=lambda edge: (-depth[edge[0]], edge[0]))


def emit_exponential(
    circuit: QuantumCircuit,
    ops: Sequence[Tuple[str, int]],
    edges: Sequence[Gate],
    root: int,
    angle: float,
) -> None:
    """Append ``exp(-i angle/2 P)`` to ``circuit``.

    ``ops`` pairs each non-identity operator of P with its qubit (the
    basis-change order), ``edges`` are the fan-in CNOTs in execution
    order (a bridged tree edge contributes its whole chain), and ``root``
    is the qubit that takes the ``RZ``.
    """
    for op, qubit in ops:
        circuit.extend(pre_rotation_gates(op, qubit))
    circuit.extend(edges)
    circuit.rz(angle, root)
    circuit.extend(reversed(edges))
    for op, qubit in ops:
        circuit.extend(post_rotation_gates(op, qubit))
