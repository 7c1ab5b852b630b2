"""Frozen scalar reference implementations of layout and routing.

Verbatim pre-vectorization copies of ``route_circuit`` and
``greedy_interaction_layout``: the "old" side of
``benchmarks/bench_passes.py`` and the oracle for the randomized
differential tests.  Do not optimize this module.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..circuit import gate as g
from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import Gate
from ..hardware.coupling import CouplingGraph
from .layout import Layout
from .router import RoutingResult

_LOOKAHEAD_WINDOW = 24
_LOOKAHEAD_DECAY = 0.7


def _is_placed(layout: Layout, logical: int) -> bool:
    try:
        layout.physical(logical)
        return True
    except KeyError:
        return False


def route_circuit_reference(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    layout: Optional[Layout] = None,
) -> RoutingResult:
    """Route a logical circuit onto ``coupling``; returns physical circuit."""
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError("circuit wider than the device")
    working = (layout or Layout.trivial(circuit.num_qubits, coupling.num_qubits)).copy()
    initial = working.copy()
    out = QuantumCircuit(coupling.num_qubits, circuit.name)
    num_swaps = 0

    # Precompute the positions of upcoming 2Q gates per logical qubit for
    # the lookahead score.
    upcoming: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for position, gate in enumerate(circuit.gates):
        if gate.name == g.CX or gate.name == g.SWAP:
            a, b = gate.qubits
            upcoming[a].append((position, b))
            upcoming[b].append((position, a))
    cursor: Dict[int, int] = defaultdict(int)
    distance = coupling.distance_matrix()

    def lookahead_cost(logical: int, physical: int, position: int) -> float:
        """Decayed distance from ``physical`` to upcoming partners of ``logical``."""
        total = 0.0
        weight = 1.0
        count = 0
        entries = upcoming[logical]
        start = cursor[logical]
        for index in range(start, len(entries)):
            gate_position, partner = entries[index]
            if gate_position <= position:
                continue
            try:
                partner_physical = working.physical(partner)
            except KeyError:
                continue
            total += weight * distance[physical, partner_physical]
            weight *= _LOOKAHEAD_DECAY
            count += 1
            if count >= _LOOKAHEAD_WINDOW:
                break
        return total

    for position, gate in enumerate(circuit.gates):
        if gate.num_qubits == 1:
            out.append(gate.remapped({gate.qubits[0]: working.physical(gate.qubits[0])}))
            continue
        if gate.name == g.BARRIER:
            continue
        a, b = gate.qubits
        for q in (a, b):
            entries = upcoming[q]
            while cursor[q] < len(entries) and entries[cursor[q]][0] <= position:
                cursor[q] += 1
        pa, pb = working.physical(a), working.physical(b)
        while distance[pa, pb] > 1:
            path = coupling.shortest_path(pa, pb)
            assert path is not None
            # Two candidate moves: advance a's end or b's end one hop.
            move_a = (pa, path[1])
            move_b = (pb, path[-2])
            cost_a = lookahead_cost(a, path[1], position) + lookahead_cost(
                b, pb, position
            )
            cost_b = lookahead_cost(a, pa, position) + lookahead_cost(
                b, path[-2], position
            )
            chosen = move_a if cost_a <= cost_b else move_b
            out.swap(*chosen)
            working.swap_physical(*chosen)
            num_swaps += 1
            pa, pb = working.physical(a), working.physical(b)
        out.append(Gate(gate.name, (pa, pb), gate.params))

    return RoutingResult(
        circuit=out,
        initial_layout=initial,
        final_layout=working,
        num_swaps=num_swaps,
    )


def greedy_interaction_layout_reference(
    num_logical: int,
    coupling: CouplingGraph,
    interactions,
    seed_qubit: Optional[int] = None,
) -> Layout:
    """Place heavily-interacting logical qubits on adjacent physical qubits.

    ``interactions`` is an iterable of ``(a, b)`` logical pairs (duplicates
    increase weight).  Logical qubits are placed in order of interaction
    degree, each next to its most-connected already-placed partner.
    """
    weight: Dict[tuple, int] = {}
    degree = [0] * num_logical
    for a, b in interactions:
        key = (min(a, b), max(a, b))
        weight[key] = weight.get(key, 0) + 1
        degree[a] += 1
        degree[b] += 1

    layout = Layout(num_logical, coupling.num_qubits)
    order = sorted(range(num_logical), key=lambda q: -degree[q])
    if not order:
        return layout
    # Seed: the highest-degree logical qubit on the best-connected physical.
    if seed_qubit is None:
        seed_qubit = max(
            range(coupling.num_qubits),
            key=lambda p: (coupling.degree(p), -p),
        )
    layout.place(order[0], seed_qubit)
    distance = coupling.distance_matrix()
    for logical in order[1:]:
        placed_partners = [
            (weight.get((min(logical, other), max(logical, other)), 0), other)
            for other in range(num_logical)
            if other != logical and _is_placed(layout, other)
        ]
        placed_partners = [(w, o) for w, o in placed_partners if w > 0]
        free = layout.free_physical()
        if not free:
            raise ValueError("no free physical qubits remain")
        if placed_partners:
            # Minimize weighted distance to placed partners.
            def cost(candidate: int) -> float:
                return sum(
                    w * distance[candidate, layout.physical(o)]
                    for w, o in placed_partners
                )

            best = min(free, key=lambda p: (cost(p), p))
        else:
            anchors = [layout.physical(o) for o in range(num_logical)
                       if _is_placed(layout, o)]
            best = min(
                free,
                key=lambda p: (min(distance[p, a] for a in anchors), p),
            )
        layout.place(logical, best)
    return layout
