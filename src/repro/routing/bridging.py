"""Fast CNOT bridging through |0> ancilla qubits (paper Sec. IV-C).

To apply ``CNOT(c, t)`` between distant qubits when every interior node of a
connecting path is a free qubit in |0>, emit the forward chain::

    CNOT(c, b1), CNOT(b1, b2), ..., CNOT(bk, t)

Each ancilla then holds (a copy of the parity of) the control; because Pauli
exponential circuits mirror their CNOT fan-in, emitting the *reversed* chain
after the rotation both applies the mirrored logical CNOT and restores every
ancilla to |0> (deferred un-compute, Fig. 8(b)/(c)).

:func:`bridge_chain_gates` is the one bridge chain, and only the QAOA
pass ``synth-qaoa-reuse`` emits through it: Tetris blocks do not bridge
(every tree edge is one CNOT on a coupled pair).  Correctness is tested
in ``tests/test_routing.py`` against the statevector simulator.
"""

from __future__ import annotations

from typing import List, Sequence

from ..circuit import gate as g
from ..circuit.gate import Gate


def bridge_chain_gates(path: Sequence[int]) -> List[Gate]:
    """Forward bridge CNOTs along ``path`` (control first, target last)."""
    if len(path) < 2:
        raise ValueError("a bridge path needs at least two nodes")
    return [
        Gate(g.CX, (path[index], path[index + 1]))
        for index in range(len(path) - 1)
    ]


def bridged_cnot_cost(path_length: int) -> int:
    """CNOTs for one bridged logical CNOT, forward + mirrored (2 per hop)."""
    return 2 * path_length


def swap_route_cost(path_length: int) -> int:
    """CNOTs for the same logical CNOT pair via SWAPs: 3 per SWAP + 2 CNOTs.

    Moving one endpoint ``path_length - 1`` hops costs that many SWAPs; the
    mirrored CNOT reuses the moved position, so only the SWAPs plus the two
    logical CNOTs count.
    """
    return 3 * (path_length - 1) + 2

