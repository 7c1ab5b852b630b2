"""A SABRE-style sequential SWAP router.

Used by the hardware-oblivious baselines (T|Ket>-like, PCOAST-like,
max_cancel) that first build a logical circuit and then solve connectivity.
The router walks the circuit in order; when a CNOT's qubits are not
coupled it moves one endpoint along a path, choosing the endpoint (and
path) that also helps upcoming gates within a lookahead window.

One loop serves both routers.  :func:`route_circuit` scores by hop
distance and follows :meth:`~repro.hardware.coupling.CouplingGraph.
shortest_path`; :func:`route_circuit_noise` scores by the calibration's
log-infidelity distance and follows its highest-fidelity
:meth:`~repro.hardware.calibration.Calibration.noise_path`.

The loop reads only the circuit's ``(code, q0, q1)`` columns and plans
the output as rows: an input row on new wires, or a SWAP.  The output is
a tape with the input's parameter rows (symbolic ones included) gathered
and SWAP rows inline.  Barriers on two or more wires are dropped, so a
wider barrier, which the tape holds as a chain of two-wire barriers,
drops whole.  Upcoming partners per logical qubit are prebuilt columns
and each lookahead
window is one gather from the distance rows; the decayed accumulation
stays a sequential Python-float loop, because scoring must reproduce the
scalar reference (:mod:`repro.routing.reference`) bit-for-bit and
pairwise numpy sums would not.

The emitted circuit is over *physical* wires; SWAPs are recorded as SWAP
gates so downstream accounting can attribute their 3 CNOTs each.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..circuit import gate as g
from ..circuit.circuit import QuantumCircuit
from ..circuit.tape import CODE_CX, CODE_SWAP, GATE_CODES, IS_TWO_QUBIT, GateTape
from ..hardware.coupling import CouplingGraph
from .layout import Layout

_LOOKAHEAD_WINDOW = 24
_LOOKAHEAD_DECAY = 0.7
#: The window's decay weights, multiplied out in the reference's order.
_LOOKAHEAD_WEIGHTS = [1.0]
for _ in range(_LOOKAHEAD_WINDOW - 1):
    _LOOKAHEAD_WEIGHTS.append(_LOOKAHEAD_WEIGHTS[-1] * _LOOKAHEAD_DECAY)
_CODE_BARRIER = GATE_CODES[g.BARRIER]


@dataclass
class RoutingResult:
    """A routed physical circuit plus SWAP accounting."""

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    @property
    def swap_cnots(self) -> int:
        return 3 * self.num_swaps


def route_circuit(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    layout: Optional[Layout] = None,
) -> RoutingResult:
    """Route a logical circuit onto ``coupling``; returns physical circuit."""
    return _route(
        circuit, coupling, layout, coupling.distance_rows(),
        coupling.shortest_path,
    )


def route_circuit_noise(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    calibration,
    layout: Optional[Layout] = None,
) -> RoutingResult:
    """SABRE-style routing scored by log-infidelity instead of hop count.

    The :func:`route_circuit` loop with two substitutions: the distance
    rows are the calibration's noise-distance matrix (``-log(1-p)`` edge
    weights, so "closer" means "connected by better couplers"), and each
    uncoupled CNOT advances along the *highest-fidelity* path rather
    than the fewest-hop path.
    """
    return _route(
        circuit, coupling, layout,
        calibration.noise_distance_matrix().tolist(), calibration.noise_path,
    )


def _route(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    layout: Optional[Layout],
    distance: List[List[float]],
    path_of: Callable[[int, int], Optional[List[int]]],
) -> RoutingResult:
    """The routing loop shared by both routers (see module docstring)."""
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError("circuit wider than the device")
    working = (layout or Layout.trivial(circuit.num_qubits, coupling.num_qubits)).copy()
    initial = working.copy()
    num_logical = circuit.num_qubits
    tape = circuit.tape()
    codes, qubits = tape.codes, tape.qubits

    # Per-logical columns of upcoming 2Q rows (position-sorted) for the
    # lookahead score.
    two = np.nonzero((codes == CODE_CX) | (codes == CODE_SWAP))[0]
    ends = np.concatenate((qubits[two, 0], qubits[two, 1]))
    order = np.lexsort((np.concatenate((two, two)), ends))
    positions = np.concatenate((two, two))[order].tolist()
    partners = np.concatenate((qubits[two, 1], qubits[two, 0]))[order].tolist()
    bounds = np.searchsorted(ends[order], np.arange(num_logical + 1)).tolist()
    upcoming_pos = [
        positions[bounds[q]:bounds[q + 1]] for q in range(num_logical)
    ]
    upcoming_partner = [
        partners[bounds[q]:bounds[q + 1]] for q in range(num_logical)
    ]

    # Live logical -> physical map (-1: unplaced) mirroring ``working``.
    phys = [-1] * num_logical
    log_of = [-1] * coupling.num_qubits
    for logical in range(num_logical):
        try:
            physical = working.physical(logical)
        except KeyError:
            continue
        phys[logical] = physical
        log_of[physical] = logical

    def window_partners(logical: int, position: int) -> List[int]:
        """Physical positions of the next partners of ``logical`` after
        ``position`` (at most the lookahead window).  Routing never
        places a qubit, so an unplaced partner raises KeyError at its own
        row before the route can finish."""
        start = bisect_right(upcoming_pos[logical], position)
        return [
            phys[p]
            for p in upcoming_partner[logical][start:start + _LOOKAHEAD_WINDOW]
        ]

    def lookahead_cost(partner_physicals: List[int], physical: int) -> float:
        """Decayed distance from ``physical`` to each partner — a
        sequential Python-float sum, IEEE-identical to the reference's
        numpy-scalar accumulation."""
        row = distance[physical]
        total = 0.0
        for weight, partner in zip(_LOOKAHEAD_WEIGHTS, partner_physicals):
            total += weight * row[partner]
        return total

    # Output plan: the input row each output row copies (-1: a SWAP) and
    # its physical wires.
    out_rows: List[int] = []
    out_q0: List[int] = []
    out_q1: List[int] = []
    num_swaps = 0
    connected = coupling.are_connected
    for position, (code, a, b) in enumerate(
        zip(codes.tolist(), qubits[:, 0].tolist(), qubits[:, 1].tolist())
    ):
        if b < 0:
            if a < 0:
                continue  # a barrier on no wire
            physical = phys[a]
            if physical < 0:
                raise KeyError(a)
            out_rows.append(position)
            out_q0.append(physical)
            out_q1.append(-1)
            continue
        if code == _CODE_BARRIER:
            continue
        pa, pb = phys[a], phys[b]
        if pa < 0 or pb < 0:
            raise KeyError(a if pa < 0 else b)
        while not connected(pa, pb):
            path = path_of(pa, pb)
            if path is None:
                raise ValueError(
                    f"no path between physical qubits {pa} and {pb}"
                )
            # Two candidate moves: advance a's end or b's end one hop.
            # Both scores share each endpoint's partner window.
            partners_a = window_partners(a, position)
            partners_b = window_partners(b, position)
            cost_a = lookahead_cost(partners_a, path[1]) + lookahead_cost(
                partners_b, pb
            )
            cost_b = lookahead_cost(partners_a, pa) + lookahead_cost(
                partners_b, path[-2]
            )
            first, second = (pa, path[1]) if cost_a <= cost_b else (pb, path[-2])
            out_rows.append(-1)
            out_q0.append(first)
            out_q1.append(second)
            working.swap_physical(first, second)
            la, lb = log_of[first], log_of[second]
            if la >= 0:
                phys[la] = second
            if lb >= 0:
                phys[lb] = first
            log_of[first], log_of[second] = lb, la
            num_swaps += 1
            pa, pb = phys[a], phys[b]
        out_rows.append(position)
        out_q0.append(pa)
        out_q1.append(pb)

    # The routed tape: input rows on their new wires, SWAP rows inline.
    rows = np.array(out_rows, dtype=np.intp)
    swap = rows < 0
    routed = GateTape(
        coupling.num_qubits,
        np.where(swap, CODE_SWAP, tape.codes[rows]),
        np.stack((np.array(out_q0, dtype=np.int32),
                  np.array(out_q1, dtype=np.int32)), axis=1),
        np.where(swap[:, None], 0.0, tape.params[rows]),
        name=circuit.name,
        sym=None if tape.sym is None else np.where(swap, -1, tape.sym[rows]),
        exprs=tape.exprs,
    )
    return RoutingResult(
        circuit=QuantumCircuit.from_tape(routed),
        initial_layout=initial,
        final_layout=working,
        num_swaps=num_swaps,
    )


def verify_hardware_compliant(circuit: QuantumCircuit, coupling: CouplingGraph) -> bool:
    """True iff every CX and SWAP acts on a coupled physical pair.

    Reads the CX and SWAP rows of :meth:`QuantumCircuit.structure`; a
    barrier is not a gate, so it is not checked however many wires it
    spans.  A SWAP's three CNOTs sit on the SWAP's own pair, so checking
    the SWAP checks them.
    """
    codes, qubits = circuit.structure()
    pairs = np.unique(qubits[IS_TWO_QUBIT[codes]], axis=0)
    return all(coupling.are_connected(a, b) for a, b in pairs.tolist())
