"""Frozen scalar reference implementations of the peephole passes.

Verbatim copies of ``cancel_gates`` and ``consolidate_one_qubit_runs``
as they stood before the encoded-tape vectorization.  They serve two
purposes: the "old" side of ``benchmarks/bench_passes.py``'s
old-vs-new wall-clock cells, and the oracle for the randomized
differential tests in ``tests/test_vectorized_passes.py``, symbolic
angles included.  Do not optimize this module.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Optional

import numpy as np

from ..circuit import gate as g
from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import Gate
from ..circuit.parameter import is_symbolic
from ..sim.unitaries import gate_unitary

_TWO_PI = 2.0 * math.pi

#: Gates diagonal in the Z basis: commute with a CNOT's control.
_DIAGONAL = frozenset({g.Z, g.S, g.SDG, g.RZ})

#: Gates that commute with a CNOT's target.
_X_AXIS = frozenset({g.X, g.RX})


class _WireIndex:
    """Per-wire occurrence lists over a gate array with liveness flags."""

    def __init__(self, num_qubits: int) -> None:
        self.occurrences: List[List[int]] = [[] for _ in range(num_qubits)]

    def push(self, index: int, qubits) -> None:
        for qubit in qubits:
            self.occurrences[qubit].append(index)


def _merge_rotations(kept: Gate, new: Gate) -> Optional[Gate]:
    """Merge two same-axis rotations; None means they cancel entirely."""
    angle = kept.params[0] + new.params[0]
    if is_symbolic(angle):
        # A symbolic sum keeps its unreduced linear form; structurally
        # cancelling sums (w*theta - w*theta) degrade to a plain float
        # in ParameterExpression arithmetic and take the numeric path
        # below, matching what baked angles would do.
        return Gate(kept.name, kept.qubits, (angle,))
    angle %= 2.0 * _TWO_PI
    # A rotation by 2*pi equals -identity (global phase): safe to drop.
    if min(angle % _TWO_PI, _TWO_PI - (angle % _TWO_PI)) < 1e-12:
        return None
    return Gate(kept.name, kept.qubits, (angle,))


def cancel_gates_reference(
    circuit: QuantumCircuit, max_rounds: int = 20
) -> QuantumCircuit:
    """Run cancellation rounds to a fixpoint and return the reduced circuit."""
    gates = list(circuit.gates)
    for _ in range(max_rounds):
        gates, changed = _cancel_round(gates, circuit.num_qubits)
        if not changed:
            break
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    out.gates = gates
    return out


def _cancel_round(gates: List[Gate], num_qubits: int):
    alive = [True] * len(gates)
    index = _WireIndex(num_qubits)
    changed = False

    for position, gate in enumerate(gates):
        if gate.name == g.BARRIER:
            index.push(position, gate.qubits)
            continue
        if gate.name in (g.MEASURE, g.RESET):
            index.push(position, gate.qubits)
            continue
        if gate.is_one_qubit():
            if _try_cancel_one_qubit(gates, alive, index, position, gate):
                changed = True
                continue
        elif gate.name == g.CX:
            if _try_cancel_cnot(gates, alive, index, position, gate):
                changed = True
                continue
        index.push(position, gate.qubits)

    if not changed:
        return gates, False
    return [gate for keep, gate in zip(alive, gates) if keep], True


def _last_alive(gates, alive, occurrences) -> Optional[int]:
    """Pop dead entries off the wire list; return the last live index."""
    while occurrences and not alive[occurrences[-1]]:
        occurrences.pop()
    return occurrences[-1] if occurrences else None


def _try_cancel_one_qubit(gates, alive, index, position, gate) -> bool:
    wire = index.occurrences[gate.qubits[0]]
    previous = _last_alive(gates, alive, wire)
    if previous is None:
        return False
    other = gates[previous]
    if not other.is_one_qubit() or other.qubits != gate.qubits:
        return False
    if other.cancels_with(gate):
        alive[previous] = False
        alive[position] = False
        return True
    if gate.name in g.ADDITIVE and other.name == gate.name:
        merged = _merge_rotations(other, gate)
        alive[previous] = False
        if merged is None:
            alive[position] = False
        else:
            gates[position] = merged
            index.push(position, gate.qubits)
        return True
    return False


def _scan_back_for_cnot(gates, alive, occurrences, gate, wire_role: str) -> Optional[int]:
    """Walk back along one wire, skipping commuting gates, to find a twin CNOT.

    ``wire_role`` is "control" or "target": which pin of ``gate`` this wire is.
    Returns the index of the matching CNOT, or None if a blocker appears.
    """
    control, target = gate.qubits
    for entry in range(len(occurrences) - 1, -1, -1):
        previous = occurrences[entry]
        if not alive[previous]:
            continue
        other = gates[previous]
        if other.name == g.CX and other.qubits == gate.qubits:
            return previous
        if wire_role == "control":
            if other.is_one_qubit() and other.name in _DIAGONAL:
                continue
            if other.name == g.CX and other.qubits[0] == control:
                continue
        else:
            if other.is_one_qubit() and other.name in _X_AXIS:
                continue
            if other.name == g.CX and other.qubits[1] == target:
                continue
        return None
    return None


def _try_cancel_cnot(gates, alive, index, position, gate) -> bool:
    control, target = gate.qubits
    match_control = _scan_back_for_cnot(
        gates, alive, index.occurrences[control], gate, "control"
    )
    if match_control is None:
        return False
    match_target = _scan_back_for_cnot(
        gates, alive, index.occurrences[target], gate, "target"
    )
    if match_target != match_control:
        return False
    alive[match_control] = False
    alive[position] = False
    return True


def _zyz_angles(matrix: np.ndarray) -> Optional[tuple]:
    """ZYZ (u3) angles of a 2x2 unitary, or None if it is the identity."""
    determinant = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
    special = matrix / cmath.sqrt(determinant)
    a, b = special[0, 0], special[1, 0]
    theta = 2.0 * math.atan2(abs(b), abs(a))
    if abs(a) > 1e-12:
        sum_half = -cmath.phase(a)
    else:
        sum_half = 0.0
    if abs(b) > 1e-12:
        diff_half = cmath.phase(b)
    else:
        diff_half = 0.0
    phi = sum_half + diff_half
    lam = sum_half - diff_half
    if abs(theta) < 1e-12:
        residual = (phi + lam) % (2 * math.pi)
        if min(residual, 2 * math.pi - residual) < 1e-12:
            return None
    return theta, phi, lam


def consolidate_one_qubit_runs_reference(circuit: QuantumCircuit) -> QuantumCircuit:
    """Collapse each maximal 1Q run into a single U3 (or nothing)."""
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    pending: List[Optional[List[Gate]]] = [None] * circuit.num_qubits

    def emit(segment: List[Gate]) -> None:
        """Emit one numeric-only run segment: verbatim when length 1,
        otherwise multiplied out into at most one U3."""
        if not segment:
            return
        if len(segment) == 1:
            out.gates.append(segment[0])
            return
        matrix = np.eye(2, dtype=complex)
        for gate in segment:
            matrix = gate_unitary(gate) @ matrix
        angles = _zyz_angles(matrix)
        if angles is not None:
            out.gates.append(Gate(g.U3, segment[0].qubits, angles))

    def flush(qubit: int) -> None:
        run = pending[qubit]
        pending[qubit] = None
        if not run:
            return
        # Symbolic gates have no numeric unitary: they split the run and
        # pass through verbatim, so binding the template later yields
        # exactly this structure regardless of the angle values.
        segment: List[Gate] = []
        for gate in run:
            if gate.is_parameterized():
                emit(segment)
                segment = []
                out.gates.append(gate)
            else:
                segment.append(gate)
        emit(segment)

    for gate in circuit.gates:
        if gate.is_one_qubit():
            qubit = gate.qubits[0]
            if pending[qubit] is None:
                pending[qubit] = []
            pending[qubit].append(gate)
            continue
        for qubit in gate.qubits:
            flush(qubit)
        out.gates.append(gate)
    for qubit in range(circuit.num_qubits):
        flush(qubit)
    return out
