"""Commutation-aware gate cancellation (the "Qiskit O3" stand-in).

Implements the cancellation rules the paper's evaluation relies on:

- back-to-back self-inverse gates cancel (H-H, X-X, CNOT-CNOT, ...);
- S cancels S†;
- adjacent equal-axis rotations merge (RZ-RZ, RX-RX, ...), vanishing when
  the merged angle is a multiple of 2*pi;
- CNOT pairs cancel through gates that commute with them on each wire:
  diagonal gates (Z, S, S†, RZ) on the control, X/RX on the target, and
  CNOTs sharing the same control (or the same target).

The pass runs left-to-right scans to a fixpoint over the encoded gate
tape (:class:`~repro.circuit.tape.GateTape`), tape in and tape out: the
scan works on plain integer code/qubit columns, and CNOTs whose
(control, target) pair never repeats skip their backward walks.  Each
scan decides exactly whether a successor could change anything, so a
fixpoint usually takes one scan.  A row's rules read only its backward
view, the live rows before it on its wires, so a later scan can fire
only at a row whose view shrank after the scan passed it.  Such a row
is *exposed*, in one of two ways:

- a CNOT pair cancelled across it: it is a live row that one of the
  pair's walks skipped;
- a rotation merge absorbed an exposed row: the survivor now sees what
  its partner saw.

After the scan each surviving exposed row is tested against the
surviving rows with the scan's own rules, and the next scan runs only
if one of them fires.  No :class:`Gate` is built: the output is the
surviving input rows, with merged rotation angles written into the
first parameter column.  Symbolic rotations (template compiles) merge
into their :class:`~repro.circuit.parameter.ParameterExpression` sum,
which gets a new expression-table row; a sum whose terms cancel is a
plain float and reduces like a baked angle.  The output is
gate-for-gate identical to the scalar reference
(:mod:`repro.passes.reference`).

The pass is semantics-preserving; soundness is property-tested against
the statevector simulator, and scalar/vectorized agreement is pinned by
randomized differential tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.parameter import ParameterExpression
from ..circuit.tape import (
    CODE_CX, CODE_MEASURE, GATE_CODES, IS_ADDITIVE, GateTape,
)
from ..circuit import gate as g

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 2.0 * _TWO_PI

#: Additive rotation codes (RX, RY, RZ): same code back-to-back merges.
_ADDITIVE = frozenset(GATE_CODES[name] for name in (g.RX, g.RY, g.RZ))
#: (earlier, later) 1Q code pairs that fire back-to-back on one wire: a
#: self-inverse (H, X, Y, Z) or additive code twice, or S/S† in either
#: order.  Additive pairs merge; the others cancel.
_ONE_QUBIT_RULES = frozenset(
    [(GATE_CODES[name],) * 2
     for name in (g.H, g.X, g.Y, g.Z, g.RX, g.RY, g.RZ)]
    + [(GATE_CODES[g.S], GATE_CODES[g.SDG]),
       (GATE_CODES[g.SDG], GATE_CODES[g.S])]
)
#: Codes diagonal in Z (commute with a CNOT's control).
_DIAGONAL = frozenset(GATE_CODES[name] for name in (g.Z, g.S, g.SDG, g.RZ))
#: Codes that commute with a CNOT's target.
_X_AXIS = frozenset(GATE_CODES[name] for name in (g.X, g.RX))


def cancel_gates(circuit: QuantumCircuit, max_rounds: int = 20) -> QuantumCircuit:
    """Run cancellation scans to a fixpoint (at most ``max_rounds``) and
    return the reduced, tape-backed circuit."""
    tape = circuit.tape()
    codes = tape.codes.astype(np.int64)
    q0 = tape.qubits[:, 0].astype(np.int64)
    q1 = tape.qubits[:, 1].astype(np.int64)
    # Surviving rows of the input tape, and the merged first angle of
    # each (merges only ever rewrite a single-parameter rotation).
    rows = np.arange(len(codes))
    params0 = tape.params[:, 0].tolist()
    if tape.sym is not None:
        # A symbolic rotation's angle is its expression.
        symbolic = np.nonzero((tape.sym >= 0) & IS_ADDITIVE[tape.codes])[0]
        for row, entry in zip(symbolic.tolist(), tape.sym[symbolic].tolist()):
            params0[row] = tape.exprs[entry][0]

    for _ in range(max_rounds):
        alive, again = _cancel_scan(
            codes.tolist(), q0.tolist(), q1.tolist(), params0,
            _cx_twins(codes, q0, q1), circuit.num_qubits,
        )
        if alive is None:
            break
        mask = np.array(alive, dtype=bool)
        codes = codes[mask]
        q0 = q0[mask]
        q1 = q1[mask]
        rows = rows[mask]
        params0 = list(compress(params0, alive))
        if not again:
            break

    codes = tape.codes[rows]
    params = tape.params[rows]
    sym, exprs = None, tape.exprs
    if tape.sym is not None:
        # Each symbolic rotation, merged or not, points at a new table
        # row; one whose terms cancelled holds a float and is numeric.
        sym = tape.sym[rows]
        sym[IS_ADDITIVE[codes]] = -1
        exprs = list(exprs)
        for index, angle in enumerate(params0):
            if isinstance(angle, ParameterExpression):
                sym[index] = len(exprs)
                exprs.append((angle,))
                params0[index] = 0.0
        exprs = tuple(exprs)
    if len(rows):
        params[:, 0] = params0
    return QuantumCircuit.from_tape(
        GateTape(
            circuit.num_qubits, codes, tape.qubits[rows], params,
            name=circuit.name, sym=sym, exprs=exprs,
        )
    )


def _cx_twins(codes: np.ndarray, q0: np.ndarray, q1: np.ndarray) -> List[bool]:
    """Per-row mask of the CNOTs whose (control, target) pair occurs at
    least twice.  A CNOT with a unique pair has no twin anywhere, so the
    scan skips its walks."""
    mask = np.zeros(len(codes), dtype=bool)
    cx_positions = np.nonzero(codes == CODE_CX)[0]
    if len(cx_positions) >= 2:
        span = int(q1.max()) + 2
        keys = q0[cx_positions] * span + q1[cx_positions]
        _, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        mask[cx_positions] = counts[inverse] >= 2
    return mask.tolist()


def _cancel_scan(
    codes: List[int],
    q0: List[int],
    q1: List[int],
    params0: List,
    twins: List[bool],
    num_qubits: int,
) -> Tuple[Optional[List[bool]], bool]:
    """One left-to-right scan over integer columns (reference semantics).

    Returns ``(alive, again)``: each row's liveness after the scan
    (None when nothing fired), and whether another scan would fire.

    A rule reads only the codes and wires of the live rows before its
    row, so where the next scan first fires, its row sees what this scan
    showed it unless a row before it died after this scan passed it, or
    it survived a merge.  Only a CNOT cancellation kills a row behind a
    live one (a 1Q pair has nothing live between its members), so the
    scan marks each live row either walk skipped.  A merge survivor sees
    what its partner saw, which the partner did not fire against, so it
    takes its partner's mark.  Self-inverse pairs, S/S† pairs and merges
    to the identity leave no survivor, and rows scanned after a death
    already see it.  Testing the marked survivors with the same rules
    therefore decides exactly whether the next scan changes a gate.
    """
    alive = [True] * len(codes)
    # Per-wire rows in scan order; every live row stays listed.
    occurrences: List[List[int]] = [[] for _ in range(num_qubits)]
    changed = False
    exposed = set()
    one_qubit_rules = _ONE_QUBIT_RULES
    additive = _ADDITIVE
    diagonal = _DIAGONAL
    x_axis = _X_AXIS
    code_cx = CODE_CX
    code_measure = CODE_MEASURE

    for position, code in enumerate(codes):
        if code < code_cx:
            # 1Q gate: try to cancel or merge against the last live gate
            # on its wire (popping dead entries off the wire list).
            wire = occurrences[q0[position]]
            while wire and not alive[wire[-1]]:
                wire.pop()
            if wire:
                previous = wire[-1]
                if (codes[previous], code) in one_qubit_rules:
                    alive[previous] = False
                    changed = True
                    if code not in additive:
                        alive[position] = False
                        continue
                    angle = params0[previous] + params0[position]
                    # A symbolic sum stays unreduced.
                    if not isinstance(angle, ParameterExpression):
                        angle %= _FOUR_PI
                        residual = angle % _TWO_PI
                        if min(residual, _TWO_PI - residual) < 1e-12:
                            # Merged to (-)identity: both gates drop.
                            alive[position] = False
                            continue
                    params0[position] = angle
                    if previous in exposed:
                        exposed.add(position)
            wire.append(position)
            continue
        if code >= code_measure:
            # measure / reset / barrier: blockers, indexed only.
            wire_index = q0[position]
            if wire_index >= 0:
                occurrences[wire_index].append(position)
                wire_index = q1[position]
                if wire_index >= 0:
                    occurrences[wire_index].append(position)
            continue
        control = q0[position]
        target = q1[position]
        if twins[position]:
            # Walk back along the control wire, skipping gates that
            # commute through a CNOT's control, looking for a twin.
            # ``_fires`` repeats these walks; a shared helper would cost
            # a call per CNOT here.
            match = None
            for previous in reversed(occurrences[control]):
                if not alive[previous]:
                    continue
                previous_code = codes[previous]
                if previous_code == code_cx:
                    if q0[previous] == control:
                        if q1[previous] == target:
                            match = previous
                        else:
                            continue
                    break
                if previous_code in diagonal:
                    continue
                break
            if match is not None:
                # Same walk along the target wire; cancel on agreement.
                for previous in reversed(occurrences[target]):
                    if not alive[previous]:
                        continue
                    previous_code = codes[previous]
                    if previous_code == code_cx:
                        if previous == match:
                            alive[match] = False
                            alive[position] = False
                            changed = True
                            # The live rows either walk skipped now see
                            # past the pair.
                            for wire in (
                                occurrences[control], occurrences[target]
                            ):
                                for skipped in reversed(wire):
                                    if skipped == match:
                                        break
                                    if alive[skipped]:
                                        exposed.add(skipped)
                            match = -1
                        elif q1[previous] == target and (
                            q0[previous] != control
                        ):
                            continue
                        break
                    if previous_code in x_axis:
                        continue
                    break
                if match == -1:
                    continue
        occurrences[control].append(position)
        occurrences[target].append(position)

    if not changed:
        return None, False
    for position in exposed:
        if alive[position] and _fires(
            position, codes, q0, q1, alive, occurrences
        ):
            return alive, True
    return alive, False


def _fires(
    position: int,
    codes: List[int],
    q0: List[int],
    q1: List[int],
    alive: List[bool],
    occurrences: List[List[int]],
) -> bool:
    """Whether the scan's rules fire at live exposed row ``position``
    (a 1Q gate or a CNOT) against the live rows before it: what the next
    scan does there when nothing fired earlier in it.  The CNOT walks
    are the scan's, row for row."""
    code = codes[position]
    if code < CODE_CX:
        for previous in _rows_before(occurrences[q0[position]], position):
            if alive[previous]:
                return (codes[previous], code) in _ONE_QUBIT_RULES
        return False
    control = q0[position]
    target = q1[position]
    match = None
    for previous in _rows_before(occurrences[control], position):
        if not alive[previous]:
            continue
        previous_code = codes[previous]
        if previous_code == CODE_CX:
            if q0[previous] == control:
                if q1[previous] == target:
                    match = previous
                    break
                continue
            return False
        if previous_code in _DIAGONAL:
            continue
        return False
    if match is None:
        return False
    for previous in _rows_before(occurrences[target], position):
        if not alive[previous]:
            continue
        previous_code = codes[previous]
        if previous_code == CODE_CX:
            if previous == match:
                return True
            if q1[previous] == target and q0[previous] != control:
                continue
            return False
        if previous_code in _X_AXIS:
            continue
        return False
    return False


def _rows_before(wire: List[int], position: int) -> Iterator[int]:
    """The rows listed before ``position`` on a wire, latest first.

    Walks by index, so a caller that stops early pays only for the rows
    it reads, not for the wire's tail after ``position``."""
    return (wire[i] for i in range(bisect_left(wire, position) - 1, -1, -1))
