"""Commutation-aware gate cancellation (the "Qiskit O3" stand-in).

Implements the cancellation rules the paper's evaluation relies on:

- back-to-back self-inverse gates cancel (H-H, X-X, CNOT-CNOT, ...);
- S cancels S†;
- adjacent equal-axis rotations merge (RZ-RZ, RX-RX, ...), vanishing when
  the merged angle is a multiple of 2*pi;
- CNOT pairs cancel through gates that commute with them on each wire:
  diagonal gates (Z, S, S†, RZ) on the control, X/RX on the target, and
  CNOTs sharing the same control (or the same target).

The pass runs to a fixpoint over the encoded gate tape
(:class:`~repro.circuit.tape.GateTape`), tape in and tape out: the scan
works on plain integer code/qubit columns, and each round is preceded
by a vectorized candidate check over the wire-occurrence table — a
round whose static occurrence pairs admit no cancellation is skipped
outright, which in particular eliminates the final no-op verification
round of every fixpoint.  No :class:`Gate` is built: the output is the
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
from typing import List, Optional, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.parameter import ParameterExpression
from ..circuit.tape import (
    CODE_CX, CODE_MEASURE, GATE_CODES, IS_ADDITIVE, GateTape,
)
from ..circuit import gate as g

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 2.0 * _TWO_PI

#: 1Q self-inverse codes (H, X, Y, Z): same code back-to-back cancels.
_SELF_INVERSE_1Q = frozenset(
    GATE_CODES[name] for name in (g.H, g.X, g.Y, g.Z)
)
#: Additive rotation codes (RX, RY, RZ): same code back-to-back merges.
_ADDITIVE = frozenset(GATE_CODES[name] for name in (g.RX, g.RY, g.RZ))
#: Mutual-inverse 1Q code pairs (S/S†, either order).
_INVERSE_PAIRS = frozenset(
    {(GATE_CODES[g.S], GATE_CODES[g.SDG]), (GATE_CODES[g.SDG], GATE_CODES[g.S])}
)
#: Codes diagonal in Z (commute with a CNOT's control).
_DIAGONAL = frozenset(GATE_CODES[name] for name in (g.Z, g.S, g.SDG, g.RZ))
#: Codes that commute with a CNOT's target.
_X_AXIS = frozenset(GATE_CODES[name] for name in (g.X, g.RX))

#: Per-code table for the round pre-check: codes where an adjacent
#: same-code pair on one wire guarantees a cancellation or merge.
_PAIR_CANCELS = np.zeros(len(GATE_CODES), dtype=bool)
for _code in _SELF_INVERSE_1Q | _ADDITIVE:
    _PAIR_CANCELS[_code] = True

_CODE_S = GATE_CODES[g.S]
_CODE_SDG = GATE_CODES[g.SDG]


def cancel_gates(circuit: QuantumCircuit, max_rounds: int = 20) -> QuantumCircuit:
    """Run cancellation rounds to a fixpoint and return the reduced,
    tape-backed circuit."""
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
        positions, cx_candidates = _round_candidates(
            codes, q0, q1, circuit.num_qubits
        )
        if positions is None:
            break
        alive, changed = _cancel_round(
            codes.tolist(), q0.tolist(), q1.tolist(), params0,
            positions, cx_candidates, circuit.num_qubits,
        )
        if not changed:
            break
        mask = np.array(alive, dtype=bool)
        codes = codes[mask]
        q0 = q0[mask]
        q1 = q1[mask]
        rows = rows[mask]
        params0 = [p for keep, p in zip(alive, params0) if keep]

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


def _round_candidates(
    codes: np.ndarray, q0: np.ndarray, q1: np.ndarray, num_qubits: int
) -> Tuple[Optional[List[int]], Optional[List[bool]]]:
    """Vectorized candidate analysis over the static wire-occurrence table.

    Returns ``(positions, cx_candidates)``: the positions the scalar
    round must visit, and a per-position mask of CNOTs whose
    (control, target) pair repeats — a CNOT with a unique pair has no
    twin anywhere, so its backward scans are skipped (None when no CNOT
    repeats).

    A round only changes liveness through a statically adjacent 1Q pair
    on one wire that cancels/merges, or a repeated (control, target)
    CNOT pair.  Call a wire *active* when it carries either shape; every
    death, merge, and newly exposed adjacency then stays confined to
    active wires, so a gate touching no active wire provably survives
    with its occurrence lists never consulted — the scan visits only
    gates pinned to an active wire.  ``positions`` is None when no wire
    is active: the round is a no-op and ``cancel_gates`` skips it
    outright, including the final verification round of every fixpoint.
    """
    n = len(codes)
    if n < 2:
        return None, None
    # One extra slot so the -1 padding of 1Q rows indexes a fixed False.
    wire_active = np.zeros(num_qubits + 1, dtype=bool)
    has_q0 = q0 >= 0
    has_q1 = q1 >= 0
    wires = np.concatenate([q0[has_q0], q1[has_q1]])
    positions = np.concatenate([np.nonzero(has_q0)[0], np.nonzero(has_q1)[0]])
    order = np.lexsort((positions, wires))
    wire_sorted = wires[order]
    pos_sorted = positions[order]
    if len(pos_sorted) >= 2:
        same_wire = wire_sorted[1:] == wire_sorted[:-1]
        earlier = codes[pos_sorted[:-1]]
        later = codes[pos_sorted[1:]]
        candidate = same_wire & (
            ((earlier == later) & _PAIR_CANCELS[earlier])
            | ((earlier == _CODE_S) & (later == _CODE_SDG))
            | ((earlier == _CODE_SDG) & (later == _CODE_S))
        )
        wire_active[wire_sorted[:-1][candidate]] = True
    cx_candidates: Optional[List[bool]] = None
    cx_positions = np.nonzero(codes == CODE_CX)[0]
    if len(cx_positions) >= 2:
        span = int(q1.max()) + 2
        keys = q0[cx_positions] * span + q1[cx_positions]
        _, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        repeated = counts[inverse] >= 2
        if repeated.any():
            mask = np.zeros(n, dtype=bool)
            mask[cx_positions] = repeated
            cx_candidates = mask.tolist()
            twins = cx_positions[repeated]
            wire_active[q0[twins]] = True
            wire_active[q1[twins]] = True
    if not wire_active.any():
        return None, None
    visit = wire_active[q0] | wire_active[q1]
    return np.nonzero(visit)[0].tolist(), cx_candidates


def _cancel_round(
    codes: List[int],
    q0: List[int],
    q1: List[int],
    params0: List,
    positions: List[int],
    cx_candidates: Optional[List[bool]],
    num_qubits: int,
) -> Tuple[List[bool], bool]:
    """One left-to-right scan over integer columns (reference semantics).

    Visits only ``positions`` (gates pinned to an active wire, in
    order); every other gate survives untouched and its occurrence
    lists are never consulted, so skipping it is exact.
    """
    alive = [True] * len(codes)
    occurrences: List[List[int]] = [[] for _ in range(num_qubits)]
    changed = False
    self_inverse = _SELF_INVERSE_1Q
    additive = _ADDITIVE
    inverse_pairs = _INVERSE_PAIRS
    diagonal = _DIAGONAL
    x_axis = _X_AXIS
    code_cx = CODE_CX
    code_measure = CODE_MEASURE

    for position in positions:
        code = codes[position]
        if code < code_cx:
            # 1Q gate: try to cancel or merge against the last live gate
            # on its wire (popping dead entries off the wire list).
            wire_index = q0[position]
            wire = occurrences[wire_index]
            while wire and not alive[wire[-1]]:
                wire.pop()
            if wire:
                previous = wire[-1]
                previous_code = codes[previous]
                if previous_code == code:
                    if code in self_inverse:
                        alive[previous] = False
                        alive[position] = False
                        changed = True
                        continue
                    if code in additive:
                        angle = params0[previous] + params0[position]
                        alive[previous] = False
                        changed = True
                        # A symbolic sum stays unreduced.
                        if not isinstance(angle, ParameterExpression):
                            angle %= _FOUR_PI
                            residual = angle % _TWO_PI
                            if min(residual, _TWO_PI - residual) < 1e-12:
                                # Merged to (-)identity: both gates drop.
                                alive[position] = False
                                continue
                        params0[position] = angle
                        wire.append(position)
                        continue
                elif (previous_code, code) in inverse_pairs:
                    alive[previous] = False
                    alive[position] = False
                    changed = True
                    continue
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
        if code == code_cx and (
            cx_candidates is None or cx_candidates[position]
        ):
            # Walk back along the control wire, skipping gates that
            # commute through a CNOT's control, looking for a twin.
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

    return alive, changed
