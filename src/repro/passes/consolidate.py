"""Single-qubit run consolidation into U3 gates.

After cancellation, maximal runs of adjacent single-qubit gates on one wire
are multiplied out and re-emitted as at most one ``U3`` — the IBM-basis
consolidation Qiskit O3 performs.  Identity runs are dropped entirely.

The pass runs over the encoded gate tape, tape in and tape out: run
grouping works on integer code/qubit columns, and the unitary products
are memoized per run *shape* — a run's ZYZ angles depend only on its
``(name, params)`` sequence, and compiled circuits repeat a small
alphabet of such sequences (basis-change sandwiches, mirrored tree
halves) thousands of times.  Only runs of two or more gates read their
parameters to build that key.  Cache hits skip the 2x2 matrix chain
entirely; misses compute it exactly as the scalar reference does, so
emitted angles are bit-for-bit identical.

A symbolic row (a template compile's angle) has no numeric unitary: it
cuts its run into segments, passes through verbatim, and every segment
of the run is emitted in order at the run's flush point, as the scalar
reference (:mod:`repro.passes.reference`) does.  A numeric tape skips
this segment bookkeeping.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..circuit import gate as g
from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import Gate
from ..circuit.tape import (
    CODE_CX,
    CODE_NAMES,
    GATE_CODES,
    PARAM_COUNT,
    GateTape,
)
from ..sim.unitaries import gate_unitary


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


_CODE_U3 = GATE_CODES[g.U3]


@lru_cache(maxsize=4096)
def _unitary_of(name: str, params: Tuple[float, ...]) -> np.ndarray:
    """The (qubit-independent) 2x2 unitary of a 1Q gate."""
    return gate_unitary(Gate(name, (0,), params))


#: One run row as its key bytes: the gate code, then its three
#: parameter lanes (unused lanes are zero).
_RUN_ROW = np.dtype([("code", "u1"), ("params", "<f8", (3,))])


@lru_cache(maxsize=65536)
def _run_angles(run_key: bytes) -> Optional[tuple]:
    """ZYZ angles of a 1Q-gate run (None when it is the identity).

    ``run_key`` is the run's rows packed as :data:`_RUN_ROW` records, so
    equal keys are bit-identical runs.  Same matrix chain as the scalar
    reference — left-multiplied in run order — so the floats match it.
    """
    matrix = np.eye(2, dtype=complex)
    for code, params in np.frombuffer(run_key, dtype=_RUN_ROW).tolist():
        matrix = _unitary_of(
            CODE_NAMES[code], tuple(params[:PARAM_COUNT[code]])
        ) @ matrix
    return _zyz_angles(matrix)


def consolidate_one_qubit_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Collapse each maximal 1Q run into a single U3 (or nothing).

    Tape in, tape out.  A run is flushed where the reference flushes it:
    just before the next non-1Q row on its wire (that row's first wire,
    then its second), or at the end in wire order.  Symbolic rows cut
    a run into segments that are flushed together, in run order.  A
    segment of one gate keeps its row, a longer one becomes one new
    ``u3`` row (or nothing), and every non-1Q row is copied.
    """
    tape = circuit.tape()
    codes = tape.codes
    num_qubits = circuit.num_qubits

    # Wire occurrences in (wire, position) order; ``slot`` says which of
    # its row's wires an occurrence is.
    flat = tape.qubits.ravel()
    present = np.nonzero(flat >= 0)[0]
    order = present[np.argsort(flat[present].astype(np.uint16), kind="stable")]
    position = order >> 1
    slot = order & 1
    wire = flat[order]

    # Runs: maximal stretches of 1Q occurrences on one wire.
    one = codes[position] < CODE_CX
    continues = np.zeros(len(position), dtype=bool)
    continues[1:] = one[1:] & one[:-1] & (wire[1:] == wire[:-1])
    first = one & ~continues
    starts = np.nonzero(first)[0]
    run_of = np.cumsum(first) - 1
    lengths = np.bincount(run_of[one], minlength=len(starts))
    ends = starts + lengths
    run_wire = wire[starts]
    # Where each run is flushed, as (row, rank): before the next row on
    # its wire, in that row's wire order (rank 0 or 1; the row itself
    # ranks 2), or after every row in wire order.
    blocked = ends < len(position)
    blocked[blocked] = wire[ends[blocked]] == run_wire[blocked]
    blocker = np.minimum(ends, len(position) - 1)
    flush_row = np.where(blocked, position[blocker], len(codes))
    flush_rank = np.where(blocked, slot[blocker], run_wire)
    if tape.sym is not None:
        # A symbolic row stands alone and cuts its run into segments
        # that keep the run's flush point; from here on a run is a
        # segment.
        symbolic = tape.sym[position] >= 0
        cut = np.zeros(len(position), dtype=bool)
        cut[1:] = continues[1:] & (symbolic[1:] | symbolic[:-1])
        first |= cut
        segment_run = run_of[first]
        flush_row = flush_row[segment_run]
        flush_rank = flush_rank[segment_run]
        starts = np.nonzero(first)[0]
        run_of = np.cumsum(first) - 1
        lengths = np.bincount(run_of[one], minlength=len(starts))
        run_wire = wire[starts]

    # Runs of two or more gates become one u3 each (none for identity),
    # keyed by their rows packed in run order.
    fused = np.zeros(0, dtype=np.intp)
    u3_params = np.zeros((0, 3))
    long_runs = np.nonzero(lengths > 1)[0]
    if len(long_runs):
        members = position[one & (lengths[run_of] > 1)]
        records = np.empty(len(members), dtype=_RUN_ROW)
        records["code"] = codes[members]
        records["params"] = tape.params[members]
        blob = records.tobytes()
        bounds = (np.cumsum(lengths[long_runs]) * _RUN_ROW.itemsize).tolist()
        angles = [
            _run_angles(blob[low:high])
            for low, high in zip([0] + bounds[:-1], bounds)
        ]
        fused = long_runs[[value is not None for value in angles]]
        u3_params = np.array(
            [value for value in angles if value is not None]
        ).reshape(-1, 3)

    # Emitted items: single-gate runs, fused u3 rows, copied non-1Q rows.
    singles = np.nonzero(lengths == 1)[0]
    kept = position[starts[singles]]
    copied = np.nonzero(codes >= CODE_CX)[0]
    u3_qubits = np.full((len(fused), 2), -1, dtype=np.int32)
    u3_qubits[:, 0] = run_wire[fused]
    item_codes = np.concatenate(
        (codes[kept], np.full(len(fused), _CODE_U3, np.uint8), codes[copied])
    )
    item_qubits = np.concatenate(
        (tape.qubits[kept], u3_qubits, tape.qubits[copied])
    )
    item_params = np.concatenate(
        (tape.params[kept], u3_params, tape.params[copied])
    )
    runs = np.concatenate((singles, fused))
    flush = (
        np.concatenate((flush_row[runs], copied)) * (num_qubits + 2)
        + np.concatenate((flush_rank[runs], np.full(len(copied), 2)))
    )
    item_sym = None
    if tape.sym is not None:
        # The segments of one run share its flush point: run order.
        tiebreak = np.concatenate((runs, np.zeros_like(copied)))
        flush = flush * len(starts) + tiebreak
        item_sym = np.concatenate(
            (tape.sym[kept], np.full(len(fused), -1, np.int32),
             tape.sym[copied])
        )
    out = np.argsort(flush)
    return QuantumCircuit.from_tape(
        GateTape(
            num_qubits, item_codes[out], item_qubits[out], item_params[out],
            name=circuit.name, exprs=tape.exprs,
            sym=None if item_sym is None else item_sym[out],
        )
    )
