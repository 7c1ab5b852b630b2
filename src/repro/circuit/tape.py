"""The encoded gate tape: a circuit as structured numpy columns.

A :class:`GateTape` holds a gate sequence as one ``uint8`` gate-code
column, an ``int32 [N, 2]`` qubit block (``-1`` padding for 1Q/0Q
operations) and a ``float64 [N, 3]`` parameter block (``u3`` uses all
three lanes, rotations the first).  Encoding is exact and reversible —
:meth:`GateTape.decode` reproduces the original gate list gate-for-gate,
which the randomized round-trip tests pin down.

From the first pass after synthesis through the metrics, a compile's
circuit *is* a tape: :meth:`QuantumCircuit.from_tape
<repro.circuit.circuit.QuantumCircuit.from_tape>` wraps one, routing,
SWAP decomposition, cancellation and consolidation read and write its
columns, and the metric scan (:mod:`repro.circuit.metrics`) reads only
``(code, q0, q1)``.  Gate objects are built only when someone reads
``circuit.gates``.  Tapes are never mutated in place: a pass that
changes the circuit builds new columns.

Codes are assigned so classification is pure integer comparison on the
code column: every 1Q gate code is below :data:`CODE_CX`, the two 2Q
codes sit together, and the non-unitary tail (measure/reset/barrier)
is above :data:`CODE_MEASURE`.  Per-code lookup tables
(:data:`IS_ONE_QUBIT`, :data:`PARAM_COUNT`, ...) turn per-gate
predicates into single fancy-indexing expressions over the code column.

Two gate shapes cannot be encoded and raise :class:`TapeError`:
symbolic (:class:`~repro.circuit.parameter.ParameterExpression`)
parameters, which have no float representation, and barriers spanning
more than two wires.  Such circuits stay gate lists: the cleanup passes
fall back to their scalar references (:mod:`repro.passes.reference`),
and the router and the metrics read their structure through
:func:`encode_structure`, which ignores parameters.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from . import gate as g
from .gate import Gate
from .parameter import ParameterExpression

#: Canonical gate-name -> code table.  1Q gates first (codes 0..9), the
#: 2Q pair next, the non-unitary tail last — classification relies on
#: this ordering, so codes are append-only.
GATE_CODES = {
    g.H: 0,
    g.S: 1,
    g.SDG: 2,
    g.X: 3,
    g.Y: 4,
    g.Z: 5,
    g.RX: 6,
    g.RY: 7,
    g.RZ: 8,
    g.U3: 9,
    g.CX: 10,
    g.SWAP: 11,
    g.MEASURE: 12,
    g.RESET: 13,
    g.BARRIER: 14,
}

CODE_NAMES = tuple(sorted(GATE_CODES, key=GATE_CODES.get))

CODE_CX = GATE_CODES[g.CX]
CODE_SWAP = GATE_CODES[g.SWAP]
CODE_MEASURE = GATE_CODES[g.MEASURE]
CODE_RZ = GATE_CODES[g.RZ]

_NUM_CODES = len(GATE_CODES)


def _code_mask(names) -> np.ndarray:
    mask = np.zeros(_NUM_CODES, dtype=bool)
    for name in names:
        mask[GATE_CODES[name]] = True
    return mask


#: Per-code predicate tables — index with the code column.
IS_ONE_QUBIT = _code_mask(g.ONE_QUBIT_GATES)
IS_TWO_QUBIT = _code_mask(g.TWO_QUBIT_GATES)
IS_NON_UNITARY = _code_mask(g.NON_UNITARY)
IS_SELF_INVERSE = _code_mask(g.SELF_INVERSE)
IS_ADDITIVE = _code_mask(g.ADDITIVE)
#: Z-diagonal 1Q gates (commute with a CNOT's control).
IS_DIAGONAL = _code_mask((g.Z, g.S, g.SDG, g.RZ))
#: X-axis 1Q gates (commute with a CNOT's target).
IS_X_AXIS = _code_mask((g.X, g.RX))

#: Parameters carried per code (u3: 3, rotations: 1, rest: 0).
PARAM_COUNT = np.zeros(_NUM_CODES, dtype=np.int8)
for _name, _count in ((g.RX, 1), (g.RY, 1), (g.RZ, 1), (g.U3, 3)):
    PARAM_COUNT[GATE_CODES[_name]] = _count

#: Code of the gate that inverts each code (additive rotations negate
#: their angle instead; measure/reset/barrier have no inverse: -1).
INVERSE_CODE = np.full(_NUM_CODES, -1, dtype=np.int8)
for _name in g.SELF_INVERSE | g.ADDITIVE | {g.U3}:
    INVERSE_CODE[GATE_CODES[_name]] = GATE_CODES[_name]
INVERSE_CODE[GATE_CODES[g.S]] = GATE_CODES[g.SDG]
INVERSE_CODE[GATE_CODES[g.SDG]] = GATE_CODES[g.S]


class TapeError(ValueError):
    """The gate list cannot be represented as fixed-width columns."""


class GateTape:
    """Encoded columns over a gate list (see module docstring).

    Examples
    --------
    >>> from repro.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2); qc.h(0); qc.cx(0, 1); qc.rz(0.5, 1)
    >>> tape = GateTape.from_circuit(qc)
    >>> [gate.name for gate in tape.decode()] == [g.name for g in qc.gates]
    True
    """

    __slots__ = ("num_qubits", "name", "codes", "qubits", "params")

    def __init__(
        self,
        num_qubits: int,
        codes: np.ndarray,
        qubits: np.ndarray,
        params: np.ndarray,
        name: str = "",
    ) -> None:
        self.num_qubits = num_qubits
        self.name = name
        self.codes = codes
        self.qubits = qubits
        self.params = params

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def encode(
        cls,
        gates: Sequence[Gate],
        num_qubits: int,
        name: str = "",
    ) -> "GateTape":
        """Pack ``gates`` into columns; raises :class:`TapeError` for
        symbolic parameters, wrong parameter arity, or operations wider
        than two qubits."""
        n = len(gates)
        # Gates are immutable and the emitters share objects aggressively
        # (tree-edge CNOT bodies, swap expansions, basis-change layers), so
        # only the *distinct* gate objects are validated and packed; the
        # full columns are then a single fancy-index expansion.  ids stay
        # unique because ``gates`` keeps every object alive.
        seen = {}
        seen_get = seen.get
        distinct: List[Gate] = []
        refs = [0] * n
        for index, gate in enumerate(gates):
            key = id(gate)
            row = seen_get(key)
            if row is None:
                row = seen[key] = len(distinct)
                distinct.append(gate)
            refs[index] = row
        code_column, qubit_column = _structure_rows(distinct)
        d = len(distinct)
        param_column = [0.0] * (3 * d)
        param_count = PARAM_COUNT
        for index, gate in enumerate(distinct):
            values = gate.params
            expected = param_count[code_column[index]]
            if len(values) != expected:
                raise TapeError(
                    f"{gate.name} at {index} carries {len(values)} "
                    f"params, expected {expected}"
                )
            if values:
                base = 3 * index
                for offset, value in enumerate(values):
                    if isinstance(value, ParameterExpression):
                        raise TapeError(
                            f"symbolic parameter on {gate.name} at {index}"
                        )
                    param_column[base + offset] = value
        index_column = np.array(refs, dtype=np.intp)
        codes = np.array(code_column, dtype=np.uint8)[index_column]
        qubits = (
            np.array(qubit_column, dtype=np.int32).reshape(d, 2)[index_column]
        )
        params = (
            np.array(param_column, dtype=np.float64).reshape(d, 3)[index_column]
        )
        return cls(num_qubits, codes, qubits, params, name=name)

    @classmethod
    def from_circuit(cls, circuit) -> "GateTape":
        return cls.encode(circuit.gates, circuit.num_qubits, name=circuit.name)

    def decode(self) -> List[Gate]:
        """Rebuild the gate list; exact inverse of :meth:`encode`.

        Equal rows decode to one shared :class:`Gate` (gates are
        immutable): compiled circuits repeat a small alphabet of rows,
        so only the distinct ones are built.  Rows compare by their
        exact bits, so ``-0.0`` and ``0.0`` angles stay distinct.
        """
        if not len(self.codes):
            return []
        bits = np.ascontiguousarray(self.params).view(np.int64)
        rows = np.column_stack((self.codes, self.qubits, bits))
        _, first, inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
        counts = PARAM_COUNT[self.codes[first]].tolist()
        distinct = np.empty(len(first), dtype=object)
        for slot, (code, (q0, q1), angles, count) in enumerate(
            zip(
                self.codes[first].tolist(),
                self.qubits[first].tolist(),
                self.params[first].tolist(),
                counts,
            )
        ):
            if q0 < 0:
                wires = ()
            elif q1 < 0:
                wires = (q0,)
            else:
                wires = (q0, q1)
            distinct[slot] = Gate(
                CODE_NAMES[code], wires, tuple(angles[:count])
            )
        return distinct[inverse.reshape(-1)].tolist()

    def decompose_swaps(self) -> "GateTape":
        """Every SWAP row rewritten as its 3 CNOT rows (the paper's
        accounting rule): ``cx(a, b) cx(b, a) cx(a, b)``."""
        swap = self.codes == CODE_SWAP
        if not swap.any():
            return self
        repeats = np.where(swap, 3, 1)
        rows = np.repeat(np.arange(len(self.codes)), repeats)
        codes = self.codes[rows]
        qubits = self.qubits[rows]
        starts = (np.cumsum(repeats) - repeats)[swap]
        codes[starts] = CODE_CX
        codes[starts + 1] = CODE_CX
        codes[starts + 2] = CODE_CX
        qubits[starts + 1] = qubits[starts + 1, ::-1]
        return GateTape(
            self.num_qubits, codes, qubits, self.params[rows], name=self.name
        )

    def select(self, mask: np.ndarray) -> "GateTape":
        """The sub-tape of rows where ``mask`` holds (order preserved)."""
        return GateTape(
            self.num_qubits,
            self.codes[mask],
            self.qubits[mask],
            self.params[mask],
            name=self.name,
        )


def encode_structure(gates: Sequence[Gate]) -> Tuple[np.ndarray, np.ndarray]:
    """The code and qubit columns of ``gates``, parameters ignored.

    This is what the router and the metric scan read, so symbolic
    gates encode too.  A barrier wider than two wires becomes a chain
    of two-wire barriers over its wires — forward, then back — which
    brings every one of them to their latest layer, exactly as the
    wide barrier does.
    """
    try:
        code_column, qubit_column = _structure_rows(gates)
    except TapeError:
        if not any(
            gate.name == g.BARRIER and len(gate.qubits) > 2 for gate in gates
        ):
            raise
        code_column, qubit_column = _chained_structure(gates)
    return (
        np.array(code_column, dtype=np.uint8),
        np.array(qubit_column, dtype=np.int32).reshape(-1, 2),
    )


def _chained_structure(gates: Sequence[Gate]) -> Tuple[List[int], List[int]]:
    code_column: List[int] = []
    qubit_column: List[int] = []
    for gate in gates:
        wires = gate.qubits
        if gate.name == g.BARRIER and len(wires) > 2:
            links = list(zip(wires, wires[1:]))
            links += links[-2::-1]
        else:
            links = [tuple(_structure_rows([gate])[1])]
        for link in links:
            code_column.append(GATE_CODES[gate.name])
            qubit_column.extend(link)
    return code_column, qubit_column


def _structure_rows(gates: Sequence[Gate]) -> Tuple[List[int], List[int]]:
    """Flat code and (q0, q1) columns of ``gates``; raises
    :class:`TapeError` for unknown gates and operations wider than two
    qubits."""
    code_column = [0] * len(gates)
    qubit_column = [-1] * (2 * len(gates))
    get_code = GATE_CODES.get
    for index, gate in enumerate(gates):
        code = get_code(gate.name)
        if code is None:
            raise TapeError(f"unknown gate {gate.name!r} at {index}")
        code_column[index] = code
        wires = gate.qubits
        if wires:
            if len(wires) > 2:
                raise TapeError(
                    f"{gate.name} on {len(wires)} qubits at {index} "
                    "exceeds the tape's two-wire columns"
                )
            qubit_column[2 * index] = wires[0]
            if len(wires) > 1:
                qubit_column[2 * index + 1] = wires[1]
    return code_column, qubit_column
