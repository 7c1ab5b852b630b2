"""The encoded gate tape: a circuit as structured numpy columns.

A :class:`GateTape` holds a gate sequence as one ``uint8`` gate-code
column, an ``int32 [N, 2]`` qubit block (``-1`` padding for 1Q/0Q
operations) and a ``float64 [N, 3]`` parameter block (``u3`` uses all
three lanes, rotations the first).  Encoding is exact and reversible —
:meth:`GateTape.decode` reproduces the original gate list gate-for-gate,
which the randomized round-trip tests pin down.

A row with a :class:`~repro.circuit.parameter.ParameterExpression`
parameter keeps its parameter tuple in the expression table ``exprs``,
which the ``int32`` column ``sym`` indexes (``-1``: a numeric row; a
symbolic row's float lanes are unused).  ``sym`` is ``None`` when no
row is symbolic, so numeric tapes carry no extra column.  A barrier
over ``k > 2`` wires encodes, and decodes, as its chain of ``2k - 3``
two-wire barriers, forward over its wires and then back, which holds
every wire to its latest layer exactly as the wide barrier does.

From the first pass after synthesis through the metrics, a compile's
circuit *is* a tape, baked or parametric: :meth:`QuantumCircuit.from_tape
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

Unknown gates, a wrong parameter arity and non-barrier operations wider
than two qubits raise :class:`TapeError`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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

_NUM_CODES = len(GATE_CODES)


def _code_mask(names) -> np.ndarray:
    mask = np.zeros(_NUM_CODES, dtype=bool)
    for name in names:
        mask[GATE_CODES[name]] = True
    return mask


#: Per-code predicate tables — index with the code column.
IS_ONE_QUBIT = _code_mask(g.ONE_QUBIT_GATES)
IS_TWO_QUBIT = _code_mask(g.TWO_QUBIT_GATES)
IS_ADDITIVE = _code_mask(g.ADDITIVE)

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
    >>> tape = qc.tape()
    >>> [gate.name for gate in tape.decode()] == [g.name for g in qc.gates]
    True
    """

    __slots__ = ("num_qubits", "name", "codes", "qubits", "params", "sym",
                 "exprs")

    def __init__(
        self,
        num_qubits: int,
        codes: np.ndarray,
        qubits: np.ndarray,
        params: np.ndarray,
        name: str = "",
        sym: Optional[np.ndarray] = None,
        exprs: Tuple[tuple, ...] = (),
    ) -> None:
        self.num_qubits = num_qubits
        self.name = name
        self.codes = codes
        self.qubits = qubits
        self.params = params
        if sym is not None and not (sym >= 0).any():
            sym, exprs = None, ()
        self.sym = sym
        self.exprs = exprs

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
        unknown gates, wrong parameter arity, or non-barrier operations
        wider than two qubits."""
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
        try:
            code_column, qubit_column = _structure_rows(distinct)
        except TapeError:
            chained = _chain_barriers(gates)
            if len(chained) == n:
                raise
            return cls.encode(chained, num_qubits, name=name)
        d = len(distinct)
        param_column = [0.0] * (3 * d)
        sym_column: Optional[List[int]] = None
        exprs: List[tuple] = []
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
                        if sym_column is None:
                            sym_column = [-1] * d
                        sym_column[index] = len(exprs)
                        exprs.append(values)
                        break
                    param_column[base + offset] = value
        index_column = np.array(refs, dtype=np.intp)
        codes = np.array(code_column, dtype=np.uint8)[index_column]
        qubits = (
            np.array(qubit_column, dtype=np.int32).reshape(d, 2)[index_column]
        )
        params = (
            np.array(param_column, dtype=np.float64).reshape(d, 3)[index_column]
        )
        if sym_column is not None:
            sym_column = np.array(sym_column, dtype=np.int32)[index_column]
        return cls(num_qubits, codes, qubits, params, name=name,
                   sym=sym_column, exprs=tuple(exprs))

    def decode(self) -> List[Gate]:
        """Rebuild the gate list; exact inverse of :meth:`encode`.

        Equal rows decode to one shared :class:`Gate` (gates are
        immutable): compiled circuits repeat a small alphabet of rows,
        so only the distinct ones are built.  Rows compare by their
        exact bits, so ``-0.0`` and ``0.0`` angles stay distinct, and a
        symbolic row takes its parameter tuple from :attr:`exprs`.
        """
        if not len(self.codes):
            return []
        bits = np.ascontiguousarray(self.params).view(np.int64)
        sym = () if self.sym is None else (self.sym,)
        rows = np.column_stack((self.codes, self.qubits, bits) + sym)
        _, first, inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
        counts = PARAM_COUNT[self.codes[first]].tolist()
        entries = rows[first, -1].tolist() if sym else [-1] * len(first)
        exprs = self.exprs
        distinct = np.empty(len(first), dtype=object)
        for slot, (code, (q0, q1), angles, count, entry) in enumerate(
            zip(
                self.codes[first].tolist(),
                self.qubits[first].tolist(),
                self.params[first].tolist(),
                counts,
                entries,
            )
        ):
            if q0 < 0:
                wires = ()
            elif q1 < 0:
                wires = (q0,)
            else:
                wires = (q0, q1)
            params = exprs[entry] if entry >= 0 else tuple(angles[:count])
            distinct[slot] = Gate(CODE_NAMES[code], wires, params)
        return distinct[inverse.reshape(-1)].tolist()

    def decompose_swaps(self) -> "GateTape":
        """Every SWAP row rewritten as its 3 CNOT rows (the paper's
        accounting rule): ``cx(a, b) cx(b, a) cx(a, b)``."""
        swap = self.codes == CODE_SWAP
        if not swap.any():
            return self
        repeats = np.where(swap, 3, 1)
        rows = np.repeat(np.arange(len(self.codes)), repeats)
        tape = self.select(rows)
        tape.codes[tape.codes == CODE_SWAP] = CODE_CX
        middle = (np.cumsum(repeats) - repeats)[swap] + 1
        tape.qubits[middle] = tape.qubits[middle, ::-1]
        return tape

    def select(self, rows: np.ndarray) -> "GateTape":
        """The sub-tape of ``rows``, a boolean mask or an index array
        (fresh columns, in that order)."""
        return GateTape(
            self.num_qubits,
            self.codes[rows],
            self.qubits[rows],
            self.params[rows],
            name=self.name,
            sym=None if self.sym is None else self.sym[rows],
            exprs=self.exprs,
        )


def encode_structure(gates: Sequence[Gate]) -> Tuple[np.ndarray, np.ndarray]:
    """The code and qubit columns :meth:`GateTape.encode` writes for
    ``gates``, without packing their parameters."""
    try:
        code_column, qubit_column = _structure_rows(gates)
    except TapeError:
        code_column, qubit_column = _structure_rows(_chain_barriers(gates))
    return (
        np.array(code_column, dtype=np.uint8),
        np.array(qubit_column, dtype=np.int32).reshape(-1, 2),
    )


def _chain_barriers(gates: Sequence[Gate]) -> List[Gate]:
    """``gates`` with every barrier over ``k > 2`` wires replaced by its
    chain of ``2k - 3`` two-wire barriers, forward over the wires and
    then back."""
    chained: List[Gate] = []
    for gate in gates:
        wires = gate.qubits
        if gate.name == g.BARRIER and len(wires) > 2:
            links = list(zip(wires, wires[1:]))
            chained.extend(
                Gate(g.BARRIER, link) for link in links + links[-2::-1]
            )
        else:
            chained.append(gate)
    return chained


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
