"""The encoded gate tape: exact round-trips and what it refuses.

The vectorized passes run on :class:`repro.circuit.tape.GateTape`; their
correctness rests on the tape being a *lossless* view of the gate list.
These tests pin that down with randomized encode/decode round-trips
(including circuits that share gate objects, the dedup fast path, and
symbolic rows), the wide-barrier chain, the ``TapeError`` cases, and
the ownership rule of tape-backed circuits: ``.gates`` decodes once and
from then on the list is the circuit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.circuit import gate as g
from repro.circuit.gate import Gate
from repro.circuit.parameter import Parameter
from repro.circuit.tape import (
    GATE_CODES,
    GateTape,
    IS_ONE_QUBIT,
    IS_TWO_QUBIT,
    PARAM_COUNT,
    TapeError,
    encode_structure,
)
from repro.passes import cancel_gates, consolidate_one_qubit_runs


def random_circuit(rng, num_qubits, num_gates):
    """Every encodable gate shape, including the non-unitary tail."""
    qc = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.integers(10)
        q = int(rng.integers(num_qubits))
        if kind == 0:
            qc.h(q)
        elif kind == 1:
            getattr(qc, ("s", "sdg", "x", "y", "z")[rng.integers(5)])(q)
        elif kind == 2:
            getattr(qc, ("rx", "ry", "rz")[rng.integers(3)])(
                float(rng.uniform(-7, 7)), q
            )
        elif kind == 3:
            qc.u3(*(float(v) for v in rng.uniform(-3, 3, size=3)), q)
        elif kind in (4, 5, 6):
            a, b = rng.choice(num_qubits, 2, replace=False)
            qc.cx(int(a), int(b))
        elif kind == 7:
            a, b = rng.choice(num_qubits, 2, replace=False)
            qc.swap(int(a), int(b))
        elif kind == 8:
            qc.measure(q) if rng.integers(2) else qc.reset(q)
        else:
            qc.append(Gate(g.BARRIER, (q,)))
    return qc


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_encode_decode_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        qc = random_circuit(rng, int(rng.integers(2, 6)), int(rng.integers(0, 60)))
        tape = qc.tape()
        assert len(tape) == len(qc.gates)
        assert tape.decode() == qc.gates

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_to_circuit_preserves_shape(self, seed):
        rng = np.random.default_rng(seed)
        qc = random_circuit(rng, 4, int(rng.integers(1, 40)))
        qc.name = "rt"
        out = QuantumCircuit.from_tape(qc.tape())
        assert out.num_qubits == qc.num_qubits
        assert out.name == qc.name
        assert out.gates == qc.gates

    def test_shared_gate_objects_round_trip(self):
        # The emitters share immutable Gate objects aggressively (tree-edge
        # bodies, swap expansions); encode dedups by id() and must expand
        # back to the full sequence.
        body = [Gate(g.CX, (0, 1)), Gate(g.H, (0,)), Gate(g.RZ, (1,), (0.25,))]
        gates = []
        for _ in range(17):
            gates.extend(body)
        gates.append(Gate(g.CX, (1, 0)))
        tape = GateTape.encode(gates, 2)
        assert len(tape) == len(gates)
        assert tape.decode() == gates

    def test_column_dtypes_and_padding(self):
        qc = QuantumCircuit(3)
        qc.h(2)
        qc.cx(0, 1)
        qc.u3(0.1, 0.2, 0.3, 0)
        tape = qc.tape()
        assert tape.codes.dtype == np.uint8
        assert tape.qubits.shape == (3, 2) and tape.qubits.dtype == np.int32
        assert tape.params.shape == (3, 3) and tape.params.dtype == np.float64
        assert tape.qubits[0].tolist() == [2, -1]  # 1Q row pads with -1
        assert tape.params[2].tolist() == [0.1, 0.2, 0.3]

    def test_select_keeps_order(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.h(1)
        tape = qc.tape()
        sub = tape.select(tape.codes == GATE_CODES[g.H])
        assert sub.decode() == [qc.gates[0], qc.gates[2]]
        assert tape.select(np.array([2, 0])).decode() == [
            qc.gates[2], qc.gates[0]
        ]

    def test_symbolic_rows_round_trip(self):
        theta, phi = Parameter("theta"), Parameter("phi")
        shared = Gate(g.RZ, (1,), (0.5 * theta + 0.25,))
        gates = [
            Gate(g.H, (0,)), shared, Gate(g.CX, (0, 1)), shared,
            Gate(g.RX, (0,), (-theta,)), Gate(g.RZ, (1,), (0.7,)),
            Gate(g.U3, (2,), (0.1, phi, 0.3)), Gate(g.SWAP, (1, 2)),
            Gate(g.RZ, (2,), (theta - phi,)),
        ]
        tape = GateTape.encode(gates, 3)
        assert tape.sym.dtype == np.int32
        assert tape.sym.tolist() == [-1, 0, -1, 0, 1, -1, 2, -1, 3]
        assert tape.exprs == (
            shared.params, gates[4].params, gates[6].params, gates[8].params
        )
        assert tape.decode() == gates
        # The passes' gathers carry the column.
        assert tape.select(np.array([8, 1, 0])).decode() == [
            gates[8], gates[1], gates[0]
        ]
        swapped = tape.decompose_swaps()
        assert swapped.sym.tolist() == [-1, 0, -1, 0, 1, -1, 2, -1, -1, -1, 3]
        assert swapped.decode() == (
            QuantumCircuit.from_tape(tape).decompose_swaps().gates
        )
        # Numeric tapes carry no column, and neither does a symbolic
        # tape's numeric sub-tape.
        assert GateTape.encode(gates[:1], 3).sym is None
        numeric = tape.select(tape.sym < 0)
        assert numeric.sym is None and numeric.exprs == ()


class TestClassificationTables:
    def test_tables_match_gate_library(self):
        for name, code in GATE_CODES.items():
            assert IS_ONE_QUBIT[code] == (name in g.ONE_QUBIT_GATES)
            assert IS_TWO_QUBIT[code] == (name in g.TWO_QUBIT_GATES)

    def test_param_counts(self):
        assert PARAM_COUNT[GATE_CODES[g.U3]] == 3
        for name in (g.RX, g.RY, g.RZ):
            assert PARAM_COUNT[GATE_CODES[name]] == 1
        for name in (g.H, g.CX, g.MEASURE, g.BARRIER):
            assert PARAM_COUNT[GATE_CODES[name]] == 0


class TestUnencodable:
    def test_unknown_gate(self):
        with pytest.raises(TapeError, match="unknown gate"):
            GateTape.encode([Gate("ccx", (0, 1, 2))], 3)

    def test_wide_barrier(self):
        # A barrier over k > 2 wires encodes, and reads back, as its
        # chain of 2k - 3 two-wire barriers; any other operation wider
        # than two wires is refused.
        gates = [Gate(g.H, (0,)), Gate(g.BARRIER, (0, 1, 2, 3)),
                 Gate(g.CX, (2, 3))]
        tape = GateTape.encode(gates, 4)
        codes, qubits = encode_structure(gates)
        assert tape.codes.tolist() == codes.tolist()
        assert tape.qubits.tolist() == qubits.tolist()
        assert tape.decode() == [gates[0]] + [
            Gate(g.BARRIER, link)
            for link in ((0, 1), (1, 2), (2, 3), (1, 2), (0, 1))
        ] + [gates[2]]
        with pytest.raises(TapeError, match="two-wire"):
            GateTape.encode([Gate(g.CX, (0, 1, 2))], 3)

    def test_wrong_param_arity(self):
        with pytest.raises(TapeError, match="params"):
            GateTape.encode([Gate(g.RZ, (0,), (0.1, 0.2))], 1)
        with pytest.raises(TapeError, match="params"):
            GateTape.encode([Gate(g.H, (0,), (0.1,))], 1)

    def test_structure_ignores_parameters(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.rz(Parameter("a"), 1)
        qc.cx(0, 1)
        codes, qubits = encode_structure(qc.gates)
        assert codes.tolist() == [GATE_CODES[g.H], GATE_CODES[g.RZ],
                                  GATE_CODES[g.CX]]
        assert qubits.tolist() == [[0, -1], [1, -1], [0, 1]]

    def test_structure_chains_wide_barriers(self):
        gates = [Gate(g.H, (0,)), Gate(g.BARRIER, (0, 1, 2, 3)),
                 Gate(g.CX, (2, 3))]
        codes, qubits = encode_structure(gates)
        barrier = GATE_CODES[g.BARRIER]
        assert codes.tolist() == [GATE_CODES[g.H]] + [barrier] * 5 + [
            GATE_CODES[g.CX]]
        assert qubits.tolist()[1:6] == [[0, 1], [1, 2], [2, 3], [1, 2],
                                        [0, 1]]


class TestTapeOwnership:
    def test_tape_backed_gates_equal_decode(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            tape = random_circuit(rng, 4, 50).tape()
            qc = QuantumCircuit.from_tape(tape)
            assert qc.tape_backed and qc.tape() is tape
            assert len(qc) == len(tape)
            assert qc.gates == tape.decode()
            assert not qc.tape_backed

    def test_equal_rows_decode_to_one_gate(self):
        qc = QuantumCircuit(2)
        for _ in range(3):
            qc.cx(0, 1)
            qc.rz(0.5, 1)
        qc.rz(-0.0, 1)
        qc.rz(0.0, 1)
        gates = qc.tape().decode()
        assert gates == qc.gates
        assert gates[0] is gates[2] is gates[4]
        assert gates[1] is gates[3] is gates[5]
        # -0.0 and 0.0 are equal but print apart: kept distinct.
        assert repr(gates[6].params) == "(-0.0,)"
        assert repr(gates[7].params) == "(0.0,)"

    def test_gates_read_takes_ownership(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        backed = QuantumCircuit.from_tape(qc.tape())
        gates = backed.gates
        assert not backed.tape_backed
        # The list is the circuit now: edits in place (same length) and
        # growth both show in the next tape.
        gates[0] = Gate(g.X, (1,))
        assert backed.tape().decode() == [Gate(g.X, (1,)), Gate(g.CX, (0, 1))]
        backed.h(1)
        assert backed.tape().decode() == backed.gates
        assert len(backed.tape()) == 3

    def test_in_place_edit_after_cancel_is_seen(self):
        # Regression: a tape cached beside the list by cancel_gates was
        # checked only by list identity and length, so a same-length edit
        # of ``out.gates`` was ignored and consolidate fused h(0) with
        # x(1) into one u3 on qubit 0.
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.h(1)
        qc.x(1)
        out = cancel_gates(qc)
        out.gates[2] = Gate(g.H, (0,))
        fused = consolidate_one_qubit_runs(out)
        assert fused.gates == [
            Gate(g.H, (0,)), Gate(g.CX, (0, 1)), Gate(g.H, (0,)),
            Gate(g.X, (1,)),
        ]
