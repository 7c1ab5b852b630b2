"""Tests for the cancellation pass — soundness and specific rules."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_scans, unitaries_equal
from repro.circuit import QuantumCircuit
from repro.circuit import gate as g
from repro.circuit.gate import Gate
from repro.passes import cancel_gates, consolidate_one_qubit_runs, peephole
from repro.passes.reference import cancel_gates_reference
from repro.pauli import PauliString
from repro.sim import circuit_unitary
from repro.synthesis import emit_exponential, fan_in


def full_cleanup(qc):
    """The ``o3`` cleanup tail on a SWAP-free circuit: cancel, then
    consolidate 1Q runs."""
    return consolidate_one_qubit_runs(cancel_gates(qc))


def random_circuit(rng, num_qubits, num_gates):
    qc = QuantumCircuit(num_qubits)
    names = ["h", "s", "sdg", "x", "rz", "rx", "cx"]
    for _ in range(num_gates):
        name = names[rng.integers(len(names))]
        if name == "cx":
            a, b = rng.choice(num_qubits, 2, replace=False)
            qc.cx(int(a), int(b))
        elif name in ("rz", "rx"):
            getattr(qc, name)(float(rng.uniform(-3, 3)), int(rng.integers(num_qubits)))
        else:
            getattr(qc, name)(int(rng.integers(num_qubits)))
    return qc


class TestSoundness:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cancellation_preserves_unitary(self, seed):
        rng = np.random.default_rng(seed)
        qc = random_circuit(rng, int(rng.integers(2, 5)), int(rng.integers(5, 45)))
        reduced = cancel_gates(qc)
        assert unitaries_equal(circuit_unitary(qc), circuit_unitary(reduced))
        assert len(reduced) <= len(qc)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_full_o3_preserves_unitary(self, seed):
        rng = np.random.default_rng(seed)
        qc = random_circuit(rng, int(rng.integers(2, 5)), int(rng.integers(5, 45)))
        assert unitaries_equal(circuit_unitary(qc), circuit_unitary(full_cleanup(qc)))


class TestRules:
    def test_hh_cancels(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.h(0)
        assert len(cancel_gates(qc)) == 0

    def test_s_sdg_cancels_either_order(self):
        for first, second in (("s", "sdg"), ("sdg", "s")):
            qc = QuantumCircuit(1)
            getattr(qc, first)(0)
            getattr(qc, second)(0)
            assert len(cancel_gates(qc)) == 0

    def test_rz_merge(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0)
        qc.rz(0.4, 0)
        reduced = cancel_gates(qc)
        assert len(reduced) == 1
        assert reduced.gates[0].params[0] == pytest.approx(0.7)

    def test_rz_exact_cancellation(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0)
        qc.rz(-0.3, 0)
        assert len(cancel_gates(qc)) == 0

    def test_rz_two_pi_is_global_phase(self):
        qc = QuantumCircuit(1)
        qc.rz(np.pi, 0)
        qc.rz(np.pi, 0)
        assert len(cancel_gates(qc)) == 0

    def test_cx_cx_cancels(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.cx(0, 1)
        assert len(cancel_gates(qc)) == 0

    def test_cx_reversed_does_not_cancel(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.cx(1, 0)
        assert len(cancel_gates(qc)) == 2

    def test_cx_cancels_through_rz_on_control(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.rz(0.5, 0)
        qc.cx(0, 1)
        assert cancel_gates(qc).count_ops().get("cx", 0) == 0

    def test_cx_cancels_through_x_on_target(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.x(1)
        qc.cx(0, 1)
        assert cancel_gates(qc).count_ops().get("cx", 0) == 0

    def test_cx_blocked_by_h(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.h(0)
        qc.cx(0, 1)
        assert cancel_gates(qc).count_ops()["cx"] == 2

    def test_cx_cancels_through_shared_control(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1)
        qc.cx(0, 2)
        qc.cx(0, 1)
        assert cancel_gates(qc).count_ops()["cx"] == 1

    def test_cx_cancels_through_shared_target(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 2)
        qc.cx(1, 2)
        qc.cx(0, 2)
        assert cancel_gates(qc).count_ops()["cx"] == 1

    def test_measure_blocks_cancellation(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.measure(0)
        qc.h(0)
        assert len(cancel_gates(qc)) == 3


class TestExposure:
    """A scan reruns only when a row it exposed fires.

    A CNOT pair that cancels across a live row it skipped shows that
    row a new predecessor, and a merge that absorbs such a row passes
    the change on to the survivor.
    """

    def check(self, qc, monkeypatch, scans_expected):
        scans = count_scans(monkeypatch)
        out = cancel_gates(qc)
        assert len(scans) == scans_expected
        assert out.gates == cancel_gates_reference(qc).gates
        return out

    def test_skip_over_on_the_control_wire_fires_next_scan(self, monkeypatch):
        qc = QuantumCircuit(2)
        qc.rz(0.3, 0)
        qc.cx(0, 1)
        qc.rz(0.5, 0)
        qc.cx(0, 1)
        out = self.check(qc, monkeypatch, 2)
        assert [(G.name, G.qubits) for G in out.gates] == [(g.RZ, (0,))]
        assert out.gates[0].params[0] == pytest.approx(0.8)

    def test_merge_carries_the_exposure_to_its_survivor(self, monkeypatch):
        # The CNOTs cancel across rx(0.5), which then merges into
        # rx(0.7) in the same scan: only the survivor, now next to
        # rx(0.3), can fire.
        qc = QuantumCircuit(2)
        qc.rx(0.3, 1)
        qc.cx(0, 1)
        qc.rx(0.5, 1)
        qc.cx(0, 1)
        qc.rx(0.7, 1)
        out = self.check(qc, monkeypatch, 2)
        assert [(G.name, G.qubits) for G in out.gates] == [(g.RX, (1,))]
        assert out.gates[0].params[0] == pytest.approx(1.5)

    def test_exposed_row_that_fires_nothing_needs_one_scan(self, monkeypatch):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.rz(0.5, 0)
        qc.cx(0, 1)
        out = self.check(qc, monkeypatch, 1)
        assert [G.name for G in out.gates] == [g.H, g.RZ]


class CountingWire:
    """A wire's row list that counts its item reads."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        self.reads += 1
        return self.rows[index]


class TestRowsBefore:
    def test_lists_the_earlier_rows_latest_first(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows = sorted(rng.choice(500, size=rng.integers(0, 40),
                                     replace=False).tolist())
            position = int(rng.integers(0, 501))
            expected = [row for row in reversed(rows) if row < position]
            assert list(peephole._rows_before(rows, position)) == expected

    def test_an_early_stop_reads_no_tail(self):
        # The backward walks stop at the first live row that decides
        # them; a walk far from the wire's end must not pay for the rows
        # after ``position``.
        wire = CountingWire(list(range(100_000)))
        first = list(islice(peephole._rows_before(wire, 101), 3))
        assert first == [100, 99, 98]
        assert wire.reads <= 40


class TestFig3:
    def test_tree_choice_controls_cancellation(self):
        """Fig. 3: same strings, different trees, 0 vs 4 CNOTs canceled."""
        p1, p2 = PauliString("YZZZY"), PauliString("XZZZX")

        def emit(circuit, string, parent, root):
            edges = [Gate(g.CX, edge) for edge in fan_in(parent, root)]
            ops = [(string[q], q) for q in string.support]
            emit_exponential(circuit, ops, edges, root, 0.5)

        ladder = QuantumCircuit(5)
        for p in (p1, p2):
            emit(ladder, p, {0: 1, 1: 2, 2: 3, 3: 4}, 4)
        good = QuantumCircuit(5)
        for p in (p1, p2):
            emit(good, p, {1: 2, 2: 3, 3: 0, 0: 4}, 4)
        assert cancel_gates(ladder).count_ops()["cx"] == 16
        assert cancel_gates(good).count_ops()["cx"] == 12
        assert unitaries_equal(circuit_unitary(ladder), circuit_unitary(good))


class TestConsolidation:
    def test_run_merges_to_single_u3(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.rz(0.4, 0)
        qc.h(0)
        optimized = full_cleanup(qc)
        assert len(optimized) == 1
        assert optimized.gates[0].name == "u3"
        assert unitaries_equal(circuit_unitary(qc), circuit_unitary(optimized))

    def test_identity_run_dropped(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        qc.x(0)
        assert len(full_cleanup(qc)) == 0

    def test_light_keeps_basis_gates(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.rz(0.4, 0)
        qc.h(0)
        light = cancel_gates(qc)
        assert all(g.name != "u3" for g in light.gates)
