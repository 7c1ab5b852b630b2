"""Tests for layouts, the SWAP router, and fast bridging."""

import numpy as np
import pytest

from repro.circuit import Parameter, QuantumCircuit
from repro.hardware import CouplingGraph, grid, linear, ring, synthetic_calibration
from repro.hardware.families import resolve_device
from repro.routing import (
    Layout,
    bridge_chain_gates,
    bridged_cnot_cost,
    greedy_interaction_layout,
    route_circuit,
    swap_route_cost,
    verify_hardware_compliant,
)
from repro.routing.reference import route_circuit_reference
from repro.routing.router import route_circuit_noise
from repro.sim import Statevector

from helpers import embed_state, random_logical_state


class TestLayout:
    def test_place_and_lookup(self):
        layout = Layout(2, 5)
        layout.place(0, 3)
        assert layout.physical(0) == 3
        assert layout.logical(3) == 0
        assert layout.logical(1) is None
        assert not layout.is_occupied(0)

    def test_double_placement_rejected(self):
        layout = Layout(2, 5)
        layout.place(0, 3)
        with pytest.raises(ValueError):
            layout.place(0, 4)
        with pytest.raises(ValueError):
            layout.place(1, 3)

    def test_too_many_logical(self):
        with pytest.raises(ValueError):
            Layout(5, 3)

    def test_swap_physical(self):
        layout = Layout.trivial(2, 4)
        layout.swap_physical(1, 3)  # occupied <-> free
        assert layout.physical(1) == 3
        assert layout.logical(1) is None
        layout.swap_physical(0, 3)  # occupied <-> occupied
        assert layout.physical(0) == 3
        assert layout.physical(1) == 0

    def test_remove_frees_slot(self):
        layout = Layout.trivial(2, 4)
        freed = layout.remove(1)
        assert freed == 1
        assert not layout.is_occupied(1)
        assert set(layout.free_physical()) == {1, 2, 3}

    def test_copy_independent(self):
        layout = Layout.trivial(2, 4)
        clone = layout.copy()
        clone.swap_physical(0, 2)
        assert layout.physical(0) == 0

    def test_as_physical_list(self):
        layout = Layout(2, 5)
        layout.place(0, 4)
        layout.place(1, 1)
        assert layout.physical_map() == {0: 4, 1: 1}


class TestGreedyLayout:
    def test_heavy_pairs_adjacent(self):
        coupling = linear(8)
        interactions = [(0, 1)] * 10 + [(1, 2)] * 10
        layout = greedy_interaction_layout(3, coupling, interactions)
        assert coupling.are_connected(layout.physical(0), layout.physical(1))
        assert coupling.are_connected(layout.physical(1), layout.physical(2))

    def test_all_placed(self):
        layout = greedy_interaction_layout(5, grid(3, 3), [(0, 1), (2, 3)])
        positions = [layout.physical(q) for q in range(5)]
        assert len(set(positions)) == 5


class TestRouter:
    def test_adjacent_gates_pass_through(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1)
        qc.cx(1, 2)
        routed = route_circuit(qc, linear(3))
        assert routed.num_swaps == 0
        assert verify_hardware_compliant(routed.circuit, linear(3))

    def test_distant_gate_gets_swaps(self):
        qc = QuantumCircuit(4)
        qc.cx(0, 3)
        routed = route_circuit(qc, linear(4))
        assert routed.num_swaps == 2
        assert routed.swap_cnots == 6
        assert verify_hardware_compliant(routed.circuit, linear(4))

    def test_width_check(self):
        with pytest.raises(ValueError):
            route_circuit(QuantumCircuit(5), linear(3))

    @pytest.mark.parametrize("topology", [linear(5), ring(5), grid(2, 3)])
    def test_routing_preserves_semantics(self, topology):
        rng = np.random.default_rng(9)
        num_logical = 4
        qc = QuantumCircuit(num_logical)
        for _ in range(12):
            if rng.random() < 0.5:
                a, b = rng.choice(num_logical, 2, replace=False)
                qc.cx(int(a), int(b))
            else:
                qc.rz(float(rng.uniform(-2, 2)), int(rng.integers(num_logical)))
                qc.h(int(rng.integers(num_logical)))
        routed = route_circuit(qc, topology)
        assert verify_hardware_compliant(routed.circuit, topology)

        state_in = random_logical_state(rng, num_logical)
        reference = Statevector(num_logical)
        reference.state = state_in.copy()
        reference.run(qc)

        initial = [routed.initial_layout.physical(q) for q in range(num_logical)]
        final = [routed.final_layout.physical(q) for q in range(num_logical)]
        sim = Statevector(topology.num_qubits)
        sim.state = embed_state(state_in, initial, topology.num_qubits)
        sim.run(routed.circuit)
        expected = embed_state(reference.state, final, topology.num_qubits)
        assert abs(np.vdot(expected, sim.state)) == pytest.approx(1.0, abs=1e-9)

    def test_verify_detects_violation(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 2)
        assert not verify_hardware_compliant(qc, linear(3))

    def test_verify_detects_off_edge_swap(self):
        qc = QuantumCircuit(3)
        qc.swap(0, 2)
        assert not verify_hardware_compliant(qc, linear(3))
        taped = QuantumCircuit.from_tape(qc.tape())
        assert not verify_hardware_compliant(taped, linear(3))
        assert taped.tape_backed

    def test_verify_skips_barriers(self):
        # A barrier is not a gate: neither a 2-wire barrier across an
        # uncoupled pair nor a wider one makes the circuit non-compliant.
        qc = QuantumCircuit(4)
        qc.barrier(0, 3)
        qc.cx(0, 1)
        qc.barrier(0, 2, 3)
        qc.swap(2, 3)
        assert verify_hardware_compliant(qc, linear(4))
        assert verify_hardware_compliant(QuantumCircuit.from_tape(qc.tape()),
                                         linear(4))
        qc.cx(1, 3)
        assert not verify_hardware_compliant(qc, linear(4))

    @pytest.mark.parametrize(
        "device", ["linear:6", "ring:6", "grid:3x3", "heavy-hex:5"]
    )
    def test_verify_matches_gate_scan(self, device):
        # Random mixes of H, CX, SWAP and barriers of every width: the
        # circuit is compliant iff every CX and SWAP sits on a coupler,
        # for the gate list and the undecoded tape alike.
        coupling = resolve_device(device, 6)
        n = coupling.num_qubits
        edges = sorted(coupling.edges)
        rng = np.random.default_rng(sum(map(ord, device)))
        outcomes = set()
        for _ in range(40):
            qc = QuantumCircuit(n)
            for _ in range(int(rng.integers(1, 10))):
                kind = int(rng.integers(4))
                if kind == 0:
                    qc.h(int(rng.integers(n)))
                elif kind == 1:
                    wires = rng.choice(n, int(rng.integers(2, n + 1)),
                                       replace=False)
                    qc.barrier(*(int(q) for q in wires))
                else:
                    if rng.random() < 0.9:
                        a, b = edges[int(rng.integers(len(edges)))]
                    else:
                        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
                    (qc.cx if kind == 2 else qc.swap)(a, b)
            expected = all(
                coupling.are_connected(*gate.qubits)
                for gate in qc.gates
                if gate.name in ("cx", "swap")
            )
            outcomes.add(expected)
            assert verify_hardware_compliant(qc, coupling) == expected
            taped = QuantumCircuit.from_tape(qc.tape())
            assert verify_hardware_compliant(taped, coupling) == expected
            assert taped.tape_backed
        assert outcomes == {True, False}

    def test_disconnected_device_raises(self):
        # Two components, {0, 1} and {2, 3}: no SWAP chain can bring a CX
        # across them together, so both routers refuse instead of
        # emitting a CX on an uncoupled pair.
        coupling = CouplingGraph(4, [(0, 1), (2, 3)], name="split")
        qc = QuantumCircuit(4)
        qc.cx(0, 1)
        qc.cx(1, 2)
        with pytest.raises(ValueError, match="no path"):
            route_circuit(qc, coupling)
        with pytest.raises(ValueError, match="no path"):
            route_circuit_noise(qc, coupling, synthetic_calibration(coupling))

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_symbolic_and_wide_barrier_circuits_route_on_the_tape(
        self, symbolic
    ):
        # Symbolic angles ride the tape and a barrier wider than two wires
        # encodes as a chain of two-wire barriers, which the router drops
        # whole: the output is a tape with the reference's decisions,
        # gate for gate.
        angle = Parameter("theta") if symbolic else 0.25
        qc = QuantumCircuit(5)
        qc.h(0)
        qc.cx(0, 4)
        qc.barrier(1)
        qc.rz(angle, 4)
        qc.barrier(0, 1, 2, 3)
        qc.cx(1, 3)
        qc.barrier(2, 3)
        qc.cx(4, 0)
        qc.barrier()
        qc.rz(angle, 2)
        routed = route_circuit(qc, linear(5))
        reference = route_circuit_reference(qc, linear(5))
        assert routed.circuit.tape_backed
        assert routed.circuit.gates == reference.circuit.gates
        assert routed.num_swaps == reference.num_swaps > 0
        assert routed.final_layout.physical_map() == (
            reference.final_layout.physical_map()
        )


class TestBridging:
    def test_chain_gates(self):
        gates = bridge_chain_gates([0, 1, 2])
        assert [g.qubits for g in gates] == [(0, 1), (1, 2)]
        with pytest.raises(ValueError):
            bridge_chain_gates([0])

    def test_costs(self):
        # Distance 2 (one ancilla): bridge 4 CNOTs vs SWAP route 5.
        assert bridged_cnot_cost(2) == 4
        assert swap_route_cost(2) == 5

    def test_bridge_semantics_with_mirror(self):
        """Forward chain + RZ + mirrored chain == CNOT RZ CNOT on endpoints."""
        rng = np.random.default_rng(4)
        for hops in (2, 3):
            path = list(range(hops + 1))
            num_qubits = hops + 1
            bridged = QuantumCircuit(num_qubits)
            chain = bridge_chain_gates(path)
            for gate in chain:
                bridged.append(gate)
            bridged.rz(0.8, path[-1])
            for gate in reversed(chain):
                bridged.append(gate)

            direct = QuantumCircuit(num_qubits)
            direct.cx(path[0], path[-1])
            direct.rz(0.8, path[-1])
            direct.cx(path[0], path[-1])

            # Ancillas start in |0>; endpoints carry a random 2-qubit state.
            state = random_logical_state(rng, 2)
            start = embed_state(state, [path[0], path[-1]], num_qubits)
            sim_a = Statevector(num_qubits)
            sim_a.state = start.copy()
            sim_a.run(bridged)
            sim_b = Statevector(num_qubits)
            sim_b.state = start.copy()
            sim_b.run(direct)
            assert np.allclose(sim_a.state, sim_b.state)
            # Every ancilla is restored to |0>.
            for ancilla in path[1:-1]:
                assert sim_a.probability_one(ancilla) == pytest.approx(0.0)
