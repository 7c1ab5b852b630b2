"""Randomized differential tests: vectorized hot tail vs frozen references.

Every pass that was rewritten onto the encoded gate tape (or into array
kernels) keeps a frozen scalar reference (``repro.passes.reference``,
``repro.routing.reference``, ``repro.compiler.tetris.reference``).  The
contract is *decision identity*: on any input the vectorized pass must
produce the same gate sequence, bit for bit — not merely an equivalent
circuit.  These tests compare the two implementations on randomized
inputs by gate sequence and by statevector, and pin the end-to-end
tetris chain on a real UCC workload.

Half of the random circuits carry symbolic angles, as a template
compile does: merged symbolic rotations must both survive as sums and
cancel to floats exactly as the references do, and the live passes must
stay on the tape.  Barriers over more than two wires encode as a chain
of two-wire barriers, so there the live passes must equal the
references run on that chain.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import Parameter, QuantumCircuit
from repro.circuit import gate as g
from repro.circuit.gate import Gate
from repro.compiler.base import interaction_pairs
from repro.compiler.tetris.ir import lower_blocks
from repro.compiler.tetris.reference import run_tetris_reference
from repro.hardware import grid, linear
from repro.hardware.families import resolve_device
from repro.passes import cancel_gates, consolidate_one_qubit_runs
from repro.passes.reference import (
    cancel_gates_reference,
    consolidate_one_qubit_runs_reference,
)
from repro.pauli import PauliBlock
from repro.pipeline import run_pipeline
from repro.routing.layout import greedy_interaction_layout
from repro.routing.reference import (
    greedy_interaction_layout_reference,
    route_circuit_reference,
)
from repro.routing.router import route_circuit
from repro.sim import circuit_unitary
from repro.workloads import workload_blocks

from helpers import (
    count_deferrals,
    count_scans,
    interaction_pairs_reference,
    random_pauli_string,
    unitaries_equal,
)


def sig(circuit):
    return [(G.name, G.qubits, G.params) for G in circuit.gates]


THETA = Parameter("theta")
#: Shared symbolic angles: theta and -theta merge to the float 0.0, the
#: other pairs to a new expression.
SYMBOLIC_ANGLES = (THETA, -THETA, 0.5 * THETA + 0.3)


def random_circuit(rng, num_qubits, num_gates, symbolic=False,
                   wide_barriers=False):
    """Random 1Q/CX circuits; ``symbolic`` draws about half the rotation
    angles from :data:`SYMBOLIC_ANGLES`, ``wide_barriers`` mixes in
    barriers over three or more wires."""
    qc = QuantumCircuit(num_qubits)
    names = ("h", "s", "sdg", "x", "y", "z", "rz", "rx", "ry", "cx", "cx", "cx")
    if wide_barriers:
        names += ("barrier",)
    for _ in range(num_gates):
        name = names[rng.integers(len(names))]
        if name == "cx":
            a, b = rng.choice(num_qubits, 2, replace=False)
            qc.cx(int(a), int(b))
        elif name in ("rz", "rx", "ry"):
            angle = float(rng.uniform(-7, 7))
            if symbolic and rng.integers(2):
                angle = SYMBOLIC_ANGLES[rng.integers(len(SYMBOLIC_ANGLES))]
            getattr(qc, name)(angle, int(rng.integers(num_qubits)))
        elif name == "barrier":
            width = int(rng.integers(3, num_qubits + 1))
            wires = rng.choice(num_qubits, width, replace=False)
            qc.barrier(*(int(q) for q in wires))
        else:
            getattr(qc, name)(int(rng.integers(num_qubits)))
    return qc


def chained(circuit):
    """``circuit`` with each barrier over k > 2 wires written out as its
    2k - 3 two-wire barriers, forward over the wires and then back."""
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    for gate in circuit.gates:
        wires = gate.qubits
        if gate.name == g.BARRIER and len(wires) > 2:
            links = list(zip(wires, wires[1:]))
            out.gates.extend(
                Gate(g.BARRIER, link) for link in links + links[-2::-1]
            )
        else:
            out.gates.append(gate)
    return out


class TestPeepholeDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cancel_matches_reference_gate_for_gate(self, seed):
        rng = np.random.default_rng(seed)
        qc = random_circuit(rng, int(rng.integers(2, 6)),
                            int(rng.integers(0, 80)), symbolic=seed % 2 == 1)
        out = cancel_gates(qc)
        assert out.tape_backed
        assert sig(out) == sig(cancel_gates_reference(qc))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cancel_preserves_statevector(self, seed):
        rng = np.random.default_rng(seed)
        qc = random_circuit(rng, 3, int(rng.integers(5, 50)))
        reduced = cancel_gates(qc)
        assert unitaries_equal(circuit_unitary(qc), circuit_unitary(reduced))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_consolidate_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        qc = random_circuit(rng, int(rng.integers(2, 5)),
                            int(rng.integers(0, 60)), symbolic=seed % 2 == 1)
        out = consolidate_one_qubit_runs(qc)
        assert out.tape_backed
        assert sig(out) == sig(consolidate_one_qubit_runs_reference(qc))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_wide_barriers_match_references_on_the_chain(self, seed):
        rng = np.random.default_rng(seed)
        qc = random_circuit(rng, int(rng.integers(3, 6)),
                            int(rng.integers(0, 60)), symbolic=seed % 2 == 1,
                            wide_barriers=True)
        chain = chained(qc)
        cancelled = cancel_gates(qc)
        assert cancelled.tape_backed
        assert sig(cancelled) == sig(cancel_gates_reference(chain))
        consolidated = consolidate_one_qubit_runs(qc)
        assert consolidated.tape_backed
        assert sig(consolidated) == sig(
            consolidate_one_qubit_runs_reference(chain)
        )


#: Angles whose sums often vanish or repeat, so that merges cancel.
DENSE_ANGLES = (0.25, -0.25, 0.5, -0.5, math.pi, 2 * math.pi)


def cnot_dense_circuit(rng, symbolic=False):
    """Half CNOTs on at most 4 wires, with RZ/RX rotations the CNOT
    walks skip; ``symbolic`` scales about half the angles by theta."""
    num_qubits = int(rng.integers(2, 5))
    qc = QuantumCircuit(num_qubits)
    for _ in range(int(rng.integers(4, 40))):
        kind = int(rng.integers(8))
        if kind < 4:
            a, b = rng.choice(num_qubits, 2, replace=False)
            qc.cx(int(a), int(b))
        elif kind < 7:
            angle = DENSE_ANGLES[rng.integers(len(DENSE_ANGLES))]
            if symbolic and rng.integers(2):
                angle = angle * THETA
            name = ("rz", "rx", "rz")[kind - 4]
            getattr(qc, name)(angle, int(rng.integers(num_qubits)))
        else:
            name = ("h", "x", "z", "s", "sdg")[rng.integers(5)]
            getattr(qc, name)(int(rng.integers(num_qubits)))
    return qc


class TestCancelScans:
    def test_cnot_dense_circuits_match_reference(self, monkeypatch):
        # A scan reruns only when a row it exposed fires: the output must
        # still be the reference's, and no scan after the first may be a
        # no-op.
        scans = count_scans(monkeypatch)
        rescanned = 0
        for seed in range(400):
            rng = np.random.default_rng(seed)
            qc = cnot_dense_circuit(rng, symbolic=seed % 2 == 1)
            scans.clear()
            out = cancel_gates(qc)
            assert sig(out) == sig(cancel_gates_reference(qc)), seed
            assert all(alive is not None for alive in scans[1:]), seed
            rescanned += len(scans) > 1
        assert rescanned >= 5


class TestInteractionPairs:
    """The layout's pair list, built from the packed support planes,
    equals the string-by-string list, order included."""

    @pytest.mark.parametrize("bench,encoder,scale", [
        ("chem:LiH", "JW", "full"),
        ("chem:LiH", "BK", "full"),
        ("chem:BeH2", "BK", "small"),
        ("ucc:UCC-12", "JW", "full"),
        ("ucc:UCC-20", "BK", "small"),
        ("qaoa:Rand-16", "JW", "small"),
        ("qaoa:REG3-20", "JW", "small"),
    ])
    def test_workloads(self, bench, encoder, scale):
        blocks = workload_blocks(bench, encoder, scale)
        pairs = interaction_pairs(blocks)
        assert pairs
        assert pairs == interaction_pairs_reference(blocks)
        assert all(type(q) is int for pair in pairs[:50] for q in pair)

    @pytest.mark.parametrize("num_qubits", [1, 5, 64, 70, 130])
    def test_random_blocks_across_word_boundaries(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        blocks = [
            PauliBlock([random_pauli_string(rng, num_qubits, min_weight=0)
                        for _ in range(int(rng.integers(1, 4)))])
            for _ in range(12)
        ]
        assert interaction_pairs(blocks) == interaction_pairs_reference(blocks)

    def test_no_blocks(self):
        assert interaction_pairs([]) == []


class TestLayoutRouteDifferential:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_layout_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        num_logical = int(rng.integers(2, 9))
        coupling = grid(3, 3)
        pairs = [
            tuple(int(q) for q in rng.choice(num_logical, 2, replace=False))
            for _ in range(int(rng.integers(1, 25)))
        ]
        ref = greedy_interaction_layout_reference(num_logical, coupling, pairs)
        new = greedy_interaction_layout(num_logical, coupling, pairs)
        assert ref.physical_map() == new.physical_map()

    @pytest.mark.parametrize("bench,device", [
        ("ucc:UCC-12", "grid:4x4"),
        ("ucc:UCC-20", "grid:5x5"),
        ("ucc:UCC-20", "heavy-hex:ibm-65"),
        ("qaoa:Rand-16", "grid:4x4"),
    ])
    def test_workload_layout_matches_reference(self, bench, device):
        # Real tallies: UCC strings repeat the same pairs many times, and
        # QAOA graphs give many qubits the same degree, so the stable
        # argsort must break degree ties exactly as ``sorted`` does.
        blocks = workload_blocks(bench, "JW", "small")
        num_logical = blocks[0].num_qubits
        coupling = resolve_device(device, num_logical)
        pairs = interaction_pairs(blocks)
        ref = greedy_interaction_layout_reference(num_logical, coupling, pairs)
        new = greedy_interaction_layout(num_logical, coupling, pairs)
        assert ref.physical_map() == new.physical_map()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_sparse_layout_matches_reference_on_heavy_hex(self, seed):
        # Few pairs over many logical qubits: some qubits never interact
        # (degree 0) and are placed by the nearest-anchor rule, and an
        # explicit seed qubit overrides the best-connected default.
        rng = np.random.default_rng(seed)
        coupling = resolve_device("heavy-hex:ibm-65", 20)
        num_logical = int(rng.integers(2, 28))
        pairs = [
            tuple(int(q) for q in rng.choice(num_logical, 2, replace=False))
            for _ in range(int(rng.integers(0, 2 * num_logical)))
        ]
        seed_qubit = (
            None if rng.integers(2) else int(rng.integers(coupling.num_qubits))
        )
        ref = greedy_interaction_layout_reference(
            num_logical, coupling, pairs, seed_qubit=seed_qubit
        )
        new = greedy_interaction_layout(
            num_logical, coupling, pairs, seed_qubit=seed_qubit
        )
        assert ref.physical_map() == new.physical_map()

    def test_layout_without_pairs_matches_reference(self):
        coupling = grid(3, 3)
        ref = greedy_interaction_layout_reference(5, coupling, [])
        new = greedy_interaction_layout(5, coupling, [])
        assert ref.physical_map() == new.physical_map()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_whole_region_and_hop_distance_change_nothing(self, seed):
        # ``allowed`` and ``distance`` default to the hop-count behavior:
        # the whole device as the region, or the hop matrix as floats,
        # must place every qubit where the default call does.
        rng = np.random.default_rng(seed)
        coupling = grid(4, 4)
        num_logical = int(rng.integers(2, 12))
        pairs = [
            tuple(int(q) for q in rng.choice(num_logical, 2, replace=False))
            for _ in range(int(rng.integers(1, 30)))
        ]
        default = greedy_interaction_layout(num_logical, coupling, pairs)
        region = greedy_interaction_layout(
            num_logical, coupling, pairs, allowed=range(coupling.num_qubits)
        )
        hops = greedy_interaction_layout(
            num_logical, coupling, pairs,
            distance=coupling.distance_matrix().astype(float),
        )
        assert region.physical_map() == default.physical_map()
        assert hops.physical_map() == default.physical_map()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_allowed_region_confines_placement(self, seed):
        rng = np.random.default_rng(seed)
        coupling = grid(4, 4)
        num_logical = int(rng.integers(2, 9))
        region = rng.choice(
            coupling.num_qubits,
            int(rng.integers(num_logical, coupling.num_qubits + 1)),
            replace=False,
        ).tolist()
        pairs = [
            tuple(int(q) for q in rng.choice(num_logical, 2, replace=False))
            for _ in range(int(rng.integers(1, 20)))
        ]
        layout = greedy_interaction_layout(
            num_logical, coupling, pairs, allowed=region
        )
        placed = layout.physical_map()
        assert sorted(placed) == list(range(num_logical))
        assert set(placed.values()) <= set(region)

    def test_region_smaller_than_workload_raises(self):
        with pytest.raises(ValueError, match="allowed region has 2 qubits"):
            greedy_interaction_layout(3, grid(3, 3), [(0, 1)], allowed=[0, 1])

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10**6))
    def test_route_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        num_logical = int(rng.integers(2, 7))
        qc = random_circuit(rng, num_logical, int(rng.integers(5, 40)),
                            symbolic=seed % 2 == 1)
        coupling = linear(num_logical + 1)
        ref = route_circuit_reference(qc, coupling)
        new = route_circuit(qc, coupling)
        assert new.circuit.tape_backed
        assert sig(ref.circuit) == sig(new.circuit)
        assert ref.num_swaps == new.num_swaps
        assert (
            ref.initial_layout.physical_map() == new.initial_layout.physical_map()
        )


def random_commuting_block(rng, num_qubits):
    strings = [random_pauli_string(rng, num_qubits)]
    for _ in range(int(rng.integers(0, 3))):
        for _attempt in range(20):
            candidate = random_pauli_string(rng, num_qubits)
            if all(candidate.commutes_with(s) for s in strings):
                strings.append(candidate)
                break
    weights = [float(w) or 0.1 for w in rng.uniform(-1, 1, size=len(strings))]
    return PauliBlock(strings, weights, angle=float(rng.uniform(-1.5, 1.5)))


class TestIRStringOrder:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_string_order_matches_pool_reconstruction(self, seed):
        # The IR records its permutation back to input indices; it must
        # agree with rebuilding the mapping from the strings themselves
        # (first-available index per string — the pre-refactor rule).
        rng = np.random.default_rng(seed)
        block = random_commuting_block(rng, int(rng.integers(2, 6)))
        if rng.integers(2) and len(block) > 1:
            # Duplicated strings exercise the tie-break.
            block = PauliBlock(
                list(block.strings) + [block.strings[0]],
                list(block.weights) + [block.weights[0]],
                angle=block.angle,
            )
        (ir,) = lower_blocks([block], sort_strings=True)
        pool = {}
        for position, string in enumerate(block.strings):
            pool.setdefault(string, []).append(position)
        expected = [pool[string].pop(0) for string in ir.strings]
        assert list(ir.string_order) == expected
        assert sorted(ir.string_order) == list(range(len(block)))


class TestTetrisEndToEnd:
    def reference_e2e(self, blocks, coupling, num_logical):
        ir_blocks = lower_blocks(blocks, sort_strings=True)
        layout = greedy_interaction_layout_reference(
            num_logical, coupling, interaction_pairs(blocks)
        )
        circuit, _, _ = run_tetris_reference(ir_blocks, layout, coupling)
        circuit = circuit.decompose_swaps()
        circuit = cancel_gates_reference(circuit)
        return consolidate_one_qubit_runs_reference(circuit)

    @pytest.mark.parametrize("n,device", [
        (8, "grid:3x3"), (12, "grid:4x4"), (12, "heavy-hex:ibm-65"),
    ])
    def test_ucc_pipeline_matches_reference_chain(self, n, device, monkeypatch):
        blocks = workload_blocks(f"ucc:UCC-{n}", "JW", "smoke")
        coupling = resolve_device(device, n)
        deferrals = count_deferrals(monkeypatch)
        live = run_pipeline(
            "tetris", blocks, coupling, num_logical=n
        ).state["circuit"]
        # Leaves are deferred on every device here, whether the block
        # fills a small grid or heavy-hex leaves a leaf's SWAP path no
        # way around it, so the oracle checks the deferred step too.
        assert sum(deferrals) > 0
        ref = self.reference_e2e(blocks, coupling, n)
        assert sig(live) == sig(ref)

    def test_random_blocks_match_reference_chain(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            num_qubits = int(rng.integers(3, 5))
            blocks = [
                random_commuting_block(rng, num_qubits)
                for _ in range(int(rng.integers(1, 4)))
            ]
            coupling = grid(2, 3)
            live = run_pipeline(
                "tetris", blocks, coupling, num_logical=num_qubits
            ).state["circuit"]
            ref = self.reference_e2e(blocks, coupling, num_qubits)
            assert sig(live) == sig(ref)
