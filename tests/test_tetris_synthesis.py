"""Tests for Algorithm-1 block synthesis: placement and emission."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.pipeline.passes as pipeline_passes
from repro.circuit import QuantumCircuit
from repro.compiler.mapping_utils import SwapTracker
from repro.compiler.tetris import lower_blocks, synthesize_tetris_block
from repro.compiler.tetris import synthesis
from repro.compiler.tetris.synthesis import place_block
from repro.hardware import linear, resolve_device
from repro.passes import cancel_gates
from repro.pauli import PauliBlock, PauliString
from repro.pipeline import run_pipeline
from repro.routing import Layout, verify_hardware_compliant
from repro.service.jobs import CompileJob, job_blocks
from repro.sim import Statevector
from repro.workloads import WORKLOADS, workload_blocks

from helpers import embed_state, random_logical_state, reference_circuit


def synthesize(blocks, coupling, layout=None, **kwargs):
    layout = layout or Layout.trivial(blocks[0].num_qubits, coupling.num_qubits)
    circuit = QuantumCircuit(coupling.num_qubits)
    tracker = SwapTracker(circuit, layout)
    for ir in lower_blocks(blocks):
        synthesize_tetris_block(ir, tracker, coupling, **kwargs)
    return circuit, layout, tracker


def check_equivalence(blocks, circuit, initial, final, num_physical, seed=0):
    rng = np.random.default_rng(seed)
    num_logical = blocks[0].num_qubits
    # lower_blocks may reorder strings within blocks (commuting), so the
    # reference can use the natural order.
    reference = reference_circuit(blocks)
    state = random_logical_state(rng, num_logical)
    ref = Statevector(num_logical)
    ref.state = state.copy()
    ref.run(reference)
    expected = embed_state(ref.state, final, num_physical)
    sim = Statevector(num_physical)
    sim.state = embed_state(state, initial, num_physical)
    sim.run(circuit)
    assert abs(np.vdot(expected, sim.state)) == pytest.approx(1.0, abs=1e-9)


def fig5_like_blocks():
    return [
        PauliBlock(
            [PauliString("XYZZZI"), PauliString("YXZZZI")],
            weights=[0.5, -0.5],
            angle=0.9,
        )
    ]


class TestUniformEmission:
    def test_leaf_forest_emitted_once(self):
        """Hoisted emission: leaf-internal CNOTs appear exactly twice."""
        blocks = fig5_like_blocks()
        coupling = linear(6)
        circuit, layout, tracker = synthesize(blocks, coupling)
        assert verify_hardware_compliant(circuit.decompose_swaps(), coupling)
        # Structural bound: with k strings and hoisting, the raw CNOT count
        # is strictly below per-string ladders (2 strings x 2 x 5 edges).
        raw_cx = circuit.decompose_swaps().count_ops()["cx"]
        naive_cx = 2 * 2 * 5 + 3 * tracker.num_swaps
        assert raw_cx < naive_cx

    def test_equivalence_with_initial_trivial_layout(self):
        blocks = fig5_like_blocks()
        coupling = linear(6)
        initial = list(range(6))
        circuit, layout, _tracker = synthesize(blocks, coupling)
        final = [layout.physical(q) for q in range(6)]
        check_equivalence(blocks, circuit, initial, final, 6)

    def test_single_string_block(self):
        blocks = [PauliBlock([PauliString("ZIZIZ")], angle=0.4)]
        coupling = linear(6)
        circuit, layout, _tracker = synthesize(blocks, coupling)
        final = [layout.physical(q) for q in range(5)]
        check_equivalence(blocks, circuit, list(range(5)), final, 6)

    def test_degenerate_identical_strings(self):
        blocks = [
            PauliBlock([PauliString("ZZZI"), PauliString("ZZZI")], weights=[1, 1])
        ]
        coupling = linear(5)
        circuit, layout, _tracker = synthesize(blocks, coupling)
        final = [layout.physical(q) for q in range(4)]
        check_equivalence(blocks, circuit, list(range(4)), final, 5)


class TestNonUniformEmission:
    def test_varying_support_fallback(self):
        blocks = [
            PauliBlock(
                [PauliString("XZZY"), PauliString("YZIX")],
                weights=[0.5, -0.5],
            )
        ]
        coupling = linear(5)
        circuit, layout, _tracker = synthesize(blocks, coupling)
        assert verify_hardware_compliant(circuit.decompose_swaps(), coupling)
        final = [layout.physical(q) for q in range(4)]
        check_equivalence(blocks, circuit, list(range(4)), final, 5)


class TestInterBlockCancellation:
    def test_identical_consecutive_blocks_cancel(self):
        """Sec. V-B: matching leaf trees cancel across block boundaries."""
        block = fig5_like_blocks()[0]
        coupling = linear(6)
        one, _layout1, _t1 = synthesize([block], coupling)
        two, _layout2, _t2 = synthesize([block, block], coupling)
        cx_one = cancel_gates(one.decompose_swaps()).count_ops()["cx"]
        cx_two = cancel_gates(two.decompose_swaps()).count_ops()["cx"]
        # The second block re-uses the first block's arrangement: its leaf
        # fan-in cancels against the first block's fan-out.
        assert cx_two < 2 * cx_one


class TestPlaceBlock:
    def test_cost_matches_real_placement(self):
        blocks = fig5_like_blocks()
        coupling = linear(6)
        layout = Layout.trivial(6, 6)
        ir = lower_blocks(blocks)[0]
        predicted = place_block(ir, layout, coupling).num_swaps
        circuit = QuantumCircuit(6)
        tracker = SwapTracker(circuit, layout)
        synthesize_tetris_block(ir, tracker, coupling)
        assert predicted == tracker.num_swaps


class TestPlaceOnce:
    @pytest.mark.parametrize("compiler", ["tetris", "tetris:k=3", "tetris:k=1"])
    def test_each_scheduled_block_is_placed_once(self, compiler, monkeypatch):
        """Algorithm 1's placement runs once per trial, plus once per
        block scheduled without a trial: synthesis replays the winning
        trial instead of placing the block again."""
        placements = []
        place = synthesis._place_block

        def counting_place(*args):
            placements.append(len(placements))
            return place(*args)

        trials = []
        untried = []
        chain = pipeline_passes.chain_order

        def counting_chain(blocks, lookahead=1, cost=None):
            def counted(index, cap):
                trials.append(index)
                return cost(index, cap)

            seen = 0
            for index in chain(blocks, lookahead=lookahead, cost=counted):
                if len(trials) == seen:
                    untried.append(index)
                seen = len(trials)
                yield index

        monkeypatch.setattr(synthesis, "_place_block", counting_place)
        monkeypatch.setattr(pipeline_passes, "chain_order", counting_chain)
        job = CompileJob(bench="chem:LiH", encoder="BK", compiler=compiler,
                         device="heavy-hex:ibm-65", scale="full")
        blocks = job_blocks(job)
        coupling = resolve_device(job.device, blocks[0].num_qubits)
        run = run_pipeline(compiler, blocks, coupling)
        assert sorted(run.result.extra["block_order"]) == list(range(len(blocks)))
        assert untried[0] == run.result.extra["block_order"][0]
        if compiler == "tetris:k=1":
            assert not trials and len(untried) == len(blocks)
        else:
            assert len(trials) > len(blocks)
        assert len(placements) == len(trials) + len(untried)


@lru_cache(maxsize=None)
def lowered_workload(spec, encoder, scale="smoke"):
    return lower_blocks(workload_blocks(spec, encoder, scale))


WORKLOAD_CELLS = [
    (f"{provider}:{instance}", encoder)
    for provider in WORKLOADS.names()
    for instance in WORKLOADS.get(provider).instance_names()
    for encoder in (
        ("JW", "BK") if WORKLOADS.get(provider).uses_encoder else ("JW",)
    )
]


def layout_of(positions, num_physical):
    layout = Layout(len(positions), num_physical)
    for logical, physical in enumerate(positions):
        layout.place(logical, int(physical))
    return layout


def relabel_outside(layout, block_qubits, rng):
    """``layout`` with ``block_qubits`` left where they are and every
    other logical qubit dealt at random over the slots the block does
    not hold: outside qubits trade places and move into free slots."""
    phys = layout.physical_map()
    held = {phys[q] for q in block_qubits}
    outside = [q for q in sorted(phys) if q not in block_qubits]
    pool = [p for p in range(layout.num_physical) if p not in held]
    slots = rng.choice(pool, size=len(outside), replace=False)
    positions = dict(phys)
    positions.update(zip(outside, slots.tolist()))
    return layout_of(
        [positions[q] for q in range(layout.num_logical)], layout.num_physical
    )


def capped_cost(ir, layout, coupling, cap):
    placement = place_block(ir, layout, coupling, cap=cap)
    return cap if placement is None else placement.num_swaps


class TestPlacementReadsOnlyItsBlock:
    """A trial's placement is a function of its own block's qubit
    positions: relabelling every other logical qubit, some of them into
    free slots, changes neither the record nor the capped cost."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(WORKLOAD_CELLS),
        st.sampled_from(["heavy-hex:ibm-65", "grid:4x4"]),
        st.integers(0, 10**6),
        st.integers(0, 2**32 - 1),
    )
    def test_relabelled_outside_qubits(self, cell, device, pick, seed):
        irs = lowered_workload(*cell)
        num_logical = irs[0].num_qubits
        assume(device != "grid:4x4" or num_logical <= 16)
        coupling = resolve_device(device, num_logical)
        ir = irs[pick % len(irs)]
        rng = np.random.default_rng(seed)
        layout = layout_of(
            rng.choice(coupling.num_qubits, size=num_logical, replace=False),
            coupling.num_qubits,
        )
        block_qubits = set(ir.root_qubits) | set(ir.leaf_qubits)
        relabelled = relabel_outside(layout, block_qubits, rng)
        placement = place_block(ir, layout, coupling)
        assert place_block(ir, relabelled, coupling) == placement
        cap = int(rng.integers(1, placement.num_swaps + 2))
        assert capped_cost(ir, relabelled, coupling, cap) == (
            capped_cost(ir, layout, coupling, cap)
        )

    def test_deferred_leaf_ignores_free_slots(self):
        """Full-scale BeH2/JW on heavy-hex:ibm-65: block 123 trial-placed
        from a layout its compile reaches.  Leaf 11 is deferred (no SWAP
        path to its anchor avoids the block), and physical 24 lies on a
        path of free slots between them; moving outside qubit 0 there
        leaves the placement as it was.  A bridge check that read the
        occupancy of that path made the two differ."""
        irs = lowered_workload("chem:BeH2", "JW", "full")
        coupling = resolve_device("heavy-hex:ibm-65", 14)
        positions = [6, 16, 2, 3, 5, 20, 21, 17, 14, 4, 19, 15, 11, 18]
        layout = layout_of(positions, coupling.num_qubits)
        ir = irs[123]
        assert 0 not in ir.root_qubits + ir.leaf_qubits
        moved = layout_of([24] + positions[1:], coupling.num_qubits)
        placement = place_block(ir, layout, coupling)
        assert place_block(ir, moved, coupling) == placement

