"""Tests for Algorithm-1 block synthesis: placement, emission, bridging."""

import numpy as np
import pytest

import repro.pipeline.passes as pipeline_passes
from repro.circuit import QuantumCircuit
from repro.compiler.mapping_utils import SwapTracker
from repro.compiler.tetris import (
    BlockSynthesisStats,
    lower_blocks,
    synthesize_tetris_block,
)
from repro.compiler.tetris import synthesis
from repro.compiler.tetris.synthesis import _BlockTree, _emit_uniform, try_block
from repro.hardware import grid, linear, resolve_device
from repro.passes import cancel_gates
from repro.pauli import PauliBlock, PauliString
from repro.pipeline import run_pipeline
from repro.routing import Layout, verify_hardware_compliant
from repro.service.jobs import CompileJob, job_blocks
from repro.sim import Statevector

from helpers import embed_state, random_logical_state, reference_circuit


def synthesize(blocks, coupling, layout=None, **kwargs):
    layout = layout or Layout.trivial(blocks[0].num_qubits, coupling.num_qubits)
    circuit = QuantumCircuit(coupling.num_qubits)
    tracker = SwapTracker(circuit, layout)
    stats = []
    for ir in lower_blocks(blocks):
        stats.append(synthesize_tetris_block(ir, tracker, coupling, **kwargs))
    return circuit, layout, tracker, stats


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
        circuit, layout, tracker, _stats = synthesize(blocks, coupling)
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
        circuit, layout, _tracker, _stats = synthesize(blocks, coupling)
        final = [layout.physical(q) for q in range(6)]
        check_equivalence(blocks, circuit, initial, final, 6)

    def test_single_string_block(self):
        blocks = [PauliBlock([PauliString("ZIZIZ")], angle=0.4)]
        coupling = linear(6)
        circuit, layout, _tracker, _stats = synthesize(blocks, coupling)
        final = [layout.physical(q) for q in range(5)]
        check_equivalence(blocks, circuit, list(range(5)), final, 6)

    def test_degenerate_identical_strings(self):
        blocks = [
            PauliBlock([PauliString("ZZZI"), PauliString("ZZZI")], weights=[1, 1])
        ]
        coupling = linear(5)
        circuit, layout, _tracker, _stats = synthesize(blocks, coupling)
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
        circuit, layout, _tracker, _stats = synthesize(blocks, coupling)
        assert verify_hardware_compliant(circuit.decompose_swaps(), coupling)
        final = [layout.physical(q) for q in range(4)]
        check_equivalence(blocks, circuit, list(range(4)), final, 5)


class TestBridging:
    def test_bridge_used_when_ancilla_available(self):
        """A leaf edge through a free |0> slot is emitted as a CNOT bridge.

        Placement almost never leaves a bridge (it falls back to SWAPs),
        so the emitter is driven from a hand-built tree."""
        blocks = [
            PauliBlock(
                [PauliString("XZZY"), PauliString("YZZX")],
                weights=[0.5, -0.5],
                angle=0.6,
            )
        ]
        ir = lower_blocks(blocks)[0]
        assert (ir.root_qubits, ir.leaf_qubits) == ((0, 3), (1, 2))
        coupling = linear(5)
        # Roots 0 and 3 adjacent, leaf 1 next to root 3, leaf 2 beyond
        # the free slot 3.
        initial = [0, 2, 4, 1]
        layout = Layout(4, 5)
        for logical, physical in enumerate(initial):
            layout.place(logical, physical)
        path = [4, 3, 2]  # leaf 2 -> leaf 1
        tree = _BlockTree(
            root=0,
            parent={3: 0, 1: 3, 2: 1},
            root_set={0, 3},
            leaf_set={1, 2},
            bridge_paths={2: path},
        )
        circuit = QuantumCircuit(5)
        stats = BlockSynthesisStats()
        _emit_uniform(ir, SwapTracker(circuit, layout), tree, stats)
        assert stats.bridged_edges == 1
        assert stats.bridge_overhead_cnots == 2 * (len(path) - 2)
        # A direct CX(4, 2) for the bridged edge would leave the coupling map.
        assert verify_hardware_compliant(circuit, coupling)
        check_equivalence(blocks, circuit, initial, initial, 5)

    def test_bridging_toggle_changes_nothing_semantically(self):
        blocks = fig5_like_blocks()
        coupling = grid(2, 4)
        for enable in (True, False):
            circuit, layout, _t, _s = synthesize(
                blocks, coupling, enable_bridging=enable
            )
            final = [layout.physical(q) for q in range(6)]
            check_equivalence(blocks, circuit, list(range(6)), final, 8)


class TestInterBlockCancellation:
    def test_identical_consecutive_blocks_cancel(self):
        """Sec. V-B: matching leaf trees cancel across block boundaries."""
        block = fig5_like_blocks()[0]
        coupling = linear(6)
        one, layout1, _t1, _s1 = synthesize([block], coupling)
        two, layout2, _t2, _s2 = synthesize([block, block], coupling)
        cx_one = cancel_gates(one.decompose_swaps()).count_ops()["cx"]
        cx_two = cancel_gates(two.decompose_swaps()).count_ops()["cx"]
        # The second block re-uses the first block's arrangement: its leaf
        # fan-in cancels against the first block's fan-out.
        assert cx_two < 2 * cx_one


class TestTryBlock:
    def test_cost_matches_real_placement(self):
        blocks = fig5_like_blocks()
        coupling = linear(6)
        layout = Layout.trivial(6, 6)
        ir = lower_blocks(blocks)[0]
        predicted = try_block(ir, layout, coupling)
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
