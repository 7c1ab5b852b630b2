"""Cross-compiler tests: hardware compliance, semantics, accounting.

The semantic checks replay each compiler's recorded block order through a
naive reference circuit and compare statevectors modulo the layout
permutation — the strongest property a compiler can satisfy.

Each compiler is a pipeline spec.  Most checks look at the compiler's own
output, before the cleanup tail: the ``+o0`` level, which only
decomposes SWAPs into CNOTs.
"""

import pytest

from repro.chem import BravyiKitaevEncoder, molecule_blocks
from repro.compiler import logical_cnot_count
from repro.hardware import fully_connected, grid, linear, ring
from repro.pauli import PauliBlock, PauliString
from repro.pipeline import run_pipeline
from repro.routing import verify_hardware_compliant
from repro.verify import verify_compilation

from helpers import assert_physical_equivalence

ALL_COMPILERS = [
    "tetris",
    "tetris:no-lookahead",
    "tetris:no-gray",
    "paulihedral",
    "max-cancel",
    "tket-like",
    "tket-like:style=qiskit-o3",
    "pcoast-like",
]

IDS = [
    "tetris",
    "tetris-sim-sched",
    "tetris-nogray",
    "paulihedral",
    "max_cancel",
    "tket-o2",
    "tket-o3",
    "pcoast",
]


def compile_raw(spec, blocks, coupling):
    """The compiler's output before cleanup (SWAPs decomposed only)."""
    return run_pipeline(f"{spec}+o0", blocks, coupling).result


def small_chemistry_blocks(num_blocks=6):
    """A few real UCCSD blocks on 6 qubits (trimmed from LiH's 12)."""
    from repro.chem.uccsd import uccsd_blocks
    from repro.chem import JordanWignerEncoder
    from repro.chem.amplitudes import synthetic_amplitudes

    blocks = uccsd_blocks(3, 1, JordanWignerEncoder(), synthetic_amplitudes(20))
    return blocks[:num_blocks]


def handmade_blocks():
    """Blocks whose strings pairwise commute (so reordering is sound)."""
    return [
        PauliBlock(
            [PauliString("XYZZZI"), PauliString("YXZZZI")],
            weights=[0.5, -0.5],
            angle=0.7,
        ),
        PauliBlock(
            [PauliString("IXZZZY"), PauliString("IYZZZX")],
            weights=[0.5, -0.5],
            angle=-0.4,
        ),
        PauliBlock([PauliString("ZZIIII")], angle=0.3),
    ]


@pytest.mark.parametrize("compiler", ALL_COMPILERS, ids=IDS)
class TestAllCompilers:
    def test_hardware_compliance(self, compiler):
        blocks = small_chemistry_blocks()
        for coupling in (linear(8), grid(2, 4), ring(8)):
            result = compile_raw(compiler, blocks, coupling)
            assert verify_hardware_compliant(result.circuit, coupling), compiler
            optimized = run_pipeline(compiler, blocks, coupling).result.circuit
            assert verify_hardware_compliant(optimized, coupling)

    def test_semantic_equivalence(self, compiler):
        blocks = handmade_blocks()
        coupling = linear(8)
        result = compile_raw(compiler, blocks, coupling)
        assert_physical_equivalence(result, blocks)

    def test_semantic_equivalence_real_uccsd(self, compiler):
        blocks = small_chemistry_blocks(4)
        coupling = grid(2, 4)
        result = compile_raw(compiler, blocks, coupling)
        assert_physical_equivalence(result, blocks)

    def test_accounting_consistency(self, compiler):
        blocks = small_chemistry_blocks()
        coupling = linear(8)
        result = compile_raw(compiler, blocks, coupling)
        metrics = result.metrics()
        assert metrics.logical_cnots == logical_cnot_count(blocks)
        assert metrics.swap_cnots == 3 * result.num_swaps
        # Emitted = total - swaps - bridge overhead; never negative pre-O3.
        emitted = metrics.cnot_gates - metrics.swap_cnots - metrics.bridge_cnots
        assert 0 <= emitted <= metrics.logical_cnots
        assert metrics.compile_seconds >= 0

    def test_determinism(self, compiler):
        blocks = small_chemistry_blocks()
        coupling = linear(8)
        first = compile_raw(compiler, blocks, coupling)
        second = compile_raw(compiler, blocks, coupling)
        assert first.circuit.gates == second.circuit.gates


class TestTetrisSpecifics:
    def test_beats_paulihedral_on_logical_cancellation(self):
        blocks = molecule_blocks("LiH")[:30]
        device = fully_connected(12)
        tetris = run_pipeline("tetris", blocks, device).metrics()
        ph = run_pipeline("paulihedral", blocks, device).metrics()
        assert tetris.cnot_gates < ph.cnot_gates

    def test_bk_blocks_compile(self):
        """Non-uniform supports (BK) exercise the per-string fallback."""
        from repro.chem.uccsd import uccsd_blocks
        from repro.chem.amplitudes import synthetic_amplitudes

        blocks = uccsd_blocks(3, 1, BravyiKitaevEncoder(), synthetic_amplitudes(20))[:4]
        coupling = grid(2, 4)
        result = compile_raw("tetris", blocks, coupling)
        assert verify_hardware_compliant(result.circuit, coupling)
        assert_physical_equivalence(result, blocks)

    def test_block_order_is_permutation(self):
        blocks = small_chemistry_blocks()
        result = compile_raw("tetris", blocks, linear(8))
        order = result.extra["block_order"]
        assert sorted(order) == list(range(len(blocks)))

    def test_swap_weight_tradeoff_direction(self):
        blocks = molecule_blocks("LiH")[:40]
        from repro.hardware import ibm_ithaca_65

        coupling = ibm_ithaca_65()
        low = compile_raw("tetris:w=0.1", blocks, coupling)
        high = compile_raw("tetris:w=100", blocks, coupling)
        assert high.num_swaps <= low.num_swaps


class TestMaxCancelSpecifics:
    def test_highest_logical_cancellation(self):
        # Cancellation ratios on the all-to-all device, so no SWAPs enter.
        blocks = molecule_blocks("LiH")[:30]
        device = fully_connected(12)
        best, ph, tetris = (
            run_pipeline(spec, blocks, device).metrics().cancel_ratio
            for spec in ("max-cancel", "paulihedral", "tetris")
        )
        assert ph <= tetris <= best + 1e-9


class TestSingleBlockEdgeCases:
    @pytest.mark.parametrize("compiler", ALL_COMPILERS, ids=IDS)
    def test_single_string_single_qubit(self, compiler):
        blocks = [PauliBlock([PauliString("IZII")], angle=0.9)]
        result = compile_raw(compiler, blocks, linear(4))
        assert_physical_equivalence(result, blocks)

    @pytest.mark.parametrize("compiler", ALL_COMPILERS, ids=IDS)
    def test_identical_strings_block(self, compiler):
        blocks = [
            PauliBlock(
                [PauliString("ZZII"), PauliString("ZZII")], weights=[0.3, 0.3]
            )
        ]
        result = compile_raw(compiler, blocks, linear(4))
        assert_physical_equivalence(result, blocks)


CHEMISTRY_COMPILERS = [
    "tetris", "paulihedral", "max-cancel", "tket-like", "pcoast-like",
]

#: Blocks holding identity strings: one of only identity strings, and
#: one mixing an identity string with another, in either order.
IDENTITY_BLOCKS = {
    "all-identity": ["III", "III"],
    "identity-first": ["III", "XXI"],
    "identity-last": ["XXI", "III"],
}


class TestIdentityStrings:
    """An identity string is a global phase: every compiler skips it."""

    @pytest.mark.parametrize("shape", sorted(IDENTITY_BLOCKS))
    @pytest.mark.parametrize("compiler", CHEMISTRY_COMPILERS)
    def test_compiles_and_verifies(self, compiler, shape):
        blocks = [
            PauliBlock(["XYZ", "YXZ"], weights=[0.5, -0.5], angle=0.7),
            PauliBlock(IDENTITY_BLOCKS[shape], weights=[0.3, -0.2], angle=0.4),
            PauliBlock(["ZZI"], angle=-0.6),
        ]
        coupling = grid(2, 2)
        result = run_pipeline(compiler, blocks, coupling).result
        assert verify_compilation(result, blocks, coupling).ok

    def test_all_identity_block_places_and_emits_nothing(self):
        from repro.circuit import QuantumCircuit
        from repro.compiler.mapping_utils import SwapTracker
        from repro.compiler.tetris import TetrisBlockIR, synthesize_tetris_block
        from repro.compiler.tetris.synthesis import place_block
        from repro.routing import Layout

        ir = TetrisBlockIR(PauliBlock(["III", "III"]))
        coupling = grid(2, 2)
        layout = Layout.trivial(3, coupling.num_qubits)
        assert place_block(ir, layout, coupling).num_swaps == 0
        tracker = SwapTracker(QuantumCircuit(coupling.num_qubits), layout)
        synthesize_tetris_block(ir, tracker, coupling)
        assert len(tracker.circuit) == 0
