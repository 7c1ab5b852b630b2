"""Tests for the Tetris-IR (root/leaf annotation, rendering, ordering)."""

from repro.compiler import TetrisBlockIR, lower_blocks
from repro.pauli import PauliBlock, PauliString


def fig5_block():
    return PauliBlock(
        [PauliString("XYZZZ"), PauliString("XXZZZ"), PauliString("YXZZZ")],
        angle=0.5,
    )


class TestRootLeafAnnotation:
    def test_fig5_sets(self):
        ir = TetrisBlockIR(fig5_block())
        assert ir.root_qubits == (0, 1)
        assert ir.leaf_qubits == (2, 3, 4)
        assert ir.uniform_support
        assert ir.qubit_order() == (0, 1, 2, 3, 4)

    def test_single_string_block_is_all_root(self):
        ir = TetrisBlockIR(PauliBlock([PauliString("ZIZ")]))
        assert ir.root_qubits == (0, 2)
        assert ir.leaf_qubits == ()

    def test_non_uniform_support_flag(self):
        block = PauliBlock([PauliString("XZZ"), PauliString("YZI")])
        ir = TetrisBlockIR(block)
        assert not ir.uniform_support
        assert ir.leaf_qubits == (1,)
        assert ir.root_qubits == (0, 2)

    def test_active_length(self):
        assert TetrisBlockIR(fig5_block()).active_length == 5


class TestStringOrdering:
    def test_gray_order_minimizes_adjacent_distance(self):
        ir = TetrisBlockIR(fig5_block())
        # Any adjacent pair in the ordered block differs in at most 2 ops.
        for a, b in zip(ir.strings, ir.strings[1:]):
            differing = sum(1 for x, y in zip(a.ops, b.ops) if x != y)
            assert differing <= 2

    def test_weights_follow_strings(self):
        block = PauliBlock(
            [PauliString("YY"), PauliString("XX")], weights=[0.5, -0.5]
        )
        ir = TetrisBlockIR(block)
        weight_of = dict(zip((str(s) for s in ir.strings), ir.weights))
        assert weight_of["XX"] == -0.5
        assert weight_of["YY"] == 0.5

    def test_sorting_can_be_disabled(self):
        block = PauliBlock([PauliString("YY"), PauliString("XX")])
        ir = TetrisBlockIR(block, sort_strings=False)
        assert [str(s) for s in ir.strings] == ["YY", "XX"]


class TestRendering:
    def test_common_section_lowercased_on_ends_only(self):
        ir = TetrisBlockIR(fig5_block(), sort_strings=False)
        text = ir.render()
        lines = text.splitlines()
        assert lines[0] == "01234"  # qubit order annotation
        assert lines[1].endswith("zzz")  # first string keeps common section
        assert len(lines[2]) == 2  # middle strings drop it
        assert lines[3].endswith("zzz")  # last string keeps it
        assert "weights" in lines[-1]

    def test_lower_blocks(self):
        irs = lower_blocks([fig5_block(), fig5_block()])
        assert len(irs) == 2
        assert all(isinstance(ir, TetrisBlockIR) for ir in irs)
