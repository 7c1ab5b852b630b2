"""Tests for Pauli blocks and similarity metrics (Eq. 1)."""

import pytest

from repro.pauli import (
    PauliBlock,
    PauliString,
    PauliTable,
    block_similarity,
    total_strings,
)


def fig5_block():
    """The block of Fig. 5: {X0 Y1 z2 z3 z4, X0 X1 z2 z3 z4, Y0 X1 z2 z3 z4}."""
    return PauliBlock(
        [PauliString("XYZZZ"), PauliString("XXZZZ"), PauliString("YXZZZ")],
        angle=0.5,
        label="fig5",
    )


class TestBlockBasics:
    def test_requires_strings(self):
        with pytest.raises(ValueError):
            PauliBlock([])

    def test_width_consistency(self):
        with pytest.raises(ValueError):
            PauliBlock([PauliString("XX"), PauliString("X")])

    def test_weights_default_and_validation(self):
        block = fig5_block()
        assert block.weights == (1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PauliBlock([PauliString("X")], weights=[1.0, 2.0])

    def test_iteration_and_indexing(self):
        block = fig5_block()
        assert len(block) == 3
        assert block[0] == PauliString("XYZZZ")
        assert [str(s) for s in block] == ["XYZZZ", "XXZZZ", "YXZZZ"]


class TestRootLeafSets:
    def test_fig5_common_and_root(self):
        block = fig5_block()
        assert block.common_qubits() == frozenset({2, 3, 4})
        assert block.root_qubits() == frozenset({0, 1})

    def test_common_substring(self):
        assert fig5_block().common_substring().ops == "IIZZZ"

    def test_single_string_block_common_is_support(self):
        block = PauliBlock([PauliString("ZIZ")])
        assert block.common_qubits() == frozenset({0, 2})
        assert block.root_qubits() == frozenset()

    def test_disjoint_strings_have_empty_common(self):
        block = PauliBlock([PauliString("XI"), PauliString("IX")])
        assert block.common_qubits() == frozenset()
        assert block.root_qubits() == frozenset({0, 1})

    def test_active_length(self):
        assert fig5_block().active_length == 5


class TestTransforms:
    def test_reordered_keeps_weights_paired(self):
        block = PauliBlock(
            [PauliString("XX"), PauliString("YY")], weights=[0.25, -0.5]
        )
        swapped = block.reordered([1, 0])
        assert swapped[0] == PauliString("YY")
        assert swapped.weights == (-0.5, 0.25)

    def test_flatten_and_total(self):
        blocks = [fig5_block(), fig5_block()]
        flat = [string for block in blocks for string in block.strings]
        assert total_strings(blocks) == len(flat) == 6


class TestSimilarity:
    def test_string_similarity(self):
        # Matching non-identity operators: qubits 1 and 2.
        assert PauliString("XZZ").common_qubits(PauliString("YZZ")) == (1, 2)

    def test_hamming(self):
        table = PauliTable.from_labels(["XYZ", "XZZ"])
        assert table.hamming_matrix()[0, 1] == 1
        with pytest.raises(ValueError):
            PauliTable.from_labels(["X", "XX"])

    def test_leaf_profile(self):
        assert fig5_block().common_substring().ops == "IIZZZ"

    def test_eq1_identical_leaf_trees(self):
        a, b = fig5_block(), fig5_block()
        assert block_similarity(a, b) == pytest.approx(1.0)

    def test_eq1_partial_overlap(self):
        a = fig5_block()  # leaf {2,3,4} all Z
        b = PauliBlock([PauliString("IXZZX"), PauliString("IYZZX")])  # leaf {2,3,4}: Z,Z,X
        common = a.common_substring().common_qubits(b.common_substring())
        assert common == (2, 3)
        # |C|=2, |LT1|=3, |LT2|=3 -> 2/4
        assert block_similarity(a, b) == pytest.approx(0.5)

    def test_eq1_empty_leaves(self):
        a = PauliBlock([PauliString("XI"), PauliString("IX")])
        assert block_similarity(a, a) == 0.0
