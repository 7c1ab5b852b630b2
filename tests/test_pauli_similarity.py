"""Direct tests for repro.pauli.similarity — Eq. (1) edge cases and the
batch similarity matrix vs per-pair equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import (
    PauliBlock,
    PauliString,
    PauliTable,
    block_similarity,
    block_similarity_matrix,
)
from repro.pauli.reference import char_similarity
from repro.pauli.similarity import leaf_table

PAULIS = "IXYZ"


def block_of(*labels, angle=1.0):
    return PauliBlock([PauliString(label) for label in labels], angle=angle)


random_blocks = st.integers(2, 24).flatmap(
    lambda n: st.lists(
        st.lists(
            st.text(alphabet=PAULIS, min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        ).map(lambda ls: block_of(*ls)),
        min_size=1,
        max_size=6,
    )
)


class TestStringHelpers:
    def test_string_similarity_counts_matches(self):
        assert len(PauliString("XZZ").common_qubits(PauliString("YZZ"))) == 2

    def test_string_similarity_ignores_identity_matches(self):
        assert PauliString("II").common_qubits(PauliString("II")) == ()

    def test_hamming_distance(self):
        hamming = PauliTable.from_labels(["XYZ", "XZZ"]).hamming_matrix()
        assert hamming[0, 1] == 1
        assert PauliTable.from_labels(["XX", "XX"]).hamming_matrix()[0, 1] == 0

    def test_width_mismatch_consistent_across_helpers(self):
        a, b = PauliString("X"), PauliString("XX")
        with pytest.raises(ValueError, match="width mismatch"):
            a.common_qubits(b)
        with pytest.raises(ValueError, match="width mismatch"):
            a.product(b)
        with pytest.raises(ValueError, match="width mismatch"):
            a.commutes_with(b)

    @given(
        st.integers(1, 100).flatmap(
            lambda n: st.tuples(
                st.text(alphabet=PAULIS, min_size=n, max_size=n),
                st.text(alphabet=PAULIS, min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=60)
    def test_randomized_old_vs_new(self, pair):
        a, b = pair
        common = PauliString(a).common_qubits(PauliString(b))
        assert len(common) == char_similarity(a, b)


class TestEq1EdgeCases:
    def test_identical_blocks(self):
        block = block_of("XYZZZ", "XXZZZ", "YXZZZ")
        assert block_similarity(block, block) == pytest.approx(1.0)

    def test_empty_leaf_sets_are_zero(self):
        # Both blocks have no block-wide common operator -> |LT| = 0.
        a = block_of("XI", "IX")
        b = block_of("YI", "IY")
        assert block_similarity(a, b) == 0.0
        assert block_similarity(a, a) == 0.0

    def test_one_empty_leaf_set(self):
        a = block_of("XI", "IX")       # empty leaf tree
        b = block_of("ZZ")             # leaf {0, 1}
        assert block_similarity(a, b) == 0.0

    def test_disjoint_supports(self):
        a = block_of("ZZII")
        b = block_of("IIZZ")
        assert block_similarity(a, b) == 0.0

    def test_same_leaf_qubits_different_ops(self):
        a = block_of("ZZ")
        b = block_of("XX")
        # |C| = 0 but both leaf sets are size 2 -> 0 / 4.
        assert block_similarity(a, b) == 0.0

    def test_partial_overlap_value(self):
        a = block_of("XYZZZ", "XXZZZ", "YXZZZ")   # leaf {2,3,4} = ZZZ
        b = block_of("IXZZX", "IYZZX")            # leaf {2,3,4} = ZZX
        common = a.common_substring().common_qubits(b.common_substring())
        assert common == (2, 3)
        assert block_similarity(a, b) == pytest.approx(2 / 4)

    def test_leaf_profile_of_single_string_block(self):
        block = block_of("ZIZ")
        assert block.common_substring().ops == "ZIZ"

    def test_identity_strings_have_empty_profile(self):
        block = block_of("III")
        assert block.common_substring().is_identity()
        assert block_similarity(block, block) == 0.0


class TestBatchMatrix:
    def test_leaf_table_rows_are_common_substrings(self):
        blocks = [block_of("XYZZZ", "XXZZZ", "YXZZZ"), block_of("ZZIII")]
        table = leaf_table(blocks)
        assert table.row(0).ops == "IIZZZ"
        assert table.row(1).ops == "ZZIII"

    def test_empty_block_list(self):
        matrix = block_similarity_matrix([])
        assert matrix.shape == (0, 0)

    @given(random_blocks)
    @settings(max_examples=40, deadline=None)
    def test_matrix_equals_per_pair(self, blocks):
        matrix = block_similarity_matrix(blocks)
        expected = np.array(
            [[block_similarity(a, b) for b in blocks] for a in blocks]
        )
        assert matrix.shape == expected.shape
        assert np.array_equal(matrix, expected)
