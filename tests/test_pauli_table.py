"""Randomized equivalence tests: PauliTable kernels vs the frozen
character-level reference (repro.pauli.reference).

Every batch kernel must be bit-exact with the old per-character semantics,
product phases included — the packed backend is a representation change,
never a behavior change.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import PauliString, PauliTable
from repro.pauli.bits import pack_bits
from repro.pauli.reference import (
    char_commutation_matrix,
    char_commutes,
    char_common_qubits,
    char_hamming,
    char_match_matrix,
    char_product,
    char_support,
    char_weight,
)

PAULIS = "IXYZ"


def labels(draw, terms, n):
    return [
        draw(st.text(alphabet=PAULIS, min_size=n, max_size=n))
        for _ in range(terms)
    ]


label_lists = st.integers(1, 8).flatmap(
    lambda terms: st.integers(1, 70).flatmap(
        lambda n: st.lists(
            st.text(alphabet=PAULIS, min_size=n, max_size=n),
            min_size=terms,
            max_size=terms,
        )
    )
)


class TestTableConstruction:
    def test_from_labels_roundtrip(self):
        table = PauliTable.from_labels(["XXI", "IYZ"])
        assert table.num_terms == 2
        assert table.num_qubits == 3
        assert [s.ops for s in table.to_strings()] == ["XXI", "IYZ"]

    def test_from_strings_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            PauliTable.from_strings([PauliString("X"), PauliString("XX")])

    def test_empty_table_needs_width(self):
        with pytest.raises(ValueError):
            PauliTable.from_strings([])
        empty = PauliTable.from_strings([], num_qubits=5)
        assert empty.num_terms == 0
        assert empty.weights().shape == (0,)

    def test_from_bits_roundtrip(self):
        x = np.array([[1, 0, 1], [0, 0, 1]])
        z = np.array([[0, 0, 1], [1, 0, 0]])
        table = PauliTable(pack_bits(x), pack_bits(z), 3)
        assert [s.ops for s in table.to_strings()] == ["XIY", "ZIX"]

    def test_row_is_view_not_copy(self):
        table = PauliTable.from_labels(["XYZ" * 30])
        row = table.row(0)
        assert row.xz_words()[0].base is not None
        assert row.ops == "XYZ" * 30

    def test_bitplanes_are_read_only(self):
        table = PauliTable.from_labels(["XX"])
        with pytest.raises(ValueError):
            table.x[0, 0] = 0

    def test_constructor_does_not_freeze_caller_arrays(self):
        x = np.zeros((2, 1), dtype=np.uint64)
        z = np.zeros((2, 1), dtype=np.uint64)
        table = PauliTable(x, z, 5)
        x[0, 0] = 1  # caller buffer stays writeable...
        assert not table.x.any()  # ...and the table holds its own copy

    @given(label_lists)
    @settings(max_examples=40)
    def test_row_views_match_labels(self, strings):
        table = PauliTable.from_labels(strings)
        for index, label in enumerate(strings):
            row = table.row(index)
            assert row == label
            assert row.weight == char_weight(label)
            assert row.support == char_support(label)


class TestBatchKernels:
    @given(label_lists)
    @settings(max_examples=60)
    def test_match_matrix_equals_reference(self, strings):
        table = PauliTable.from_labels(strings)
        assert np.array_equal(
            table.match_matrix(), np.array(char_match_matrix(strings))
        )

    @given(label_lists)
    @settings(max_examples=60)
    def test_commutation_matrix_equals_reference(self, strings):
        table = PauliTable.from_labels(strings)
        assert np.array_equal(
            table.commutation_matrix(),
            np.array(char_commutation_matrix(strings)),
        )

    @given(label_lists)
    @settings(max_examples=40)
    def test_hamming_and_overlap_matrices(self, strings):
        table = PauliTable.from_labels(strings)
        hamming = np.array(
            [[char_hamming(a, b) for b in strings] for a in strings]
        )
        assert np.array_equal(table.hamming_matrix(), hamming)

    @given(label_lists)
    @settings(max_examples=60)
    def test_products_phase_exact(self, strings):
        table = PauliTable.from_labels(strings)
        phases, rows = table.products(table.select([0] * len(strings)))
        for index, label in enumerate(strings):
            ref_phase, ref_string = char_product(label, strings[0])
            assert phases[index] == ref_phase
            assert rows.row(index).ops == ref_string

    @given(label_lists)
    @settings(max_examples=40)
    def test_pairwise_commuting_matches_loop(self, strings):
        table = PauliTable.from_labels(strings)
        expected = all(
            char_commutes(a, b) for a in strings for b in strings
        )
        assert table.pairwise_commuting() == expected

    @given(label_lists)
    @settings(max_examples=40)
    def test_lex_argsort_equals_string_sort(self, strings):
        table = PauliTable.from_labels(strings)
        assert [strings[i] for i in table.lex_argsort()] == sorted(strings)

    def test_width_mismatch_between_tables(self):
        a = PauliTable.from_labels(["XX"])
        b = PauliTable.from_labels(["X"])
        with pytest.raises(ValueError, match="width mismatch"):
            a.match_matrix(b)
        with pytest.raises(ValueError, match="width mismatch"):
            a.commutation_matrix(b)
        with pytest.raises(ValueError, match="width mismatch"):
            a.products(b)


class TestReductionsAndMasks:
    @given(label_lists)
    @settings(max_examples=40)
    def test_weights_supports_common(self, strings):
        table = PauliTable.from_labels(strings)
        assert table.weights().tolist() == [char_weight(s) for s in strings]
        union = sorted(set().union(*(char_support(s) for s in strings)))
        assert list(table.support_qubits()) == union
        common = [
            q for q in char_support(strings[0])
            if all(s[q] == strings[0][q] and s[q] != "I" for s in strings)
        ]
        assert list(table.common_qubits()) == common

    def test_restricted_and_padded(self):
        table = PauliTable.from_labels(["XYZ", "ZZZ"])
        kept = table.restricted([0, 2])
        assert [s.ops for s in kept.to_strings()] == ["XIZ", "ZIZ"]

    def test_code_rows(self):
        table = PauliTable.from_labels(["IXYZ"])
        assert table.code_rows().tolist() == [[0, 1, 2, 3]]

    def test_select(self):
        table = PauliTable.from_labels(["XX", "YY", "ZZ"])
        picked = table.select([2, 0])
        assert [s.ops for s in picked.to_strings()] == ["ZZ", "XX"]


class TestPauliStringView:
    def test_from_xz_sets(self):
        p = PauliString.from_xz_sets(5, {0, 2}, {2, 4})
        assert p.ops == "XIYIZ"

    def test_from_xz_sets_out_of_range(self):
        with pytest.raises(ValueError):
            PauliString.from_xz_sets(2, {3}, ())

    def test_width_mismatch_errors_consistent(self):
        a, b = PauliString("X"), PauliString("XX")
        for operation in (a.product, a.commutes_with, a.common_qubits):
            with pytest.raises(ValueError, match="width mismatch"):
                operation(b)

    def test_derived_strings_have_read_only_planes(self):
        for string in (
            PauliString("XYZ").restricted([0]),
            PauliString("XYZ").padded(5),
            PauliString("XYZ").product(PauliString("ZZZ"))[1],
            PauliString.identity(3),
            PauliString.from_xz_sets(3, {0}, {1}),
        ):
            x, z = string.xz_words()
            with pytest.raises(ValueError):
                x[0] = 1
            with pytest.raises(ValueError):
                z[0] = 1

    def test_pickle_roundtrip(self):
        p = PauliString("XIZY" * 20)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.ops == p.ops

    def test_hash_matches_char_string(self):
        assert hash(PauliString("XYZI")) == hash("XYZI")

    def test_lex_order_prefix_rule_across_word_groups(self):
        # Widths straddling the 32-qubit key-word boundary must still obey
        # the character prefix rule.
        base = "X" * 32
        assert PauliString(base) < PauliString(base + "I")
        assert PauliString(base) < PauliString(base + "X")
        assert PauliString(base + "I") < PauliString(base + "X")
        assert PauliString("I" * 32) < PauliString("I" * 33)
        assert sorted(
            [PauliString(base + "Z"), PauliString(base), PauliString("X" * 31)]
        ) == [PauliString("X" * 31), PauliString(base), PauliString(base + "Z")]

    @given(st.text(alphabet=PAULIS, min_size=0, max_size=200))
    @settings(max_examples=60)
    def test_wide_string_roundtrip(self, label):
        p = PauliString(label)
        assert p.ops == label
        assert p.num_qubits == len(label)
        x, z = p.xz_bits()
        rebuilt = PauliString.from_xz_sets(
            len(label), np.flatnonzero(x).tolist(), np.flatnonzero(z).tolist()
        )
        assert rebuilt == p

    @given(
        st.integers(1, 130).flatmap(
            lambda n: st.tuples(
                st.text(alphabet=PAULIS, min_size=n, max_size=n),
                st.text(alphabet=PAULIS, min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=80)
    def test_pair_kernels_match_reference(self, pair):
        a, b = pair
        pa, pb = PauliString(a), PauliString(b)
        phase, c = pa.product(pb)
        ref_phase, ref_c = char_product(a, b)
        assert phase == ref_phase and c.ops == ref_c
        assert pa.commutes_with(pb) == char_commutes(a, b)
        assert pa.common_qubits(pb) == char_common_qubits(a, b)
        assert (pa < pb) == (a < b)
