"""Tests for the Pauli-string algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import PauliString, single_product
from repro.pauli.operators import MATRICES, char_of_xz, xz_of_char
from repro.sim import pauli_matrix

PAULIS = "IXYZ"


def pauli_strings(max_qubits=4, min_qubits=1):
    return st.text(alphabet=PAULIS, min_size=min_qubits, max_size=max_qubits).map(
        PauliString
    )


class TestConstruction:
    def test_from_text(self):
        p = PauliString("XXYZI")
        assert p.num_qubits == 5
        assert p.ops == "XXYZI"
        assert str(p) == "XXYZI"

    def test_rejects_bad_characters(self):
        with pytest.raises(ValueError):
            PauliString("XQ")

    def test_identity(self):
        p = PauliString.identity(4)
        assert p.is_identity()
        assert p.weight == 0

    def test_from_ops_sparse(self):
        p = PauliString.from_ops(5, {0: "X", 3: "Z"})
        assert p.ops == "XIIZI"

    def test_from_ops_out_of_range(self):
        with pytest.raises(ValueError):
            PauliString.from_ops(3, {5: "X"})

    def test_copy_constructor(self):
        p = PauliString("XY")
        assert PauliString(p) == p

    def test_from_iterable(self):
        assert PauliString(["X", "Y"]).ops == "XY"


class TestViews:
    def test_support(self):
        p = PauliString("XIZYI")
        assert p.support == (0, 2, 3)
        assert p.weight == 3

    def test_indexing_and_iteration(self):
        p = PauliString("XYZ")
        assert p[1] == "Y"
        assert list(p) == ["X", "Y", "Z"]
        assert len(p) == 3

    def test_equality_with_string(self):
        assert PauliString("XY") == "XY"
        assert PauliString("XY") != "YX"

    def test_hashable(self):
        assert len({PauliString("XY"), PauliString("XY"), PauliString("YX")}) == 2

    def test_ordering(self):
        assert PauliString("IX") < PauliString("XI")


class TestSymplectic:
    @given(st.sampled_from(PAULIS))
    def test_char_xz_roundtrip(self, char):
        assert char_of_xz(*xz_of_char(char)) == char

    @given(pauli_strings())
    def test_from_xz_roundtrip(self, p):
        x, z = p.xz_bits()
        rebuilt = PauliString.from_xz_sets(
            p.num_qubits, np.flatnonzero(x).tolist(), np.flatnonzero(z).tolist()
        )
        assert rebuilt == p


class TestProduct:
    @given(st.sampled_from(PAULIS), st.sampled_from(PAULIS))
    def test_single_product_matches_matrices(self, a, b):
        power, c = single_product(a, b)
        expected = MATRICES[a] @ MATRICES[b]
        assert np.allclose((1j**power) * MATRICES[c], expected)

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.data())
    def test_string_product_matches_kron(self, n, data):
        a = data.draw(pauli_strings(max_qubits=n, min_qubits=n))
        b = data.draw(pauli_strings(max_qubits=n, min_qubits=n))
        phase, c = a.product(b)
        assert np.allclose(phase * pauli_matrix(c), pauli_matrix(a) @ pauli_matrix(b))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            PauliString("X").product(PauliString("XX"))

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.data())
    def test_commutation_matches_matrices(self, n, data):
        a = data.draw(pauli_strings(max_qubits=n, min_qubits=n))
        b = data.draw(pauli_strings(max_qubits=n, min_qubits=n))
        ma, mb = pauli_matrix(a), pauli_matrix(b)
        commutes = np.allclose(ma @ mb, mb @ ma)
        assert a.commutes_with(b) == commutes


class TestStructureHelpers:
    def test_common_qubits(self):
        a = PauliString("XZZY")
        b = PauliString("YZZY")
        assert a.common_qubits(b) == (1, 2, 3)

    def test_common_ignores_identity(self):
        a = PauliString("IZ")
        b = PauliString("IZ")
        assert a.common_qubits(b) == (1,)

    def test_restricted(self):
        p = PauliString("XYZ")
        assert p.restricted([0, 2]).ops == "XIZ"

    def test_padded(self):
        assert PauliString("XY").padded(4).ops == "XYII"
        with pytest.raises(ValueError):
            PauliString("XY").padded(1)
