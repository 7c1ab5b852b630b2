"""Tests for weighted Pauli sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import PauliString, QubitOperator
from repro.sim import pauli_matrix


def dense(op: QubitOperator) -> np.ndarray:
    out = np.zeros((2**op.num_qubits, 2**op.num_qubits), dtype=complex)
    for string, coefficient in op.terms():
        out += coefficient * pauli_matrix(string)
    return out


def random_operator(rng, num_qubits, num_terms):
    op = QubitOperator(num_qubits)
    for _ in range(num_terms):
        chars = "".join("IXYZ"[i] for i in rng.integers(0, 4, num_qubits))
        op.add_term(PauliString(chars), complex(rng.normal(), rng.normal()))
    return op


class TestBasics:
    def test_zero_and_identity(self):
        assert not QubitOperator(2)
        identity = QubitOperator.identity(2)
        assert len(identity) == 1
        assert np.allclose(dense(identity), np.eye(4))

    def test_add_term_accumulates_and_drops(self):
        op = QubitOperator(1)
        op.add_term(PauliString("X"), 1.0)
        op.add_term(PauliString("X"), -1.0)
        assert len(op) == 0

    def test_width_mismatch(self):
        op = QubitOperator(2)
        with pytest.raises(ValueError):
            op.add_term(PauliString("X"), 1.0)

    def test_coefficient_lookup(self):
        op = QubitOperator.from_term(PauliString("Z"), 2.5)
        assert op.coefficient(PauliString("Z")) == 2.5
        assert op.coefficient(PauliString("X")) == 0

    def test_terms_deterministic_order(self):
        op = QubitOperator(1)
        op.add_term(PauliString("Z"), 1)
        op.add_term(PauliString("X"), 1)
        assert [str(s) for s, _ in op.terms()] == ["X", "Z"]


class TestAlgebra:
    @settings(max_examples=30)
    @given(st.integers(1, 3), st.integers(0, 987654))
    def test_sum_matches_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, n, 3)
        b = random_operator(rng, n, 3)
        assert np.allclose(dense(a + b), dense(a) + dense(b))
        assert np.allclose(dense(a - b), dense(a) - dense(b))

    @settings(max_examples=30)
    @given(st.integers(1, 3), st.integers(0, 987654))
    def test_product_matches_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, n, 3)
        b = random_operator(rng, n, 3)
        assert np.allclose(dense(a * b), dense(a) @ dense(b), atol=1e-10)

    def test_scalar_multiplication(self):
        op = QubitOperator.from_term(PauliString("X"), 1.0)
        assert np.allclose(dense(2j * op), 2j * dense(op))

    def test_hermiticity_predicates(self):
        h = QubitOperator.from_term(PauliString("X"), 0.5)
        a = QubitOperator.from_term(PauliString("X"), 0.5j)
        assert h.is_hermitian()
        assert not a.is_hermitian()
