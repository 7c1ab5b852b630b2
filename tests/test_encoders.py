"""Tests for the fermionic algebra and both fermion-to-qubit encoders."""

import numpy as np
import pytest

from repro.chem import (
    BravyiKitaevEncoder,
    FermionOperator,
    JordanWignerEncoder,
    LadderOp,
    bk_matrix,
    encoder_by_name,
)
from repro.pauli import QubitOperator
from repro.sim import pauli_matrix

ENCODERS = [JordanWignerEncoder(), BravyiKitaevEncoder()]


def dense(op: QubitOperator) -> np.ndarray:
    out = np.zeros((2**op.num_qubits, 2**op.num_qubits), dtype=complex)
    for string, coefficient in op.terms():
        out += coefficient * pauli_matrix(string)
    return out


class TestFermionOperator:
    def test_single_excitation_is_anti_hermitian(self):
        op = FermionOperator.single_excitation(0, 2, 0.7)
        matrix_terms = list(op.terms())
        assert len(matrix_terms) == 2
        dagger_terms = dict(op.dagger().terms())
        for term, coefficient in op.terms():
            reversed_term = tuple(
                LadderOp(o.orbital, not o.dagger) for o in reversed(term)
            )
            assert dagger_terms[reversed_term] == pytest.approx(coefficient.conjugate())

    def test_double_excitation_term_count(self):
        op = FermionOperator.double_excitation((0, 1), (2, 3), 1.0)
        assert len(op) == 2

    def test_addition_cancels(self):
        a = FermionOperator.from_term((LadderOp(0, True),), 1.0)
        b = FermionOperator.from_term((LadderOp(0, True),), -1.0)
        assert len(a + b) == 0

    def test_scalar_multiplication(self):
        op = FermionOperator.from_term((LadderOp(0, True),), 1.0) * 2.5
        ((_, coefficient),) = list(op.terms())
        assert coefficient == pytest.approx(2.5)


@pytest.mark.parametrize("encoder", ENCODERS, ids=lambda e: e.short_name)
class TestEncoderAlgebra:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_canonical_anticommutation(self, encoder, n):
        lower = [dense(encoder.ladder(p, False, n)) for p in range(n)]
        raise_ = [dense(encoder.ladder(p, True, n)) for p in range(n)]
        identity = np.eye(2**n)
        for p in range(n):
            for q in range(n):
                anti = lower[p] @ raise_[q] + raise_[q] @ lower[p]
                expected = identity if p == q else np.zeros_like(identity)
                assert np.allclose(anti, expected), (p, q)
                assert np.allclose(
                    lower[p] @ lower[q] + lower[q] @ lower[p], 0
                ), (p, q)

    def test_vacuum_annihilated(self, encoder):
        n = 4
        vacuum = np.zeros(2**n)
        vacuum[0] = 1.0
        for p in range(n):
            assert np.allclose(dense(encoder.ladder(p, False, n)) @ vacuum, 0)

    def test_number_operator_is_projector(self, encoder):
        n = 4
        for p in range(n):
            number = dense(
                encoder.ladder(p, True, n) * encoder.ladder(p, False, n)
            )
            assert np.allclose(number @ number, number)
            assert np.allclose(np.trace(number), 2 ** (n - 1))

    def test_ladder_rejects_bad_orbital(self, encoder):
        with pytest.raises(ValueError):
            encoder.ladder(7, True, 4)


class TestJordanWignerStructure:
    def test_z_padding(self):
        op = JordanWignerEncoder.ladder(3, False, 6)
        for string, _ in op.terms():
            assert string.ops[:3] == "ZZZ"
            assert string.ops[4:] == "II"
            assert string.ops[3] in "XY"

    def test_excitation_gives_two_strings(self):
        generator = FermionOperator.single_excitation(0, 3, 1.0).encode(
            JordanWignerEncoder(), 4
        )
        strings = [str(s) for s, _ in generator.terms()]
        assert sorted(strings) == ["XZZY", "YZZX"]
        assert all(abs(c.real) <= 1e-9 for _, c in generator.terms())

    def test_double_excitation_gives_eight_strings(self):
        generator = FermionOperator.double_excitation((0, 1), (2, 3), 1.0).encode(
            JordanWignerEncoder(), 4
        )
        assert len(generator) == 8
        assert all(abs(c.real) <= 1e-9 for _, c in generator.terms())


class TestBravyiKitaevStructure:
    def test_matrix_is_lower_triangular_with_unit_diagonal(self):
        for n in (3, 5, 8):
            beta = np.array(bk_matrix(n))
            assert np.all(np.triu(beta, 1) == 0)
            assert np.all(np.diag(beta) == 1)

    def test_matrix_power_of_two_recursion(self):
        beta4 = np.array(bk_matrix(4))
        # Qubit 3 of 4 stores the parity of everything below.
        assert list(beta4[3]) == [1, 1, 1, 1]
        assert list(beta4[1]) == [1, 1, 0, 0]

    @staticmethod
    def real_part_ops(orbital, num_qubits):
        """Operators of ``X_U(j) X_j Z_P(j)``, the real term of ``a_j``:
        X on the update set and the orbital, Z on the parity set."""
        ladder = BravyiKitaevEncoder.ladder(orbital, False, num_qubits)
        string = next(s for s, c in ladder.terms() if c.imag == 0)
        return string.ops

    def test_parity_sets(self):
        # For 4 orbitals: parity of orbitals < 2 is stored entirely in qubit 1.
        assert self.real_part_ops(2, 4) == "IZXX"
        assert "Z" not in self.real_part_ops(0, 4)

    def test_update_sets(self):
        # Qubit 3 aggregates everything in a 4-qubit tree.
        assert self.real_part_ops(0, 4)[3] == "X"
        assert self.real_part_ops(2, 4)[3] == "X"

    def test_strings_shorter_than_jw_on_average(self):
        n = 8
        jw = FermionOperator.single_excitation(0, 7, 1.0).encode(
            JordanWignerEncoder(), n
        )
        bk = FermionOperator.single_excitation(0, 7, 1.0).encode(
            BravyiKitaevEncoder(), n
        )
        jw_weight = max(s.weight for s, _ in jw.terms())
        bk_weight = max(s.weight for s, _ in bk.terms())
        assert bk_weight <= jw_weight


class TestEncoderRegistry:
    def test_lookup(self):
        assert encoder_by_name("jw").short_name == "JW"
        assert encoder_by_name("BK").short_name == "BK"
        with pytest.raises(KeyError):
            encoder_by_name("parity")
