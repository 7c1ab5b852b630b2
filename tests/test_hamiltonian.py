"""Tests for synthetic molecular Hamiltonians and expectation values."""

import numpy as np
import pytest

from repro.chem import (
    BravyiKitaevEncoder,
    dense_hamiltonian,
    expectation_value,
    molecular_hamiltonian,
    synthetic_integrals,
)


class TestIntegrals:
    def test_one_body_hermitian(self):
        one_body, _ = synthetic_integrals(4, seed=2)
        assert np.allclose(one_body, one_body.T)

    def test_two_body_symmetry(self):
        _, two_body = synthetic_integrals(4, seed=2)
        assert np.allclose(two_body, two_body.transpose(3, 2, 1, 0))

    def test_seeded(self):
        a = synthetic_integrals(4, seed=5)
        b = synthetic_integrals(4, seed=5)
        assert np.allclose(a[0], b[0]) and np.allclose(a[1], b[1])


class TestHamiltonian:
    def test_hermitian_qubit_operator(self):
        hamiltonian = molecular_hamiltonian(4, seed=3)
        assert hamiltonian.is_hermitian()
        matrix = dense_hamiltonian(hamiltonian)
        assert np.allclose(matrix, matrix.conj().T)

    def test_one_body_only(self):
        hamiltonian = molecular_hamiltonian(3, seed=1, include_two_body=False)
        matrix = dense_hamiltonian(hamiltonian)
        assert np.allclose(matrix, matrix.conj().T)

    def test_encoders_agree_on_spectrum(self):
        """JW and BK are basis changes: identical eigenvalues."""
        jw = molecular_hamiltonian(4, seed=7)
        bk = molecular_hamiltonian(4, seed=7, encoder=BravyiKitaevEncoder())
        jw_spectrum = np.linalg.eigvalsh(dense_hamiltonian(jw))
        bk_spectrum = np.linalg.eigvalsh(dense_hamiltonian(bk))
        assert np.allclose(jw_spectrum, bk_spectrum, atol=1e-8)

    def test_particle_number_conserved(self):
        """[H, N] = 0 for the JW number operator."""
        from repro.chem import JordanWignerEncoder
        from repro.chem.fermion import FermionOperator, LadderOp

        n = 4
        hamiltonian = dense_hamiltonian(molecular_hamiltonian(n, seed=3))
        number = FermionOperator()
        for p in range(n):
            number.add_term((LadderOp(p, True), LadderOp(p, False)), 1.0)
        number_matrix = dense_hamiltonian(number.encode(JordanWignerEncoder(), n))
        assert np.allclose(
            hamiltonian @ number_matrix, number_matrix @ hamiltonian, atol=1e-8
        )


class TestObservables:
    def test_ground_state_energy_matches_dense(self):
        hamiltonian = molecular_hamiltonian(3, seed=4)
        matrix = dense_hamiltonian(hamiltonian)
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        ground = eigenvectors[:, 0]
        assert expectation_value(hamiltonian, ground) == pytest.approx(
            eigenvalues[0]
        )

    def test_expectation_of_basis_state(self):
        hamiltonian = molecular_hamiltonian(2, seed=0)
        matrix = dense_hamiltonian(hamiltonian)
        state = np.zeros(4)
        state[0] = 1.0
        assert expectation_value(hamiltonian, state) == pytest.approx(
            matrix[0, 0].real
        )

    def test_width_limit(self):
        from repro.pauli import QubitOperator, PauliString

        wide = QubitOperator.from_term(PauliString("Z" * 15), 1.0)
        with pytest.raises(ValueError):
            dense_hamiltonian(wide)
