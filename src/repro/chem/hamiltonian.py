"""Synthetic molecular Hamiltonians.

The paper's Hamiltonians come from PySCF; offline we generate random —
but physically shaped — electronic-structure Hamiltonians::

    H = sum_pq h[p,q] a†_p a_q  +  sum_pqrs g[p,q,r,s] a†_p a†_q a_r a_s

with Hermitian one-body integrals and two-body terms built from a
symmetrized random tensor.  The result is a Hermitian qubit operator under
either encoder, suitable for end-to-end VQE demonstrations (the energy of
a compiled ansatz's state, :func:`expectation_value`).
"""

from __future__ import annotations

import numpy as np

from ..pauli.qubit_operator import QubitOperator
from .fermion import FermionOperator, LadderOp
from .jordan_wigner import JordanWignerEncoder


def synthetic_integrals(num_orbitals: int, seed: int = 0):
    """Random Hermitian one-body and symmetrized two-body integrals."""
    rng = np.random.default_rng(seed)
    one_body = rng.normal(scale=0.5, size=(num_orbitals, num_orbitals))
    one_body = (one_body + one_body.T) / 2
    two_body = rng.normal(
        scale=0.1, size=(num_orbitals,) * 4
    )
    # Hermiticity of each a†a†aa term: g[p,q,r,s] = conj(g[s,r,q,p]).
    two_body = (two_body + two_body.transpose(3, 2, 1, 0)) / 2
    return one_body, two_body


def molecular_hamiltonian(
    num_orbitals: int,
    seed: int = 0,
    encoder=None,
    include_two_body: bool = True,
) -> QubitOperator:
    """A synthetic molecular Hamiltonian as a qubit operator."""
    encoder = encoder or JordanWignerEncoder()
    one_body, two_body = synthetic_integrals(num_orbitals, seed)
    hamiltonian = FermionOperator()
    for p in range(num_orbitals):
        for q in range(num_orbitals):
            if abs(one_body[p, q]) > 1e-12:
                hamiltonian.add_term(
                    (LadderOp(p, True), LadderOp(q, False)), one_body[p, q]
                )
    if include_two_body:
        for p in range(num_orbitals):
            for q in range(num_orbitals):
                if p == q:
                    continue
                for r in range(num_orbitals):
                    for s in range(num_orbitals):
                        if r == s:
                            continue
                        coefficient = two_body[p, q, r, s]
                        if abs(coefficient) > 1e-12:
                            hamiltonian.add_term(
                                (
                                    LadderOp(p, True),
                                    LadderOp(q, True),
                                    LadderOp(r, False),
                                    LadderOp(s, False),
                                ),
                                coefficient,
                            )
    qubit_hamiltonian = hamiltonian.encode(encoder, num_orbitals)
    if not qubit_hamiltonian.is_hermitian(tolerance=1e-8):
        raise AssertionError("synthetic Hamiltonian must encode to Hermitian form")
    return qubit_hamiltonian


def dense_hamiltonian(hamiltonian: QubitOperator) -> np.ndarray:
    """Dense matrix of a qubit Hamiltonian (small systems only)."""
    from ..sim.unitaries import pauli_matrix

    dim = 2**hamiltonian.num_qubits
    if hamiltonian.num_qubits > 14:
        raise ValueError("dense Hamiltonian beyond 14 qubits is not supported")
    matrix = np.zeros((dim, dim), dtype=complex)
    for string, coefficient in hamiltonian.terms():
        matrix += coefficient * pauli_matrix(string)
    return matrix


def expectation_value(
    hamiltonian: QubitOperator,
    state: np.ndarray,
) -> float:
    """``<state|H|state>`` for a statevector."""
    matrix = dense_hamiltonian(hamiltonian)
    value = np.vdot(state, matrix @ state)
    return float(value.real)
