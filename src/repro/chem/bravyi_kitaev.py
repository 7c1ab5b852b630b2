"""The Bravyi-Kitaev fermion-to-qubit encoding.

Qubit ``j`` stores the binary sum ``b_j = sum_k beta[j, k] n_k (mod 2)`` of
orbital occupations, where ``beta`` is the Bravyi-Kitaev matrix built by the
standard doubling construction (Seeley, Richard & Love 2012).  The ladder
operators follow from three index sets:

- update set ``U(j)`` — qubits ``i > j`` whose stored sum includes ``n_j``;
- flip set ``F(j)`` — qubits ``k < j`` that enter ``b_j`` besides ``n_j``;
- parity set ``P(j)`` — qubits whose stored values sum to the parity of
  orbitals ``< j``; and the remainder set ``R(j) = P(j) \\ F(j)``.

Then ``a_j = X_U(j) (X_j Z_P(j) + i Y_j Z_rho(j)) / 2`` with
``rho(j) = P(j)`` for even ``j`` and ``R(j)`` for odd ``j``; the creation
operator flips the sign of the imaginary part.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..pauli.pauli_string import PauliString
from ..pauli.qubit_operator import QubitOperator


@lru_cache(maxsize=64)
def bk_matrix(num_orbitals: int) -> Tuple[Tuple[int, ...], ...]:
    """The Bravyi-Kitaev encoding matrix, truncated to ``num_orbitals``.

    Built by doubling: ``beta_1 = [1]``; ``beta_2n`` places two copies of
    ``beta_n`` on the diagonal and fills the last row's left half with ones.
    Truncation is sound because ``beta`` is lower triangular.
    """
    size = 1
    beta = np.array([[1]], dtype=np.uint8)
    while size < num_orbitals:
        doubled = np.zeros((2 * size, 2 * size), dtype=np.uint8)
        doubled[:size, :size] = beta
        doubled[size:, size:] = beta
        doubled[2 * size - 1, :size] = 1
        beta = doubled
        size *= 2
    return tuple(tuple(int(v) for v in row[:num_orbitals]) for row in beta[:num_orbitals])


def _gf2_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a binary matrix over GF(2) by Gauss-Jordan elimination."""
    n = matrix.shape[0]
    work = matrix.astype(np.uint8) % 2
    inverse = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r, col])
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inverse[[col, pivot]] = inverse[[pivot, col]]
        for row in range(n):
            if row != col and work[row, col]:
                work[row] ^= work[col]
                inverse[row] ^= inverse[col]
    return inverse


@lru_cache(maxsize=64)
def _index_sets(num_orbitals: int):
    """Per-orbital (update, flip, parity, remainder) sets."""
    beta = np.array(bk_matrix(num_orbitals), dtype=np.uint8)
    beta_inv = _gf2_inverse(beta)
    updates = []
    flips = []
    parities = []
    remainders = []
    for j in range(num_orbitals):
        update = frozenset(int(i) for i in range(j + 1, num_orbitals) if beta[i, j])
        flip = frozenset(int(k) for k in range(j) if beta[j, k])
        # parity of orbitals < j in terms of stored bits: rows 0..j-1 of beta_inv.
        prefix = beta_inv[:j].sum(axis=0) % 2
        parity = frozenset(int(k) for k in range(num_orbitals) if prefix[k])
        updates.append(update)
        flips.append(flip)
        parities.append(parity)
        remainders.append(parity - flip)
    return updates, flips, parities, remainders


class BravyiKitaevEncoder:
    """Stateless Bravyi-Kitaev encoder."""

    name = "bravyi-kitaev"
    short_name = "BK"

    @staticmethod
    @lru_cache(maxsize=4096)
    def ladder(orbital: int, dagger: bool, num_qubits: int) -> QubitOperator:
        """The qubit operator for ``a_orbital`` or ``a†_orbital``."""
        if not 0 <= orbital < num_qubits:
            raise ValueError(f"orbital {orbital} out of range")
        updates, _flips, parities, remainders = _index_sets(num_qubits)
        update = updates[orbital]
        parity = parities[orbital]
        rho = parities[orbital] if orbital % 2 == 0 else remainders[orbital]

        # Emit straight into the packed symplectic planes: X on the update
        # set and the orbital (x bits), Z on the parity/rho set (z bits),
        # Y at the orbital of the imaginary part (both bits).  The update
        # set lies above the orbital and parity/rho below it, so the sets
        # never collide.
        flips = frozenset(update) | {orbital}
        x_string = PauliString.from_xz_sets(num_qubits, flips - parity, parity)
        y_string = PauliString.from_xz_sets(
            num_qubits, flips - rho, rho | {orbital}
        )
        sign = -1j if dagger else 1j
        out = QubitOperator.from_term(x_string, 0.5)
        out.add_term(y_string, 0.5 * sign)
        return out
