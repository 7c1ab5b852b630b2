"""Pauli-string algebra substrate.

Public surface:

- :class:`PauliString` — immutable tensor product of single-qubit Paulis,
  a zero-copy view over one packed symplectic row.
- :class:`PauliTable` — bit-packed ``(x, z)`` bitplanes for a whole term
  list, with vectorized batch kernels (commutation / similarity /
  Hamming matrices, row products with phase tracking).
- :class:`QubitOperator` — complex-weighted sums of Pauli strings.
- :class:`PauliBlock` — the block abstraction shared by Paulihedral and
  Tetris (strings grouped by ansatz-construction step).
- similarity metrics (Eq. 1 of the paper), single-pair and batch.
"""

from .block import PauliBlock, total_strings
from .operators import I, X, Y, Z, single_product
from .pauli_string import PauliString
from .qubit_operator import QubitOperator
from .similarity import block_similarity, block_similarity_matrix
from .table import PauliTable

__all__ = [
    "I",
    "X",
    "Y",
    "Z",
    "PauliString",
    "PauliTable",
    "QubitOperator",
    "PauliBlock",
    "single_product",
    "total_strings",
    "block_similarity",
    "block_similarity_matrix",
]
