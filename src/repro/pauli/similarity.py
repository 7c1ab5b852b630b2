"""Similarity between Tetris blocks.

Implements Eq. (1) of the paper: the Jaccard-style similarity between two
Tetris blocks based on the common part of their leaf trees, for one pair
(:func:`block_similarity`) and as one batch kernel over the packed leaf
tables (:func:`block_similarity_matrix`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .block import PauliBlock, block_planes, leaf_masks
from .pauli_string import _width_error
from .table import PauliTable


def block_similarity(a: PauliBlock, b: PauliBlock) -> float:
    """Eq. (1): ``S(T1,T2) = |C| / (|LT1| + |LT2| - |C|)``.

    ``C`` is the common part of the two leaf trees.  Returns 0.0 when both
    leaf sets are empty.
    """
    leaf_a = a.common_substring()
    leaf_b = b.common_substring()
    common = len(leaf_a.common_qubits(leaf_b))
    denominator = leaf_a.weight + leaf_b.weight - common
    if denominator == 0:
        return 0.0
    return common / denominator


def leaf_table(blocks: Sequence[PauliBlock]) -> PauliTable:
    """The blocks' common substrings (leaf profiles) as one packed table.

    Row ``i`` carries block ``i``'s shared operator on each leaf-tree qubit
    and identity elsewhere, so its weight is ``|LT_i|`` and a pairwise
    match count between rows is exactly the Eq. (1) numerator ``|C|``.
    It is each block's first row masked by its leaf mask, from one
    ``reduceat`` over the blocks' stacked bitplanes.
    """
    if not blocks:
        return PauliTable.from_strings([], num_qubits=0)
    width = blocks[0].num_qubits
    for block in blocks:
        if block.num_qubits != width:
            raise _width_error(width, block.num_qubits)
    x, z, starts = block_planes(blocks)
    leaf = leaf_masks(x, z, starts)
    return PauliTable._adopt(x[starts] & leaf, z[starts] & leaf, width)


def block_similarity_matrix(blocks: Sequence[PauliBlock]) -> np.ndarray:
    """All-pairs Eq. (1) similarity as one batch kernel.

    ``out[i, j] == block_similarity(blocks[i], blocks[j])``, computed
    from the packed leaf table: the numerators are an AND-plus-popcount
    match matrix, the denominators come from the leaf weights, and
    empty-leaf pairs are 0.0.
    """
    table = leaf_table(blocks)
    common = table.match_matrix()
    weights = table.weights()
    denominator = weights[:, None] + weights[None, :] - common
    return np.where(
        denominator == 0, 0.0, common / np.maximum(denominator, 1)
    )
