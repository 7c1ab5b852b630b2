"""Analytic maximum-cancellation estimate (paper Observation 2 / Fig. 2).

The paper obtains its "max_cancel" numbers by *placing the subset of qubits
that share a maximum number of non-identity operators in the leaf section of
the tree*: for every pair of consecutive strings, all tree edges that lie
inside the shared-operator region cancel.  For strings ``s`` and ``t`` with
``m`` matching non-identity operators, a tree whose leaf section covers the
matched region lets ``m`` edges cancel in each direction (bounded by either
string's edge count).  Strings are ordered greedily for similarity —
within blocks by minimal Hamming distance, across blocks by leaf-tree
similarity — the same ordering freedom the compilers have.

The blocks are lowered once, and the per-pair arithmetic runs on the
lowered blocks' stacked bitplanes in chain order: row weights and
consecutive-row match counts are single popcount kernels over the ordered
string list instead of per-pair character scans.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..compiler.tetris.ir import lower_blocks
from ..compiler.tetris.scheduler import chain_order
from ..pauli.block import PauliBlock, block_planes
from ..pauli.table import PauliTable


def max_cancel_upper_bound(blocks: Sequence[PauliBlock]) -> float:
    """The Fig. 2 "max_cancel" ratio: cancellable / original logical CNOTs."""
    if not blocks:
        return 0.0
    lowered = lower_blocks(blocks)
    x, z, _ = block_planes(
        [lowered[index].block for index in chain_order(blocks)]
    )
    table = PauliTable(x, z, blocks[0].num_qubits)
    weights = table.weights()
    total = int((2 * (weights - 1))[weights > 1].sum())
    if total == 0:
        return 0.0
    if len(table) < 2:
        return 0.0
    # CNOTs cancellable between consecutive exponentials: the matched
    # region, bounded by either tree's edge count, zero when disjoint.
    matched = table.select(np.arange(len(table) - 1)).match_counts(
        table.select(np.arange(1, len(table)))
    )
    per_pair = np.minimum(matched, np.minimum(weights[:-1] - 1, weights[1:] - 1))
    per_pair = np.where(matched == 0, 0, per_pair)
    cancelable = int((2 * per_pair).sum())
    return min(1.0, cancelable / total)
