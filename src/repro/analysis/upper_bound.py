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

The per-pair arithmetic runs on the packed symplectic table: row weights
and consecutive-row match counts are single popcount kernels over the
ordered string list instead of per-pair character scans.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..compiler.tetris.ir import lower_blocks
from ..compiler.tetris.scheduler import chain_order
from ..pauli.block import PauliBlock
from ..pauli.pauli_string import PauliString
from ..pauli.table import PauliTable


def max_cancel_upper_bound(blocks: Sequence[PauliBlock]) -> float:
    """The Fig. 2 "max_cancel" ratio: cancellable / original logical CNOTs."""
    strings: List[PauliString] = []
    for index in chain_order(blocks):
        strings.extend(lower_blocks([blocks[index]])[0].strings)
    if not strings:
        return 0.0
    table = PauliTable.from_strings(strings)
    weights = table.weights()
    total = int((2 * (weights - 1))[weights > 1].sum())
    if total == 0:
        return 0.0
    if len(strings) < 2:
        return 0.0
    # CNOTs cancellable between consecutive exponentials: the matched
    # region, bounded by either tree's edge count, zero when disjoint.
    matched = table.select(np.arange(len(strings) - 1)).match_counts(
        table.select(np.arange(1, len(strings)))
    )
    per_pair = np.minimum(matched, np.minimum(weights[:-1] - 1, weights[1:] - 1))
    per_pair = np.where(matched == 0, 0, per_pair)
    cancelable = int((2 * per_pair).sum())
    return min(1.0, cancelable / total)
