"""Cost-layer extraction for the QAOA-specialized pipelines.

QAOA cost-layer terms all commute, so gates may be scheduled in any order —
the freedom 2QAN (Lao & Browne, ISCA 2022) exploits.  Two pipelines in
:mod:`repro.pipeline.registry` use it, through one scheduling loop:

- ``2qan-like`` — commutation-aware greedy scheduling: emit every
  currently-executable edge, then insert the SWAP that best serves the
  remaining edges (``extract-edges``, ``layout``, ``synth-2qan``).
- ``tetris-qaoa`` — the paper's Sec. V-C optimization: ``synth-2qan``
  plus two decisions, a lookahead choice between SWAP insertion and
  fast bridging, and mid-circuit measurement to retire finished qubits
  so their slots become |0> bridge ancillas (``extract-edges``,
  ``layout``, ``synth-qaoa-reuse``).

Both take the MaxCut blocks of :mod:`repro.qaoa` (one ZZ string per
edge); :func:`extract_edges` turns them into ``(u, v, angle)`` terms.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..pauli.bits import popcount
from ..pauli.block import PauliBlock
from ..pauli.table import PauliTable


def extract_edges(blocks: Sequence[PauliBlock]) -> List[Tuple[int, int, float]]:
    """``(u, v, angle)`` per ZZ block; validates the QAOA shape.

    The whole cost layer is checked as one packed table: a ZZ term has an
    empty x bitplane and a z bitplane of weight 2, so shape validation and
    endpoint extraction are two popcount kernels over all blocks at once.
    """
    for block in blocks:
        if len(block) != 1:
            raise ValueError("QAOA blocks must contain exactly one string")
    if not blocks:
        return []
    table = PauliTable.from_strings([block.strings[0] for block in blocks])
    x_weight = popcount(table.x).sum(axis=1, dtype=np.int64)
    z_weight = popcount(table.z).sum(axis=1, dtype=np.int64)
    bad = np.flatnonzero((x_weight != 0) | (z_weight != 2))
    if bad.size:
        raise ValueError(f"not a ZZ term: {table.row(int(bad[0]))}")
    endpoints = np.nonzero(table.support_bits())[1].reshape(len(blocks), 2)
    return [
        (int(endpoints[i, 0]), int(endpoints[i, 1]),
         block.angle * block.weights[0])
        for i, block in enumerate(blocks)
    ]

