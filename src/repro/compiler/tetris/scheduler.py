"""Block ordering (paper Sec. V-B), shared by every block compiler.

1. Start with the block of largest *active length* (most non-identity
   operators) — the block with the most cancellation potential.  Every
   active length is one popcount of the blocks' OR-reduced support
   planes.
2. Repeatedly: rank remaining blocks by leaf-tree similarity (Eq. 1) to the
   last scheduled block, take the top-K candidates, and among them schedule
   the one whose ``cost`` is smallest (ties keep the similarity rank).

With ``lookahead=1`` this is Paulihedral's greedy similarity chain (and
Tetris without lookahead, Fig. 14); Tetris passes K=10 and a trial
placement of each candidate against its live layout as ``cost``.

All Eq. (1) similarities are precomputed as one batch matrix kernel over
the blocks' packed leaf tables (:func:`repro.pauli.similarity.
block_similarity_matrix`) — ranking a candidate set is then pure index
arithmetic instead of per-pair leaf-profile reconstruction.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ...pauli.bits import popcount
from ...pauli.block import PauliBlock, block_planes
from ...pauli.similarity import block_similarity_matrix

#: Tetris' K (Fig. 19): how many of the most similar blocks are
#: trial-placed at each step.
DEFAULT_LOOKAHEAD = 10


def chain_order(
    blocks: Sequence[PauliBlock],
    lookahead: int = 1,
    cost: Optional[Callable[[int, Optional[float]], float]] = None,
) -> Iterator[int]:
    """Yield a scheduling order (indices into ``blocks``).

    ``cost(index, cap)`` scores a candidate when the caller asks for the
    next index, so a cost that reads the caller's state (Tetris' trial
    placement of the candidate against its live layout) sees the state
    the previous block left.  Candidates are scored in similarity-rank
    order against a running incumbent, and ``cap`` is the incumbent's
    cost (None for the first): a later candidate only wins on strictly
    smaller cost, so a cost at or above ``cap`` may stop early and return
    ``cap``.  Costs are non-negative, so a 0-cost incumbent ends the
    search, and a lone candidate is scheduled without scoring.
    """
    remaining = list(range(len(blocks)))
    if not remaining:
        return
    similarity = block_similarity_matrix(blocks)
    choice = _longest_block(blocks)
    width = max(1, lookahead)
    while True:
        remaining.remove(choice)
        yield choice
        if not remaining:
            return
        row = similarity[choice].tolist()
        candidates = heapq.nsmallest(
            width, remaining, key=lambda i: (-row[i], i)
        )
        choice = candidates[0]
        if cost is None or len(candidates) == 1:
            continue
        best = None
        for index in candidates:
            value = cost(index, best)
            if best is None or value < best:
                best = value
                choice = index
                if best == 0:
                    break


def _longest_block(blocks: Sequence[PauliBlock]) -> int:
    """The index of the block of largest active length, the lowest on
    ties: one popcount of the OR-reduced support planes of every block's
    strings (mixed widths are zero-padded by ``block_planes``)."""
    x, z, starts = block_planes(blocks)
    support = np.bitwise_or.reduceat(x | z, starts, axis=0)
    # np.argmax returns the first maximum, so ties go to the lowest index.
    return int(np.argmax(popcount(support).sum(axis=1)))
