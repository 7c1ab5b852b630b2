"""Tetris-IR: the refined Pauli-string block representation (paper Sec. IV-B).

A :class:`TetrisBlockIR` annotates a Pauli block with its *root-tree qubit
set* (qubits whose operators differ across the block's strings) and its
*leaf-tree qubit set* (qubits sharing one operator across all strings).
A block whose strings pairwise commute is reordered as a Gray chain: it
starts from the lexicographically smallest string and always appends the
remaining string at the least Hamming distance, ties going to the
lexicographically smaller string (stable, so duplicates keep index
order).  Adjacent strings that agree on more operators let more of the
shared tree cancel between the mirrored fan-out and the next fan-in.
The textual rendering follows Fig. 6(b): a qubit-order annotation, the
common section lower-cased and written only on the first and last
strings.

Lowering is one batch kernel over a workload's stacked bitplanes
(:func:`lower_blocks`); ``TetrisBlockIR(block)`` lowers a list of one.

- Every string's ``(x, z)`` words are stacked once, with the block
  offsets (:func:`~repro.pauli.block.block_planes`, which also fills each
  input block's table cache with its rows).
- Supports and leaf sets are ``bitwise_or`` / ``bitwise_and`` reduceats
  over the offsets; one popcount gives the row weights, and so the
  uniform-support flag.
- Blocks are grouped by string count ``k`` and worked through in chunks
  whose temporaries stay under :data:`_CHUNK_WORDS`: the ``[B, k, k]``
  anticommutation parities (the reorder guard), the ``[B, k, k]``
  Hamming distances, stable lexicographic ranks from one ``np.lexsort``
  whose primary key is the block, and the chain as ``k - 1`` vectorized
  ``argmin`` steps over ``distance * k + rank`` with taken strings
  masked.

Why the kernel is exact (the per-block loop it replaced is kept as
:func:`repro.compiler.tetris.reference.lower_blocks_reference`):

- Support, leaf set and uniform flag are OR/AND reductions over rows
  and a per-row weight test.  They do not depend on row order, so
  computing them on the input block gives what the loop computed on
  the reordered block.
- Ranks are a permutation, so ``distance * k + rank`` is injective over
  a block's remaining strings.  Its argmin is therefore the string
  ``min(remaining, key=lambda i: (distance[i], rank[i]))`` picks, and
  the chain starts at ``argmin(rank)``.
- ``np.lexsort`` is stable and a block's rows are contiguous and in
  input order, so with the block as primary key each block's ranks are
  its own ``PauliTable.lex_ranks``, at any number of key words.
- A block is reordered only when strings are sorted, it has more than
  one string and its strings pairwise commute; otherwise the IR keeps
  the input block object.  A one-string block's leaf set is empty.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...pauli.bits import lex_key_words, popcount, unpack_bits
from ...pauli.block import PauliBlock, block_planes, leaf_masks
from ...pauli.operators import CODE_OF_XZ, I
from ...pauli.pauli_string import PauliString

#: Upper bound, in uint64 words, on one temporary of the Gray-chain
#: kernel: a chunk's ``[B, k, k, words]`` pairwise planes or its
#: ``[B, k, 32 * key words]`` lexicographic code expansion.
_CHUNK_WORDS = 1 << 18  # 2 MiB


class TetrisBlockIR:
    """A Pauli block refined with root/leaf qubit-set annotations."""

    __slots__ = (
        "block", "root_qubits", "leaf_qubits", "uniform_support",
        "string_order",
    )

    def __init__(self, block: PauliBlock, sort_strings: bool = True) -> None:
        (ir,) = lower_blocks([block], sort_strings=sort_strings)
        for name in self.__slots__:
            setattr(self, name, getattr(ir, name))

    @classmethod
    def _lowered(
        cls,
        block: PauliBlock,
        string_order: Tuple[int, ...],
        root_qubits: Tuple[int, ...],
        leaf_qubits: Tuple[int, ...],
        uniform_support: bool,
    ) -> "TetrisBlockIR":
        self = cls.__new__(cls)
        self.block = block
        # IR string i is input-block string string_order[i].  Duplicate
        # strings resolve to ascending input indices (the Gray chain
        # tie-breaks equal distances on stable lexicographic rank).
        self.string_order = string_order
        self.root_qubits = root_qubits
        self.leaf_qubits = leaf_qubits
        self.uniform_support = uniform_support
        return self

    # -- convenience views -------------------------------------------------------

    @property
    def strings(self) -> Tuple[PauliString, ...]:
        return self.block.strings

    @property
    def weights(self) -> Tuple[float, ...]:
        return self.block.weights

    @property
    def angle(self) -> float:
        return self.block.angle

    @property
    def num_strings(self) -> int:
        return len(self.block)

    @property
    def num_qubits(self) -> int:
        return self.block.num_qubits

    @property
    def active_length(self) -> int:
        return self.block.active_length

    def qubit_order(self) -> Tuple[int, ...]:
        """Root qubits first, then leaf qubits (the Fig. 6 annotation)."""
        return self.root_qubits + self.leaf_qubits

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Human-readable Tetris-IR text (Fig. 6(b) style)."""
        order = self.qubit_order()
        leaf_set = set(self.leaf_qubits)
        lines: List[str] = ["".join(str(q % 10) for q in order)]
        last = self.num_strings - 1
        for index, string in enumerate(self.strings):
            chars = []
            for qubit in order:
                op = string[qubit]
                if qubit in leaf_set:
                    if index in (0, last):
                        chars.append(op.lower())
                    # middle strings omit the common section entirely
                else:
                    chars.append(op if op != I else I)
            lines.append("".join(chars))
        weights = ", ".join(f"{w:g}" for w in self.weights)
        lines.append(f"weights: {{{weights}}}, angle: {self.angle:g}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"TetrisBlockIR({self.num_strings} strings, "
            f"root={list(self.root_qubits)}, leaf={list(self.leaf_qubits)})"
        )


def lower_blocks(
    blocks: Sequence[PauliBlock], sort_strings: bool = True
) -> List[TetrisBlockIR]:
    """Lower plain Pauli blocks into Tetris-IR, as one batch kernel over
    their stacked bitplanes (see the module docstring)."""
    if not blocks:
        return []
    x, z, starts = block_planes(blocks)
    sizes = np.diff(np.append(starts, len(x)))
    width = max(block.num_qubits for block in blocks)
    planes = x | z
    support = np.bitwise_or.reduceat(planes, starts, axis=0)
    leaf = leaf_masks(x, z, starts)
    # A single string has everything in common with itself; the rotation
    # still needs a root, so treat the support as root.
    leaf[sizes == 1] = 0
    # Every per-string support is a subset of the block support, so the
    # supports are uniform iff every row weight equals the active length.
    weights = popcount(planes).sum(axis=1, dtype=np.int64)
    active = popcount(support).sum(axis=1, dtype=np.int64)
    uniform = np.logical_and.reduceat(
        weights == np.repeat(active, sizes), starts
    ).tolist()
    leaf_sets = _qubit_tuples(leaf, width)
    root_sets = _qubit_tuples(support & ~leaf, width)
    orders = _gray_orders(x, z, starts, sizes, width) if sort_strings else {}
    lowered = []
    for index, block in enumerate(blocks):
        order = orders.get(index)
        if order is None:
            string_order = tuple(range(len(block)))
        else:
            string_order = tuple(order)
            block = block.reordered(order)
        lowered.append(TetrisBlockIR._lowered(
            block, string_order, root_sets[index], leaf_sets[index],
            uniform[index],
        ))
    return lowered


def _qubit_tuples(masks: np.ndarray, width: int) -> List[Tuple[int, ...]]:
    """Each packed mask row's set qubits as an ascending tuple."""
    rows, qubits = np.nonzero(unpack_bits(masks, width))
    bounds = np.searchsorted(rows, np.arange(len(masks) + 1)).tolist()
    qubits = qubits.tolist()
    return [tuple(qubits[a:b]) for a, b in zip(bounds, bounds[1:])]


def _gray_orders(
    x: np.ndarray,
    z: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    width: int,
) -> Dict[int, List[int]]:
    """The Gray-chain string order of every pairwise-commuting block of
    more than one string, by block index."""
    orders: Dict[int, List[int]] = {}
    key_width = 32 * -(-width // 32)  # qubits in the lex-key expansion
    # Not np.unique: it imports numpy.ma, which, loaded in the middle of
    # a compile, raised peak RSS by about 4 MB.
    for k in sorted(set(sizes.tolist()) - {1}):
        members = np.flatnonzero(sizes == k)
        step = max(1, _CHUNK_WORDS // (k * max(k * x.shape[1], key_width)))
        for begin in range(0, len(members), step):
            ids = members[begin:begin + step]
            rows = starts[ids][:, None] + np.arange(k)
            commuting, chains = _gray_chunk(x[rows], z[rows], width)
            orders.update(zip(ids[commuting].tolist(), chains.tolist()))
    return orders


def _gray_chunk(
    bx: np.ndarray, bz: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Gray chains of a ``[B, k, words]`` chunk of k-string blocks.

    Returns the mask of pairwise-commuting blocks and, for those, the
    ``[commuting, k]`` chains of row indices."""
    anti = popcount(
        (bx[:, :, None] & bz[:, None]) ^ (bz[:, :, None] & bx[:, None])
    ).sum(axis=-1) & 1
    commuting = ~anti.any(axis=(1, 2))
    bx, bz = bx[commuting], bz[commuting]
    count, k = bx.shape[:2]
    if count == 0:
        return commuting, np.empty((0, k), dtype=np.intp)
    distance = popcount(
        (bx[:, :, None] ^ bx[:, None]) | (bz[:, :, None] ^ bz[:, None])
    ).sum(axis=-1, dtype=np.int64)
    keys = lex_key_words(
        CODE_OF_XZ[unpack_bits(bx, width), unpack_bits(bz, width)]
    ).reshape(count * k, -1)
    # One stable sort with the block as primary key ranks every block's
    # rows among themselves (np.lexsort sorts by its last key first).
    owner = np.repeat(np.arange(count), k)
    sorted_rows = np.lexsort((*keys.T[::-1], owner))
    ranks = np.empty(count * k, dtype=np.int64)
    ranks[sorted_rows] = np.arange(count * k)
    ranks = ranks.reshape(count, k) - k * np.arange(count)[:, None]

    # From the lowest rank, always the nearest untaken string, ties to the
    # lower rank: ``distance * k + rank`` orders by (distance, rank).
    key = distance * k + ranks[:, None, :]
    done = np.iinfo(np.int64).max
    chunk = np.arange(count)
    current = np.argmin(ranks, axis=1)
    chains = np.empty((count, k), dtype=np.intp)
    chains[:, 0] = current
    taken = np.zeros((count, k), dtype=bool)
    taken[chunk, current] = True
    for step in range(1, k):
        current = np.argmin(
            np.where(taken, done, key[chunk, current]), axis=1
        )
        chains[:, step] = current
        taken[chunk, current] = True
    return commuting, chains
