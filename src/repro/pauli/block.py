"""Pauli-string blocks — the unit of scheduling in Paulihedral and Tetris.

A block groups Pauli strings that came from the same ansatz-construction
step (e.g. one UCCSD excitation operator after encoding).  Strings within a
block share most of their operators; this is the similarity both Paulihedral
(1Q cancellation) and Tetris (2Q cancellation) exploit.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..circuit.parameter import is_symbolic
from .bits import num_words
from .pauli_string import PauliString
from .table import PauliTable


class PauliBlock:
    """An ordered group of Pauli strings sharing a rotation-angle factor.

    Parameters
    ----------
    strings:
        The Pauli strings, all of equal width.
    weights:
        Per-string weights (the paper's ``w1..wk``).  Defaults to 1.0 each.
    angle:
        The shared rotation-angle factor ``theta``.  The synthesized circuit
        structure does not depend on it, but it is carried through to gate
        parameters.
    label:
        Optional provenance label (e.g. the excitation ``(i, j) -> (a, b)``).
    """

    __slots__ = ("_strings", "_weights", "_table", "angle", "label")

    def __init__(
        self,
        strings: Sequence[PauliString],
        weights: Optional[Sequence[float]] = None,
        angle: float = 1.0,
        label: str = "",
    ) -> None:
        strings = [PauliString(s) for s in strings]
        if not strings:
            raise ValueError("a PauliBlock needs at least one string")
        width = strings[0].num_qubits
        for string in strings:
            if string.num_qubits != width:
                raise ValueError("all strings in a block must have equal width")
        if weights is None:
            weights = [1.0] * len(strings)
        if len(weights) != len(strings):
            raise ValueError("weights must match strings")
        self._strings: Tuple[PauliString, ...] = tuple(strings)
        self._weights: Tuple[float, ...] = tuple(float(w) for w in weights)
        self._table: Optional[PauliTable] = None
        # Symbolic angles (template compilation) pass through untouched;
        # anything else must coerce to a float as before.
        self.angle = angle if is_symbolic(angle) else float(angle)
        self.label = label

    # -- views -----------------------------------------------------------------

    @property
    def strings(self) -> Tuple[PauliString, ...]:
        return self._strings

    @property
    def table(self) -> PauliTable:
        """The block's strings as one packed bitplane table (cached)."""
        if self._table is None:
            self._table = PauliTable.from_strings(self._strings)
        return self._table

    @property
    def weights(self) -> Tuple[float, ...]:
        return self._weights

    @property
    def num_qubits(self) -> int:
        return self._strings[0].num_qubits

    def __len__(self) -> int:
        return len(self._strings)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self._strings)

    def __getitem__(self, index: int) -> PauliString:
        return self._strings[index]

    # -- structure -------------------------------------------------------------

    @property
    def support(self) -> FrozenSet[int]:
        """Union of non-identity supports of all strings."""
        return frozenset(self.table.support_qubits())

    @property
    def active_length(self) -> int:
        """The paper's *active length*: number of qubits touched by the block."""
        return len(self.support)

    def common_qubits(self) -> FrozenSet[int]:
        """Qubits whose (non-identity) operator is identical across all strings.

        This is the paper's *leaf-tree qubit set* (Sec. IV-A): the maximum
        qubit set over which the corresponding Pauli operators are the same
        for all strings in the block.  One packed reduction over the
        block's bitplanes.
        """
        return frozenset(self.table.common_qubits())

    def root_qubits(self) -> FrozenSet[int]:
        """The paper's *root-tree qubit set*: supported but not common."""
        return frozenset(self.support - self.common_qubits())

    def pairwise_commuting(self) -> bool:
        """True iff every pair of strings in the block commutes.

        Strings from one UCCSD excitation always commute; reordering a
        block is only semantics-preserving when this holds.  One batch
        anticommutation-matrix kernel instead of O(k^2) pair calls.
        """
        return self.table.pairwise_commuting()

    def common_substring(self) -> PauliString:
        """The shared operators as a string (identity off the common set)."""
        return self._strings[0].restricted(self.common_qubits())

    def reordered(self, order: Sequence[int]) -> "PauliBlock":
        """Return a block with strings permuted by ``order``.

        The (immutable) strings are shared, not copied, and the table is
        the rows of this block's table in the new order.
        """
        strings = tuple(self._strings[i] for i in order)
        if not strings:
            raise ValueError("a PauliBlock needs at least one string")
        block = PauliBlock.__new__(PauliBlock)
        block._strings = strings
        block._weights = tuple(self._weights[i] for i in order)
        block._table = self.table.select(order)
        block.angle = self.angle
        block.label = self.label
        return block

    def __repr__(self) -> str:
        return (
            f"PauliBlock({len(self)} strings, {self.num_qubits}q, "
            f"label={self.label!r})"
        )


def block_planes(
    blocks: Sequence[PauliBlock],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every string's packed ``(x, z)`` words, block after block.

    Returns read-only ``x, z : uint64[strings, words]`` and ``starts``,
    each block's first row, so per-block reductions over the stack are
    one ``reduceat``.  This is the workload-level stack the batch
    kernels over blocks read (Tetris-IR lowering, the leaf table, the
    logical gate counts, the interaction pairs).  When every block's
    table is cached the stack is their concatenation; otherwise every
    string's words are stacked once and each block without a table
    caches a view of its rows.  Blocks of different widths are
    zero-padded to the widest block's word count.
    """
    if not blocks:
        empty = np.zeros((0, 0), dtype=np.uint64)
        empty.flags.writeable = False
        return empty, empty, np.zeros(0, dtype=np.intp)
    sizes = [len(block._strings) for block in blocks]
    starts = np.zeros(len(blocks), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    words = [num_words(block.num_qubits) for block in blocks]
    width = max(words)
    equal = words.count(width) == len(words)
    if equal and all(block._table is not None for block in blocks):
        x = np.concatenate([block._table.x for block in blocks])
        z = np.concatenate([block._table.z for block in blocks])
    else:
        rows = [s.xz_words() for block in blocks for s in block._strings]
        if equal:
            x = np.stack([row[0] for row in rows])
            z = np.stack([row[1] for row in rows])
        else:
            x = np.zeros((len(rows), width), dtype=np.uint64)
            z = np.zeros((len(rows), width), dtype=np.uint64)
            for index, (row_x, row_z) in enumerate(rows):
                x[index, : len(row_x)] = row_x
                z[index, : len(row_z)] = row_z
    x.flags.writeable = False
    z.flags.writeable = False
    for block, start, size, used in zip(blocks, starts.tolist(), sizes, words):
        if block._table is None:
            block._table = PauliTable._adopt(
                x[start:start + size, :used],
                z[start:start + size, :used],
                block.num_qubits,
            )
    return x, z, starts


def leaf_masks(x: np.ndarray, z: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each block's packed leaf-tree set over :func:`block_planes` rows.

    Row ``b`` is :meth:`PauliTable.common_mask` of block ``b``'s rows:
    the qubits where every row carries the first row's non-identity
    operator, as one ``bitwise_and.reduceat`` over the stack.
    """
    sizes = np.diff(np.append(starts, len(x)))
    first_x, first_z = x[starts], z[starts]
    same = ~(x ^ np.repeat(first_x, sizes, axis=0))
    same &= ~(z ^ np.repeat(first_z, sizes, axis=0))
    return np.bitwise_and.reduceat(same, starts, axis=0) & (first_x | first_z)


def total_strings(blocks: Iterable[PauliBlock]) -> int:
    """Total number of Pauli strings across ``blocks``."""
    return sum(len(block) for block in blocks)

