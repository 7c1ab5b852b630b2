"""Tetris-IR: the refined Pauli-string block representation (paper Sec. IV-B).

A :class:`TetrisBlockIR` annotates a Pauli block with its *root-tree qubit
set* (qubits whose operators differ across the block's strings) and its
*leaf-tree qubit set* (qubits sharing one operator across all strings).  The
textual rendering follows Fig. 6(b): a qubit-order annotation, the common
section lower-cased and written only on the first and last strings.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ...pauli.block import PauliBlock
from ...pauli.operators import I
from ...pauli.pauli_string import PauliString


def _gray_order(block: PauliBlock) -> list:
    """Greedy minimal-Hamming-distance chain over the block's strings.

    Adjacent strings that agree on more operators let more of the shared
    tree cancel between the mirrored fan-out and the next fan-in, so the
    ordering starts from the lexicographically smallest string and always
    appends the closest remaining string.  Distances come from one batch
    Hamming-matrix kernel over the block's bitplanes; lexicographic ranks
    (stable, so duplicates keep index order) replace per-comparison
    character tie-breaks.
    """
    table = block.table
    distance = table.hamming_matrix()
    rank = table.lex_ranks()
    remaining = list(range(len(block)))
    current = min(remaining, key=lambda i: rank[i])
    order = [current]
    remaining.remove(current)
    while remaining:
        row = distance[current]
        current = min(remaining, key=lambda i: (row[i], rank[i]))
        order.append(current)
        remaining.remove(current)
    return order


class TetrisBlockIR:
    """A Pauli block refined with root/leaf qubit-set annotations."""

    __slots__ = (
        "block", "root_qubits", "leaf_qubits", "uniform_support",
        "string_order",
    )

    def __init__(self, block: PauliBlock, sort_strings: bool = True) -> None:
        # Reordering is only sound when the strings pairwise commute (always
        # true for UCCSD excitation blocks, not for arbitrary input).
        order = range(len(block))
        if sort_strings and len(block) > 1 and block.pairwise_commuting():
            order = _gray_order(block)
            block = block.reordered(order)
        # IR string i is input-block string string_order[i].  Duplicate
        # strings resolve to ascending input indices (the Gray chain
        # tie-breaks equal distances on stable lexicographic rank).
        self.string_order: Tuple[int, ...] = tuple(order)
        self.block = block
        leaf = block.common_qubits()
        support = block.support
        if len(block) == 1:
            # A single string has everything in common with itself; the
            # rotation still needs a root, so treat the support as root.
            leaf = frozenset()
        self.leaf_qubits: Tuple[int, ...] = tuple(sorted(leaf))
        self.root_qubits: Tuple[int, ...] = tuple(sorted(support - leaf))
        # Every per-string support is a subset of the block support, so the
        # supports are uniform iff every row weight equals the active length.
        self.uniform_support = bool(
            (block.table.weights() == len(support)).all()
        )

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


def lower_blocks(blocks: Sequence[PauliBlock], sort_strings: bool = True) -> List[TetrisBlockIR]:
    """Lower plain Pauli blocks into Tetris-IR."""
    return [TetrisBlockIR(block, sort_strings=sort_strings) for block in blocks]
