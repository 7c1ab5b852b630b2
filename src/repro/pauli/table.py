"""PauliTable — the bit-packed symplectic IR for whole Pauli term lists.

The compilation pipeline is Pauli-level end to end: block formation, the
Eq. (1) leaf-tree similarity ordering, and commutation-aware scheduling all
reduce to per-qubit comparisons over Pauli strings.  :class:`PauliTable`
stores a whole term list as two ``uint64`` bitplanes

``x, z : uint64[terms, ceil(n / 64)]``

(qubit ``q`` of row ``t`` lives in word ``q // 64``, bit ``q % 64``) and
exposes the comparisons as *batch kernels*: a pairwise commutation matrix is
a popcount of ``x_a & z_b ^ z_a & x_b``, the Eq. (1) similarity numerators
are an ``AND`` plus popcount, row products are three XORs and a phase
popcount.  Every layer above (Tetris IR, schedulers, Paulihedral/2QAN
ordering, the upper-bound analysis, ``QubitOperator`` algebra) consumes
these kernels instead of re-paying a per-pair character loop.

:class:`~repro.pauli.pauli_string.PauliString` objects returned by
:meth:`PauliTable.row` are zero-copy views over one row.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bits import (
    lex_key_words,
    num_words,
    popcount,
    sparse_words,
    unpack_bits,
)
from .operators import CODE_OF_XZ
from .pauli_string import PauliString, _width_error

_PHASES = np.array([1, 1j, -1, -1j], dtype=complex)

#: Upper bound on the uint64 scratch (in words) a pairwise kernel may
#: materialize at once; larger products are computed in row chunks.
_CHUNK_WORDS = 1 << 22  # 32 MiB of uint64 scratch


def _chunk_rows(rows: int, cols: int, words: int) -> int:
    """Row-chunk size keeping one broadcast temporary under the budget."""
    per_row = max(1, cols * words)
    return max(1, min(rows, _CHUNK_WORDS // per_row))


def _copy_if_caller_owned(plane: np.ndarray) -> np.ndarray:
    """Contiguous uint64 view of ``plane``, copied when it would alias a
    writeable caller array (freezing someone else's buffer in place, or
    letting later writes corrupt the table, are both unacceptable)."""
    out = np.ascontiguousarray(plane, dtype=np.uint64)
    if out is plane and out.flags.writeable:
        out = out.copy()
    return out


class PauliTable:
    """Packed symplectic bitplanes for a list of equal-width Pauli terms."""

    __slots__ = ("x", "z", "num_qubits")

    def __init__(self, x: np.ndarray, z: np.ndarray, num_qubits: int) -> None:
        # The public constructor never freezes (or aliases) a writeable
        # caller buffer — it copies instead.  Internal kernels adopt their
        # freshly-created arrays via _adopt to skip the copy.
        self._init_planes(
            _copy_if_caller_owned(x), _copy_if_caller_owned(z), num_qubits
        )

    def _init_planes(self, x: np.ndarray, z: np.ndarray, num_qubits: int) -> None:
        if x.ndim != 2 or z.ndim != 2 or x.shape != z.shape:
            raise ValueError("bitplanes must be equal-shape 2-D arrays")
        if x.shape[1] != num_words(num_qubits):
            raise ValueError(
                f"bitplanes carry {x.shape[1]} words; "
                f"{num_qubits} qubits need {num_words(num_qubits)}"
            )
        self.x = x
        self.z = z
        self.num_qubits = num_qubits
        self.x.flags.writeable = False
        self.z.flags.writeable = False

    @classmethod
    def _adopt(cls, x: np.ndarray, z: np.ndarray, num_qubits: int) -> "PauliTable":
        """Wrap arrays this module just created, without a defensive copy."""
        self = cls.__new__(cls)
        self._init_planes(
            np.ascontiguousarray(x, dtype=np.uint64),
            np.ascontiguousarray(z, dtype=np.uint64),
            num_qubits,
        )
        return self

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_strings(
        cls,
        strings: Sequence[PauliString],
        num_qubits: Optional[int] = None,
    ) -> "PauliTable":
        """Stack :class:`PauliString` rows (equal widths required)."""
        if not strings:
            if num_qubits is None:
                raise ValueError("an empty PauliTable needs an explicit width")
            words = num_words(num_qubits)
            return cls._adopt(
                np.zeros((0, words), dtype=np.uint64),
                np.zeros((0, words), dtype=np.uint64),
                num_qubits,
            )
        strings = [PauliString(s) for s in strings]
        width = strings[0].num_qubits
        for string in strings:
            if string.num_qubits != width:
                raise _width_error(width, string.num_qubits)
        if num_qubits is not None and num_qubits != width:
            raise _width_error(num_qubits, width)
        x = np.stack([s.xz_words()[0] for s in strings])
        z = np.stack([s.xz_words()[1] for s in strings])
        return cls._adopt(x, z, width)

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "PauliTable":
        """Build from character strings, e.g. ``["XXI", "IYZ"]``."""
        return cls.from_strings([PauliString(label) for label in labels])

    # -- views -----------------------------------------------------------------

    @property
    def num_terms(self) -> int:
        return self.x.shape[0]

    @property
    def num_word_columns(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.num_terms

    def row(self, index: int) -> PauliString:
        """Row ``index`` as a zero-copy :class:`PauliString` view."""
        return PauliString._from_packed(
            self.x[index], self.z[index], self.num_qubits
        )

    def to_strings(self) -> List[PauliString]:
        return [self.row(index) for index in range(self.num_terms)]

    def select(self, rows) -> "PauliTable":
        """Sub-table of ``rows`` (any NumPy fancy index)."""
        rows = np.asarray(rows, dtype=np.intp)
        return PauliTable._adopt(self.x[rows], self.z[rows], self.num_qubits)

    def __repr__(self) -> str:
        return (
            f"PauliTable({self.num_terms} terms, {self.num_qubits}q, "
            f"{self.num_word_columns} words/row)"
        )

    # -- per-row reductions ----------------------------------------------------

    def weights(self) -> np.ndarray:
        """Per-row non-identity count (the paper's *active length*)."""
        return popcount(self.x | self.z).sum(axis=1, dtype=np.int64)

    def support_bits(self) -> np.ndarray:
        """Per-row support as a ``[terms, n]`` uint8 plane."""
        return unpack_bits(self.x | self.z, self.num_qubits)

    def support_mask(self) -> np.ndarray:
        """Packed union of all rows' supports (the block support)."""
        if self.num_terms == 0:
            return np.zeros(self.num_word_columns, dtype=np.uint64)
        return np.bitwise_or.reduce(self.x | self.z, axis=0)

    def support_qubits(self) -> Tuple[int, ...]:
        """Union support as ascending qubit indices."""
        bits = unpack_bits(self.support_mask(), self.num_qubits)
        return tuple(np.flatnonzero(bits).tolist())

    def common_mask(self) -> np.ndarray:
        """Packed leaf-tree set: qubits where *all* rows share one
        non-identity operator (paper Sec. IV-A)."""
        if self.num_terms == 0:
            return np.zeros(self.num_word_columns, dtype=np.uint64)
        x0, z0 = self.x[0], self.z[0]
        same = ~(self.x ^ x0) & ~(self.z ^ z0)
        return np.bitwise_and.reduce(same, axis=0) & (x0 | z0)

    def common_qubits(self) -> Tuple[int, ...]:
        """Leaf-tree set as ascending qubit indices."""
        bits = unpack_bits(self.common_mask(), self.num_qubits)
        return tuple(np.flatnonzero(bits).tolist())

    def code_rows(self) -> np.ndarray:
        """Per-qubit lexicographic codes (I=0, X=1, Y=2, Z=3) as
        ``uint8[terms, n]`` — the dense decode for run/rendering passes."""
        return CODE_OF_XZ[
            unpack_bits(self.x, self.num_qubits),
            unpack_bits(self.z, self.num_qubits),
        ]

    # -- pairwise batch kernels ------------------------------------------------

    def _other(self, other: Optional["PauliTable"]) -> "PauliTable":
        if other is None:
            return self
        if other.num_qubits != self.num_qubits:
            raise _width_error(self.num_qubits, other.num_qubits)
        return other

    def _pairwise_popcount(self, other, combine) -> np.ndarray:
        """``out[i, j] = popcount(combine(row_i, row_j))`` in row chunks."""
        rows, cols = self.num_terms, other.num_terms
        out = np.empty((rows, cols), dtype=np.int64)
        if rows == 0 or cols == 0:
            return out
        xa = self.x[:, None, :]
        za = self.z[:, None, :]
        xb = other.x[None, :, :]
        zb = other.z[None, :, :]
        step = _chunk_rows(rows, cols, self.num_word_columns)
        for start in range(0, rows, step):
            stop = min(rows, start + step)
            words = combine(xa[start:stop], za[start:stop], xb, zb)
            out[start:stop] = popcount(words).sum(axis=-1, dtype=np.int64)
        return out

    def anticommutation_matrix(
        self, other: Optional["PauliTable"] = None
    ) -> np.ndarray:
        """``out[i, j]`` = symplectic inner product parity (1 = anticommute)."""
        other = self._other(other)
        counts = self._pairwise_popcount(
            other, lambda xa, za, xb, zb: (xa & zb) ^ (za & xb)
        )
        return (counts & 1).astype(np.uint8)

    def commutation_matrix(self, other: Optional["PauliTable"] = None) -> np.ndarray:
        """Boolean pairwise commutation matrix."""
        return self.anticommutation_matrix(other) == 0

    def match_matrix(self, other: Optional["PauliTable"] = None) -> np.ndarray:
        """``out[i, j]`` = number of qubits with the *same non-identity*
        operator in both rows — the Eq. (1) similarity numerator."""
        other = self._other(other)
        return self._pairwise_popcount(
            other,
            lambda xa, za, xb, zb: (
                ((xa & xb) | (za & zb)) & ~(xa ^ xb) & ~(za ^ zb)
            ),
        )

    def hamming_matrix(self, other: Optional["PauliTable"] = None) -> np.ndarray:
        """``out[i, j]`` = number of qubit positions where the rows differ."""
        other = self._other(other)
        return self._pairwise_popcount(
            other, lambda xa, za, xb, zb: (xa ^ xb) | (za ^ zb)
        )

    def pairwise_commuting(self) -> bool:
        """True iff every pair of rows commutes."""
        return not self.anticommutation_matrix().any()

    # -- aligned (row-to-row) kernels ------------------------------------------

    def match_counts(self, other: "PauliTable") -> np.ndarray:
        """Row-aligned same-non-identity-op counts (broadcasts 1-row tables)."""
        other = self._other(other)
        xa, za, xb, zb = self.x, self.z, other.x, other.z
        same = ~(xa ^ xb) & ~(za ^ zb)
        return popcount(same & ((xa & xb) | (za & zb))).sum(axis=-1, dtype=np.int64)

    def products(self, other: "PauliTable") -> Tuple[np.ndarray, "PauliTable"]:
        """Row-aligned products ``self[i] @ other[i]`` with phase tracking.

        Either operand may have a single row, which broadcasts against the
        other (the ``QubitOperator`` product expands one left term against
        the whole right table this way).  Returns ``(phases, table)`` with
        ``phases[i]`` one of ``1, 1j, -1, -1j``.
        """
        other = self._other(other)
        xa, za, xb, zb = self.x, self.z, other.x, other.z
        xc = xa ^ xb
        zc = za ^ zb
        power = (
            popcount(xa & za).sum(axis=-1, dtype=np.int64)
            + popcount(xb & zb).sum(axis=-1, dtype=np.int64)
            - popcount(xc & zc).sum(axis=-1, dtype=np.int64)
            + 2 * popcount(za & xb).sum(axis=-1, dtype=np.int64)
        ) % 4
        return _PHASES[power], PauliTable._adopt(xc, zc, self.num_qubits)

    # -- mask transforms -------------------------------------------------------

    def restricted(self, qubits: Iterable[int]) -> "PauliTable":
        """Keep operators only on ``qubits``; identity elsewhere."""
        mask = sparse_words(self.num_qubits, qubits, clip=True)
        return PauliTable._adopt(self.x & mask, self.z & mask, self.num_qubits)

    # -- ordering --------------------------------------------------------------

    def lex_argsort(self) -> np.ndarray:
        """Stable argsort reproducing character-string lexicographic order.

        Ties (duplicate rows) keep their original relative order, matching
        ``sorted()`` over the old character strings.  Keys come from the
        same packing as ``PauliString.lex_key`` (:func:`repro.pauli.bits.
        lex_key_words`), so table order and string order never diverge.
        """
        if self.num_terms == 0:
            return np.zeros(0, dtype=np.intp)
        keys = lex_key_words(self.code_rows())
        # np.lexsort sorts by the *last* key first -> feed columns reversed.
        return np.lexsort(tuple(keys[:, k] for k in range(keys.shape[1] - 1, -1, -1)))

    def lex_ranks(self) -> np.ndarray:
        """``ranks[i]`` = position of row ``i`` in lexicographic order."""
        order = self.lex_argsort()
        ranks = np.empty(self.num_terms, dtype=np.intp)
        ranks[order] = np.arange(self.num_terms, dtype=np.intp)
        return ranks
