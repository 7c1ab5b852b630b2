"""Immutable Pauli strings as views over packed symplectic bitplanes.

A :class:`PauliString` is a tensor product of single-qubit Pauli operators,
e.g. ``XXYZI``.  Position ``k`` in the string acts on qubit ``k`` (the paper's
convention in Fig. 1).  Since the PauliTable refactor the canonical storage
is the symplectic ``(x, z)`` bit encoding packed into ``uint64`` words (64
qubits per word); the character rendering is materialized lazily and cached,
so ``ops``/``repr``/ordering behave exactly as the old character-backed
implementation while every kernel (product, commutation, overlap) runs on
whole words.  A string built from a :class:`~repro.pauli.table.PauliTable`
row is a zero-copy view of that row.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from .bits import (
    lex_key_words,
    num_words,
    pack_bits,
    popcount,
    sparse_words,
    unpack_bits,
)
from .operators import (
    CODE_OF_XZ,
    IS_PAULI_ORD,
    ORD_OF_XZ,
    PAULI_CHARS,
    X_BIT_OF_ORD,
    Z_BIT_OF_ORD,
    xz_of_char,
)

_PHASES = (1, 1j, -1, -1j)


def _width_error(a: int, b: int) -> ValueError:
    """The shared width-mismatch error for every pairwise helper."""
    return ValueError(f"Pauli width mismatch: {a} != {b} qubits")


class PauliString:
    """A fixed-width tensor product of single-qubit Pauli operators.

    Parameters
    ----------
    ops:
        The operator characters, e.g. ``"XXYZI"``, or an iterable of
        single characters.  Only ``I``, ``X``, ``Y``, ``Z`` are allowed.

    Examples
    --------
    >>> p = PauliString("XZI")
    >>> p.num_qubits
    3
    >>> p.support
    (0, 1)
    >>> phase, q = p.product(PauliString("YZI"))
    >>> (phase, str(q))
    ((-0-1j), 'ZII')
    """

    __slots__ = ("_x", "_z", "_n", "_ops", "_hash", "_key")

    def __init__(self, ops) -> None:
        if isinstance(ops, PauliString):
            self._x = ops._x
            self._z = ops._z
            self._n = ops._n
            self._ops = ops._ops
            self._hash = ops._hash
            self._key = ops._key
            return
        text = ops if isinstance(ops, str) else "".join(ops)
        try:
            ords = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        except UnicodeEncodeError:
            ords = None
        if ords is None or not IS_PAULI_ORD[ords].all():
            for char in text:
                if char not in PAULI_CHARS:
                    raise ValueError(
                        f"invalid Pauli character {char!r} in {text!r}"
                    )
        self._x = pack_bits(X_BIT_OF_ORD[ords])
        self._z = pack_bits(Z_BIT_OF_ORD[ords])
        self._x.flags.writeable = False
        self._z.flags.writeable = False
        self._n = len(text)
        self._ops = text
        self._hash = None
        self._key = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_packed(
        cls,
        x: np.ndarray,
        z: np.ndarray,
        num_qubits: int,
        ops: Optional[str] = None,
    ) -> "PauliString":
        """Zero-copy view over packed ``(x, z)`` word rows (internal)."""
        self = cls.__new__(cls)
        x.flags.writeable = False
        z.flags.writeable = False
        self._x = x
        self._z = z
        self._n = num_qubits
        self._ops = ops
        self._hash = None
        self._key = None
        return self

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        """The all-identity string on ``num_qubits`` qubits."""
        words = num_words(num_qubits)
        return cls._from_packed(
            np.zeros(words, dtype=np.uint64),
            np.zeros(words, dtype=np.uint64),
            num_qubits,
        )

    @classmethod
    def from_ops(cls, num_qubits: int, ops: Dict[int, str]) -> "PauliString":
        """Build a string from a sparse ``{qubit: operator}`` mapping."""
        x = np.zeros(num_words(num_qubits), dtype=np.uint64)
        z = x.copy()
        for qubit, char in ops.items():
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit {qubit} out of range 0..{num_qubits - 1}")
            if char not in PAULI_CHARS:
                raise ValueError(
                    f"invalid Pauli character {char!r} at qubit {qubit}"
                )
            x_bit, z_bit = xz_of_char(char)
            bit = np.uint64(1) << np.uint64(qubit & 63)
            if x_bit:
                x[qubit >> 6] |= bit
            if z_bit:
                z[qubit >> 6] |= bit
        return cls._from_packed(x, z, num_qubits)

    @classmethod
    def from_xz_sets(
        cls, num_qubits: int, x_qubits: Iterable[int], z_qubits: Iterable[int]
    ) -> "PauliString":
        """Build a string from the qubit sets carrying an x / z bit.

        A qubit in both sets is ``Y``, x-only is ``X``, z-only is ``Z`` —
        the direct symplectic constructor the fermionic encoders use to
        emit their ladder strings without ever joining character lists.
        """
        return cls._from_packed(
            sparse_words(num_qubits, x_qubits),
            sparse_words(num_qubits, z_qubits),
            num_qubits,
        )

    # -- basic views -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._n

    @property
    def ops(self) -> str:
        """The operator characters as a string, e.g. ``"XXYZI"``."""
        if self._ops is None:
            ords = ORD_OF_XZ[
                unpack_bits(self._x, self._n), unpack_bits(self._z, self._n)
            ]
            self._ops = ords.tobytes().decode("ascii")
        return self._ops

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, qubit: int) -> str:
        return self.ops[qubit]

    def __iter__(self) -> Iterator[str]:
        return iter(self.ops)

    @property
    def support(self) -> Tuple[int, ...]:
        """Qubits with a non-identity operator, ascending."""
        active = unpack_bits(self._x | self._z, self._n)
        return tuple(np.flatnonzero(active).tolist())

    @property
    def weight(self) -> int:
        """Number of non-identity operators (the paper's *active length*)."""
        return int(popcount(self._x | self._z).sum())

    def is_identity(self) -> bool:
        return not (self._x.any() or self._z.any())

    # -- symplectic form -------------------------------------------------------

    def xz_bits(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(x, z)`` bit vectors (uint8) of the symplectic encoding."""
        return unpack_bits(self._x, self._n), unpack_bits(self._z, self._n)

    def xz_words(self) -> Tuple[np.ndarray, np.ndarray]:
        """The packed ``(x, z)`` word rows (read-only views)."""
        return self._x, self._z

    # -- algebra ---------------------------------------------------------------

    def product(self, other: "PauliString") -> Tuple[complex, "PauliString"]:
        """Multiply ``self @ other``.

        Returns ``(phase, result)`` with ``phase`` one of ``1, 1j, -1, -1j``.
        """
        if other._n != self._n:
            raise _width_error(self._n, other._n)
        xa, za, xb, zb = self._x, self._z, other._x, other._z
        xc = xa ^ xb
        zc = za ^ zb
        power = (
            int(popcount(xa & za).sum())
            + int(popcount(xb & zb).sum())
            - int(popcount(xc & zc).sum())
            + 2 * int(popcount(za & xb).sum())
        ) % 4
        return _PHASES[power], PauliString._from_packed(xc, zc, self._n)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the two strings commute (symplectic inner product is 0)."""
        if other._n != self._n:
            raise _width_error(self._n, other._n)
        anti = (self._x & other._z) ^ (self._z & other._x)
        return int(popcount(anti).sum()) % 2 == 0

    # -- structure helpers used by the compilers -------------------------------

    def common_qubits(self, other: "PauliString") -> Tuple[int, ...]:
        """Qubits where both strings have the *same non-identity* operator."""
        if other._n != self._n:
            raise _width_error(self._n, other._n)
        same = ~(self._x ^ other._x) & ~(self._z ^ other._z)
        matched = same & (self._x | self._z)
        return tuple(np.flatnonzero(unpack_bits(matched, self._n)).tolist())

    def restricted(self, qubits: Iterable[int]) -> "PauliString":
        """Keep operators only on ``qubits``; identity elsewhere."""
        mask = sparse_words(self._n, qubits, clip=True)
        return PauliString._from_packed(self._x & mask, self._z & mask, self._n)

    def padded(self, num_qubits: int) -> "PauliString":
        """Extend with identities up to ``num_qubits`` qubits."""
        if num_qubits < self._n:
            raise ValueError("cannot shrink a Pauli string")
        words = num_words(num_qubits)
        x = np.zeros(words, dtype=np.uint64)
        z = np.zeros(words, dtype=np.uint64)
        x[: self._x.shape[0]] = self._x
        z[: self._z.shape[0]] = self._z
        return PauliString._from_packed(x, z, num_qubits)

    # -- ordering --------------------------------------------------------------

    def lex_key(self) -> Tuple[bytes, int]:
        """A sort key over the bitplanes equal to character-string order.

        Each qubit contributes a 2-bit code (I=0, X=1, Y=2, Z=3) packed
        most-significant-first into 32-qubit words, rendered as one
        big-endian byte string so comparison is width-agnostic: bytes
        comparison applies the prefix rule across word boundaries, and
        the appended width breaks the identity-extension tie (``"X"``
        sorts before ``"XI"``).
        """
        if self._key is None:
            codes = CODE_OF_XZ[
                unpack_bits(self._x, self._n), unpack_bits(self._z, self._n)
            ]
            words = lex_key_words(codes)
            self._key = (words.astype(">u8").tobytes(), self._n)
        return self._key

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PauliString):
            return (
                self._n == other._n
                and np.array_equal(self._x, other._x)
                and np.array_equal(self._z, other._z)
            )
        if isinstance(other, str):
            return self.ops == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.ops)
        return self._hash

    def __lt__(self, other: "PauliString") -> bool:
        if isinstance(other, PauliString):
            return self.lex_key() < other.lex_key()
        return NotImplemented

    def __reduce__(self):
        return (PauliString, (self.ops,))

    def __str__(self) -> str:
        return self.ops

    def __repr__(self) -> str:
        return f"PauliString({self.ops!r})"
