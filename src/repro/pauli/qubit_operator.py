"""Weighted sums of Pauli strings (a qubit-space Hamiltonian fragment).

:class:`QubitOperator` is the result of transforming fermionic operators
through an encoder (Jordan-Wigner or Bravyi-Kitaev).  It supports addition,
scalar multiplication and operator products, accumulating like terms and
dropping terms with negligible coefficients.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from .pauli_string import PauliString
from .table import PauliTable

#: Accumulated coefficients at or below this magnitude are dropped.
TOLERANCE = 1e-12
#: Default bound on the stray real (imaginary) part of an anti-Hermitian
#: (Hermitian) operator's coefficients.
HERMITIAN_TOLERANCE = 1e-9


class QubitOperator:
    """A complex-weighted sum of :class:`PauliString` terms on a fixed width.

    Examples
    --------
    >>> from repro.pauli import PauliString
    >>> a = QubitOperator.from_term(PauliString("XI"), 0.5)
    >>> b = QubitOperator.from_term(PauliString("YI"), 0.5)
    >>> sorted(str(p) for p, _ in (a * b).terms())
    ['ZI']
    """

    __slots__ = ("_num_qubits", "_terms")

    def __init__(self, num_qubits: int) -> None:
        self._num_qubits = num_qubits
        self._terms: Dict[PauliString, complex] = {}

    @classmethod
    def identity(cls, num_qubits: int) -> "QubitOperator":
        return cls.from_term(PauliString.identity(num_qubits), 1.0)

    @classmethod
    def from_term(cls, string: PauliString, coefficient: complex) -> "QubitOperator":
        op = cls(string.num_qubits)
        op.add_term(string, coefficient)
        return op

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def add_term(self, string: PauliString, coefficient: complex) -> None:
        """Accumulate ``coefficient * string`` into this operator in place."""
        if string.num_qubits != self._num_qubits:
            raise ValueError("term width mismatch")
        new = self._terms.get(string, 0j) + coefficient
        if abs(new) <= TOLERANCE:
            self._terms.pop(string, None)
        else:
            self._terms[string] = new

    def terms(self) -> Iterator[Tuple[PauliString, complex]]:
        """Iterate ``(string, coefficient)`` pairs in deterministic order.

        Terms sort lexicographically; ``PauliString.__lt__`` compares
        packed 2-bit code words, so the sort never materializes the
        character renderings.
        """
        for string in sorted(self._terms):
            yield string, self._terms[string]

    def coefficient(self, string: PauliString) -> complex:
        return self._terms.get(string, 0j)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        if other.num_qubits != self._num_qubits:
            raise ValueError("operator width mismatch")
        out = QubitOperator(self._num_qubits)
        out._terms = dict(self._terms)
        for string, coefficient in other._terms.items():
            out.add_term(string, coefficient)
        return out

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return self + (other * -1.0)

    def __mul__(self, other) -> "QubitOperator":
        if isinstance(other, QubitOperator):
            return self._operator_product(other)
        out = QubitOperator(self._num_qubits)
        for string, coefficient in self._terms.items():
            out.add_term(string, coefficient * other)
        return out

    def __rmul__(self, scalar) -> "QubitOperator":
        return self * scalar

    def _operator_product(self, other: "QubitOperator") -> "QubitOperator":
        if other.num_qubits != self._num_qubits:
            raise ValueError("operator width mismatch")
        out = QubitOperator(self._num_qubits)
        if not self._terms or not other._terms:
            return out
        # One batch product kernel per left term: a 1-row table broadcast
        # against the whole right table yields every product row and phase
        # in one shot, preserving the old accumulation order exactly.
        right_coefficients = list(other._terms.values())
        right_table = PauliTable.from_strings(
            list(other._terms.keys()), num_qubits=self._num_qubits
        )
        for left, c_left in self._terms.items():
            x_row, z_row = left.xz_words()
            left_row = PauliTable(
                x_row[None, :], z_row[None, :], self._num_qubits
            )
            phases, products = left_row.products(right_table)
            for index, c_right in enumerate(right_coefficients):
                out.add_term(
                    products.row(index), phases[index] * c_left * c_right
                )
        return out

    def is_hermitian(self, tolerance: float = HERMITIAN_TOLERANCE) -> bool:
        return all(abs(c.imag) <= tolerance for c in self._terms.values())

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{coefficient:+.3g}*{string}"
            for string, coefficient in list(self.terms())[:4]
        )
        suffix = ", ..." if len(self) > 4 else ""
        return f"QubitOperator({self._num_qubits}q, {len(self)} terms: {preview}{suffix})"
