"""Fermionic ladder-operator algebra.

Minimal but exact: a :class:`FermionOperator` is a complex-weighted sum of
products of creation/annihilation operators.  Encoders (Jordan-Wigner,
Bravyi-Kitaev) map single ladder operators to :class:`QubitOperator` sums;
products and sums then follow from Pauli algebra.
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Sequence, Tuple

from ..pauli.qubit_operator import QubitOperator


class LadderOp(NamedTuple):
    """A single creation (``dagger=True``) or annihilation operator."""

    orbital: int
    dagger: bool

    def __repr__(self) -> str:
        return f"a{'†' if self.dagger else ''}_{self.orbital}"


#: A product of ladder operators, leftmost applied last (operator order).
FermionTerm = Tuple[LadderOp, ...]


class FermionOperator:
    """A weighted sum of ladder-operator products.

    Examples
    --------
    >>> op = FermionOperator.single_excitation(0, 2, 1.0)
    >>> len(list(op.terms()))
    2
    """

    __slots__ = ("_terms",)

    def __init__(self) -> None:
        self._terms: Dict[FermionTerm, complex] = {}

    @classmethod
    def from_term(cls, term: Sequence[LadderOp], coefficient: complex) -> "FermionOperator":
        out = cls()
        out.add_term(tuple(term), coefficient)
        return out

    def add_term(self, term: FermionTerm, coefficient: complex) -> None:
        new = self._terms.get(term, 0j) + coefficient
        if abs(new) <= 1e-14:
            self._terms.pop(term, None)
        else:
            self._terms[term] = new

    def terms(self) -> Iterator[Tuple[FermionTerm, complex]]:
        for term in sorted(self._terms, key=lambda t: (len(t), t)):
            yield term, self._terms[term]

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        out = FermionOperator()
        out._terms = dict(self._terms)
        for term, coefficient in other._terms.items():
            out.add_term(term, coefficient)
        return out

    def __mul__(self, scalar: complex) -> "FermionOperator":
        out = FermionOperator()
        for term, coefficient in self._terms.items():
            out.add_term(term, coefficient * scalar)
        return out

    def dagger(self) -> "FermionOperator":
        """Hermitian conjugate: reverse each product, toggle daggers."""
        out = FermionOperator()
        for term, coefficient in self._terms.items():
            conjugate = tuple(
                LadderOp(op.orbital, not op.dagger) for op in reversed(term)
            )
            out.add_term(conjugate, coefficient.conjugate())
        return out

    # -- standard generators -----------------------------------------------------

    @classmethod
    def single_excitation(cls, occupied: int, virtual: int, amplitude: float) -> "FermionOperator":
        """Anti-Hermitian ``t (a†_a a_i - a†_i a_a)``."""
        excite = cls.from_term(
            (LadderOp(virtual, True), LadderOp(occupied, False)), amplitude
        )
        return excite + excite.dagger() * -1.0

    @classmethod
    def double_excitation(
        cls,
        occupied_pair: Tuple[int, int],
        virtual_pair: Tuple[int, int],
        amplitude: float,
    ) -> "FermionOperator":
        """Anti-Hermitian ``t (a†_a a†_b a_j a_i - h.c.)``."""
        i, j = occupied_pair
        a, b = virtual_pair
        excite = cls.from_term(
            (
                LadderOp(a, True),
                LadderOp(b, True),
                LadderOp(j, False),
                LadderOp(i, False),
            ),
            amplitude,
        )
        return excite + excite.dagger() * -1.0

    def encode(self, encoder, num_qubits: int) -> QubitOperator:
        """Map to qubit space through ``encoder`` (see ``chem.encoders``).

        The general, unbatched path: ``chem.hamiltonian`` uses it for
        arbitrary coefficients, while UCCSD blocks are built by the
        batched :func:`repro.chem.uccsd.encode_excitations`, which must
        agree with it bit for bit.
        """
        out = QubitOperator(num_qubits)
        for term, coefficient in self._terms.items():
            product = QubitOperator.identity(num_qubits)
            for op in term:
                product = product * encoder.ladder(op.orbital, op.dagger, num_qubits)
            out = out + product * coefficient
        return out

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{coefficient:+.3g}*{list(term)}"
            for term, coefficient in list(self.terms())[:2]
        )
        return f"FermionOperator({len(self)} terms: {preview}...)"
