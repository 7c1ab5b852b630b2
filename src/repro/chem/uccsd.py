"""Spin-conserving UCCSD excitation generation and encoding into blocks.

The UCCSD ansatz is ``prod_k exp(theta_k (T_k - T_k†))`` over single and
double electron excitations.  With a Jordan-Wigner or Bravyi-Kitaev encoder
each excitation becomes one :class:`~repro.pauli.block.PauliBlock` — the
paper's block granularity ("the size of one Tetris block is set to one block
of the Paulihedral block", Sec. VI-A).

Spin-orbital convention: *blocked*, spin orbital ``p + s * num_spatial``
holds spatial orbital ``p`` with spin ``s`` (0 = alpha, 1 = beta).
Excitations conserve spin: alpha->alpha and beta->beta singles;
alpha-alpha, beta-beta, and alpha-beta doubles.  This convention reproduces
the paper's Table I Pauli-string *and* CNOT counts exactly (e.g. LiH:
640 strings, 8064 logical CNOTs).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..pauli.bits import lex_key_words
from ..pauli.block import PauliBlock
from ..pauli.qubit_operator import HERMITIAN_TOLERANCE, TOLERANCE
from ..pauli.table import PauliTable
from .fermion import FermionOperator

ALPHA = 0
BETA = 1


def spin_orbital(spatial: int, spin: int, num_spatial: int) -> int:
    """Blocked spin-orbital index: alpha block first, then beta block."""
    return spatial + spin * num_spatial


class Excitation(NamedTuple):
    """One excitation operator: ``occupied`` -> ``virtual`` spin orbitals."""

    occupied: Tuple[int, ...]
    virtual: Tuple[int, ...]

    @property
    def is_single(self) -> bool:
        return len(self.occupied) == 1

    def label(self) -> str:
        kind = "s" if self.is_single else "d"
        occ = ",".join(map(str, self.occupied))
        vir = ",".join(map(str, self.virtual))
        return f"{kind}:{occ}->{vir}"

    def operator(self, amplitude: float) -> FermionOperator:
        if self.is_single:
            return FermionOperator.single_excitation(
                self.occupied[0], self.virtual[0], amplitude
            )
        return FermionOperator.double_excitation(
            (self.occupied[0], self.occupied[1]),
            (self.virtual[0], self.virtual[1]),
            amplitude,
        )


def uccsd_excitations(num_spatial: int, num_occupied: int) -> List[Excitation]:
    """All spin-conserving singles and doubles for the active space.

    ``num_occupied`` counts *spatial* orbitals that are doubly occupied.
    """
    if not 0 < num_occupied < num_spatial:
        raise ValueError("need 0 < num_occupied < num_spatial")
    occupied = range(num_occupied)
    virtual = range(num_occupied, num_spatial)
    excitations: List[Excitation] = []

    # Singles: same-spin i -> a for each spin channel.
    for spin in (ALPHA, BETA):
        for i in occupied:
            for a in virtual:
                excitations.append(
                    Excitation(
                        (spin_orbital(i, spin, num_spatial),),
                        (spin_orbital(a, spin, num_spatial),),
                    )
                )

    # Same-spin doubles: (i<j) -> (a<b) within one spin channel.
    for spin in (ALPHA, BETA):
        for i in occupied:
            for j in occupied:
                if j <= i:
                    continue
                for a in virtual:
                    for b in virtual:
                        if b <= a:
                            continue
                        excitations.append(
                            Excitation(
                                (
                                    spin_orbital(i, spin, num_spatial),
                                    spin_orbital(j, spin, num_spatial),
                                ),
                                (
                                    spin_orbital(a, spin, num_spatial),
                                    spin_orbital(b, spin, num_spatial),
                                ),
                            )
                        )

    # Mixed-spin doubles: i_alpha -> a_alpha together with j_beta -> b_beta.
    for i in occupied:
        for j in occupied:
            for a in virtual:
                for b in virtual:
                    excitations.append(
                        Excitation(
                            (
                                spin_orbital(i, ALPHA, num_spatial),
                                spin_orbital(j, BETA, num_spatial),
                            ),
                            (
                                spin_orbital(a, ALPHA, num_spatial),
                                spin_orbital(b, BETA, num_spatial),
                            ),
                        )
                    )
    return excitations


#: Excitations expanded per batch.  A double expands to 32 product rows,
#: and building their lex keys takes 8 bytes per qubit and row, so each
#: of a batch's temporaries stays near 4 MB at 100 qubits whatever the
#: workload's size.
_BATCH = 128


def _ladder_terms(encoder, num_qubits: int):
    """Every ladder operator's terms, read from the encoder once.

    Ladder operator ``op = 2 p + dagger`` (``a_p`` or ``a†_p``) owns
    rows ``K op .. K op + K - 1`` of the returned table; returns the
    table, the per-row coefficients and the term count ``K``.
    """
    operators = [
        list(encoder.ladder(orbital, dagger, num_qubits).terms())
        for orbital in range(num_qubits)
        for dagger in (False, True)
    ]
    # [2n, K]; NumPy refuses ladder operators of unequal term counts.
    coefficients = np.array(
        [[coefficient for _, coefficient in terms] for terms in operators],
        dtype=complex,
    )
    table = PauliTable.from_strings(
        [string for terms in operators for string, _ in terms],
        num_qubits=num_qubits,
    )
    return table, coefficients.reshape(-1), coefficients.shape[1]


def _encode_arity(occupied: np.ndarray, virtual: np.ndarray, ladders):
    """Encode excitations of one arity as sorted, merged rows.

    ``occupied``/``virtual`` are ``[E, m]`` spin-orbital arrays.  Each
    excitation is ``a†_v1 .. a†_vm a_om .. a_o1`` minus its Hermitian
    conjugate ``a†_o1 .. a†_om a_vm .. a_v1``; every ladder contributes
    one of its ``K`` terms, so an excitation expands to ``2 K^(2m)``
    products, formed position by position with row-aligned
    :meth:`PauliTable.products`.  Like terms are merged per excitation
    by one lex-key sort plus ``np.add.reduceat``.  Returns the kept rows
    (per excitation, in lexicographic order), their summed coefficients
    and the number of rows per excitation.
    """
    table, coefficients, per_op = ladders
    count, arity = occupied.shape
    excite = np.concatenate([virtual, occupied[:, ::-1]], axis=1)
    conjugate = np.concatenate([occupied, virtual[:, ::-1]], axis=1)
    daggers = np.repeat([1, 0], arity)
    operators = 2 * np.stack([excite, conjugate], axis=1) + daggers
    length = 2 * arity
    choices = np.indices((per_op,) * length).reshape(length, -1).T
    rows = (operators[:, :, None, :] * per_op + choices).reshape(-1, length)
    signs = np.repeat(np.tile([1.0 + 0j, -1.0 + 0j], count), len(choices))

    product = table.select(rows[:, 0])
    weight = signs * coefficients[rows[:, 0]]
    for position in range(1, length):
        column = rows[:, position]
        phases, product = product.products(table.select(column))
        weight = weight * phases * coefficients[column]

    # Every ladder coefficient is 0.5 or +-0.5i and every phase and sign
    # a unit, so each product and partial sum is an exact dyadic
    # rational: the merge order cannot change a bit of the result.
    owner = np.repeat(np.arange(count), 2 * len(choices))
    keys = lex_key_words(product.code_rows())
    order = np.lexsort((*keys.T[::-1], owner))
    keys, owner = keys[order], owner[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (owner[1:] != owner[:-1]) | (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(fresh)
    sums = np.add.reduceat(weight[order], starts)
    kept = np.abs(sums) > TOLERANCE
    return (
        product.select(order[starts[kept]]),
        sums[kept],
        np.bincount(owner[starts[kept]], minlength=count),
    )


def _batches(excitations: Sequence[Excitation]):
    """``(indices, occupied, virtual)`` for each run of at most
    ``_BATCH`` excitations of one arity."""
    for arity in sorted({len(e.occupied) for e in excitations}):
        members = [i for i, e in enumerate(excitations) if len(e.occupied) == arity]
        for start in range(0, len(members), _BATCH):
            batch = members[start:start + _BATCH]
            yield (
                batch,
                np.array([excitations[i].occupied for i in batch]).reshape(-1, arity),
                np.array([excitations[i].virtual for i in batch]).reshape(-1, arity),
            )


def encode_excitations(
    excitations: Sequence[Excitation],
    encoder,
    num_qubits: int,
    amplitudes: Sequence[float],
) -> List[PauliBlock]:
    """Encode excitations into blocks through batched bitplane products.

    Equal, string for string and weight for weight, to encoding each
    ``excitation.operator(1.0)`` through :meth:`FermionOperator.encode`
    (the general algebra, which the tests use as the oracle): strings
    in lexicographic order, weight ``-2 Im(c)`` for each term ``c P``.
    Bit-identical because the JW and BK ladder coefficients are dyadic
    (see :func:`_encode_arity`).  Excitations are expanded in batches
    of ``_BATCH`` of one arity; merges are per excitation, so batching
    bounds memory without changing a bit.  The block strings are row
    views of one table per batch.
    """
    if not excitations:
        return []
    blocks: List[Optional[PauliBlock]] = [None] * len(excitations)
    for excitation in excitations:
        for orbital in excitation.occupied + excitation.virtual:
            if not 0 <= orbital < num_qubits:
                raise ValueError(f"orbital {orbital} out of range")
    ladders = _ladder_terms(encoder, num_qubits)
    for members, occupied, virtual in _batches(excitations):
        table, sums, counts = _encode_arity(occupied, virtual, ladders)
        if (np.abs(sums.real) > HERMITIAN_TOLERANCE).any():
            raise ValueError("encoded excitation generator must be anti-Hermitian")
        weights = (-2.0 * sums.imag).tolist()
        stop = 0
        for index, size in zip(members, counts.tolist()):
            start, stop = stop, stop + size
            blocks[index] = PauliBlock(
                [table.row(row) for row in range(start, stop)],
                weights[start:stop],
                angle=amplitudes[index],
                label=excitations[index].label(),
            )
    return blocks


def excitation_to_block(
    excitation: Excitation,
    encoder,
    num_qubits: int,
    amplitude: float,
) -> PauliBlock:
    """Encode one excitation into a Pauli block.

    The encoded generator is anti-Hermitian: every term is ``i * c_k * P_k``
    with real ``c_k``.  We store ``P_k`` with weight ``c_k`` so the
    synthesized rotation angle for string ``k`` is ``-2 * c_k`` times the
    block angle (``exp(i phi P) = exp(-i (-2 phi)/2 P)``).
    """
    return encode_excitations([excitation], encoder, num_qubits, [amplitude])[0]


def uccsd_blocks(
    num_spatial: int,
    num_occupied: int,
    encoder,
    amplitudes: Sequence[float] = (),
    max_blocks: Optional[int] = None,
) -> List[PauliBlock]:
    """UCCSD blocks for the active space under ``encoder``.

    ``max_blocks`` keeps only the first blocks and encodes nothing past
    them; block ``k`` takes ``amplitudes[k]`` (0.1 past their end).
    """
    excitations = uccsd_excitations(num_spatial, num_occupied)[:max_blocks]
    amplitudes = [
        amplitudes[index] if index < len(amplitudes) else 0.1
        for index in range(len(excitations))
    ]
    return encode_excitations(excitations, encoder, 2 * num_spatial, amplitudes)
