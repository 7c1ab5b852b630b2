"""Computational-chemistry front end: UCCSD ansatz + fermionic encoders."""

from .amplitudes import synthetic_amplitudes
from .bravyi_kitaev import BravyiKitaevEncoder, bk_matrix
from .fermion import FermionOperator, LadderOp
from .hamiltonian import (
    dense_hamiltonian,
    expectation_value,
    molecular_hamiltonian,
    synthetic_integrals,
)
from .jordan_wigner import JordanWignerEncoder
from .molecules import (
    MOLECULE_ORDER,
    MOLECULES,
    SYNTHETIC_SIZES,
    Molecule,
    benchmark_blocks,
    benchmark_num_qubits,
    molecule,
    molecule_blocks,
    synthetic_ucc_blocks,
)
from .uccsd import (
    Excitation,
    excitation_to_block,
    spin_orbital,
    uccsd_blocks,
    uccsd_excitations,
)

ENCODERS = {
    "JW": JordanWignerEncoder,
    "BK": BravyiKitaevEncoder,
}


def encoder_by_name(name: str):
    """Resolve "JW"/"BK" (case-insensitive) to an encoder instance."""
    try:
        return ENCODERS[name.upper()]()
    except KeyError:
        raise KeyError(f"unknown encoder {name!r}; available: JW, BK") from None


__all__ = [
    "FermionOperator",
    "LadderOp",
    "molecular_hamiltonian",
    "synthetic_integrals",
    "dense_hamiltonian",
    "expectation_value",
    "JordanWignerEncoder",
    "BravyiKitaevEncoder",
    "bk_matrix",
    "Excitation",
    "excitation_to_block",
    "spin_orbital",
    "uccsd_blocks",
    "uccsd_excitations",
    "Molecule",
    "MOLECULES",
    "MOLECULE_ORDER",
    "SYNTHETIC_SIZES",
    "molecule",
    "molecule_blocks",
    "synthetic_ucc_blocks",
    "benchmark_blocks",
    "benchmark_num_qubits",
    "synthetic_amplitudes",
    "ENCODERS",
    "encoder_by_name",
]
