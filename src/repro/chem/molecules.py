"""Molecule catalog (paper Table I) and synthetic UCCSD benchmarks.

Active spaces are chosen to reproduce the paper's Pauli-string counts
exactly under the spin-conserving UCCSD generator:

=======  ========  ===========  ============  ========
name     #qubits   occ spatial  virt spatial  #Pauli
=======  ========  ===========  ============  ========
LiH      12        2            4             640
BeH2     14        3            4             1488
CH4      18        4            5             4240
MgH2     22        4            7             8400
LiCl     28        4            10            17280
CO2      30        4            11            20944
=======  ========  ===========  ============  ========

Synthetic benchmarks UCC-10 .. UCC-35 sample ``n^2`` double-excitation
blocks on ``n`` spin orbitals (8 Pauli strings each), matching the paper's
"randomly sampling n^2 blocks from the original UCCSD".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..pauli.block import PauliBlock
from .amplitudes import synthetic_amplitudes
from .jordan_wigner import JordanWignerEncoder
from .uccsd import Excitation, encode_excitations, uccsd_blocks, uccsd_excitations


@dataclass(frozen=True)
class Molecule:
    """An active-space description sufficient to build the UCCSD ansatz."""

    name: str
    num_spatial: int
    num_occupied: int

    @property
    def num_qubits(self) -> int:
        return 2 * self.num_spatial


MOLECULES: Dict[str, Molecule] = {
    "LiH": Molecule("LiH", 6, 2),
    "BeH2": Molecule("BeH2", 7, 3),
    "CH4": Molecule("CH4", 9, 4),
    "MgH2": Molecule("MgH2", 11, 4),
    "LiCl": Molecule("LiCl", 14, 4),
    "CO2": Molecule("CO2", 15, 4),
}

MOLECULE_ORDER: Tuple[str, ...] = ("LiH", "BeH2", "CH4", "MgH2", "LiCl", "CO2")

SYNTHETIC_SIZES: Tuple[int, ...] = (10, 15, 20, 25, 30, 35)


def molecule(name: str) -> Molecule:
    try:
        return MOLECULES[name]
    except KeyError:
        raise KeyError(
            f"unknown molecule {name!r}; available: {sorted(MOLECULES)}"
        ) from None


def molecule_blocks(
    name: str,
    encoder=None,
    seed: int = 7,
    max_blocks: Optional[int] = None,
) -> List[PauliBlock]:
    """UCCSD blocks for a catalog molecule under ``encoder`` (default JW).

    ``max_blocks`` builds only the first blocks; amplitudes are drawn for
    every excitation, so each block's angle does not depend on it.
    """
    encoder = encoder or JordanWignerEncoder()
    mol = molecule(name)
    count = len(uccsd_excitations(mol.num_spatial, mol.num_occupied))
    amplitudes = synthetic_amplitudes(count, seed=seed)
    return uccsd_blocks(
        mol.num_spatial, mol.num_occupied, encoder, amplitudes, max_blocks
    )


def synthetic_ucc_blocks(
    num_qubits: int,
    encoder=None,
    seed: int = 11,
    num_blocks: int = 0,
    max_blocks: Optional[int] = None,
) -> List[PauliBlock]:
    """UCC-n benchmark: ``n^2`` random double-excitation blocks on n qubits.

    ``max_blocks`` samples and builds only the first blocks of the same
    sequence; amplitudes are drawn for all ``num_blocks``.
    """
    encoder = encoder or JordanWignerEncoder()
    if num_blocks <= 0:
        num_blocks = num_qubits * num_qubits
    rng = np.random.default_rng(seed)
    amplitudes = synthetic_amplitudes(num_blocks, seed=seed + 1)
    excitations = []
    if max_blocks is not None:
        num_blocks_built = min(num_blocks, max_blocks)
    else:
        num_blocks_built = num_blocks
    for _ in range(num_blocks_built):
        orbitals = rng.choice(num_qubits, size=4, replace=False)
        occupied = tuple(sorted(int(o) for o in orbitals[:2]))
        virtual = tuple(sorted(int(o) for o in orbitals[2:]))
        excitations.append(Excitation(occupied, virtual))
    return encode_excitations(excitations, encoder, num_qubits, amplitudes)


def benchmark_blocks(
    name: str,
    encoder=None,
    seed: int = 7,
    max_blocks: Optional[int] = None,
) -> List[PauliBlock]:
    """Resolve a benchmark name: a molecule ("LiH") or synthetic ("UCC-20").

    ``max_blocks`` (a scale's block cap) builds only the first blocks.
    """
    if name.startswith("UCC-"):
        return synthetic_ucc_blocks(
            int(name.split("-")[1]), encoder, seed=seed, max_blocks=max_blocks
        )
    return molecule_blocks(name, encoder, seed=seed, max_blocks=max_blocks)


def benchmark_num_qubits(name: str) -> int:
    if name.startswith("UCC-"):
        return int(name.split("-")[1])
    return molecule(name).num_qubits
