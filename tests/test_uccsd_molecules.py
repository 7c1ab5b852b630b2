"""Tests for UCCSD generation and the molecule catalog (Table I)."""

import pytest

from repro.chem import (
    JordanWignerEncoder,
    Molecule,
    benchmark_blocks,
    benchmark_num_qubits,
    excitation_to_block,
    molecule,
    molecule_blocks,
    synthetic_amplitudes,
    synthetic_ucc_blocks,
    uccsd_excitations,
)
from repro.compiler import logical_cnot_count, logical_one_qubit_count
from repro.experiments.table1 import PAPER_TABLE1
from repro.pauli import total_strings


class TestExcitations:
    def test_counts_formula(self):
        # occ=2, virt=4 spatial: singles 2*2*4=16; aa/bb C(2,2)C(4,2)=6 each;
        # ab (2*4)^2=64 -> 92 total.
        excitations = uccsd_excitations(6, 2)
        assert len(excitations) == 92
        singles = [e for e in excitations if e.is_single]
        assert len(singles) == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            uccsd_excitations(4, 0)
        with pytest.raises(ValueError):
            uccsd_excitations(4, 4)

    def test_spin_conservation(self):
        n_spatial = 4
        for excitation in uccsd_excitations(n_spatial, 2):
            occupied_spins = sorted(o // n_spatial for o in excitation.occupied)
            virtual_spins = sorted(v // n_spatial for v in excitation.virtual)
            assert occupied_spins == virtual_spins

    def test_block_strings_commute_pairwise(self):
        """Strings of one excitation block commute — reordering is sound."""
        blocks = molecule_blocks("LiH")[:8]
        for block in blocks:
            for i, a in enumerate(block.strings):
                for b in block.strings[i + 1:]:
                    assert a.commutes_with(b)

    def test_block_weights_nonzero(self):
        block = excitation_to_block(
            uccsd_excitations(6, 2)[20], JordanWignerEncoder(), 12, 0.1
        )
        assert all(abs(w) > 0 for w in block.weights)


class TestMoleculeCatalog:
    def test_catalog_entries(self):
        mol = molecule("LiH")
        assert mol == Molecule("LiH", 6, 2)
        assert mol.num_qubits == 12
        with pytest.raises(KeyError):
            molecule("H2O")

    @pytest.mark.parametrize(
        "name", ["LiH", "BeH2", "CH4", "MgH2", "LiCl", "CO2"]
    )
    def test_table1_exact_match(self, name):
        blocks = molecule_blocks(name)
        expected_qubits, expected_pauli, expected_cnot, expected_oneq = (
            PAPER_TABLE1[name][0],
            PAPER_TABLE1[name][1],
            PAPER_TABLE1[name][2],
            PAPER_TABLE1[name][3],
        )
        assert benchmark_num_qubits(name) == expected_qubits
        assert total_strings(blocks) == expected_pauli
        assert logical_cnot_count(blocks) == expected_cnot
        assert logical_one_qubit_count(blocks) == expected_oneq

    def test_doubles_have_eight_strings(self):
        blocks = molecule_blocks("LiH")
        sizes = {len(b) for b in blocks}
        assert sizes == {2, 8}


class TestSynthetic:
    def test_ucc_block_counts(self):
        blocks = synthetic_ucc_blocks(10)
        assert len(blocks) == 100
        assert total_strings(blocks) == 800
        assert all(b.num_qubits == 10 for b in blocks)

    def test_deterministic_by_seed(self):
        a = synthetic_ucc_blocks(10, seed=3)
        b = synthetic_ucc_blocks(10, seed=3)
        assert [tuple(map(str, blk.strings)) for blk in a] == [
            tuple(map(str, blk.strings)) for blk in b
        ]
        c = synthetic_ucc_blocks(10, seed=4)
        assert [tuple(map(str, blk.strings)) for blk in a] != [
            tuple(map(str, blk.strings)) for blk in c
        ]

    def test_benchmark_resolution(self):
        assert benchmark_num_qubits("UCC-15") == 15
        blocks = benchmark_blocks("UCC-10")
        assert len(blocks) == 100


class TestAmplitudes:
    def test_seeded_and_bounded(self):
        values = synthetic_amplitudes(50, seed=1)
        assert values == synthetic_amplitudes(50, seed=1)
        assert all(1e-3 <= abs(v) <= 0.1 for v in values)

    def test_no_degenerate_angles(self):
        assert all(abs(v) >= 1e-3 for v in synthetic_amplitudes(500))
