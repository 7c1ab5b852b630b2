"""The batched excitation encoder against the general fermion algebra.

``encode_excitations`` multiplies batches of excitations of one arity
out as row-aligned bitplane products.  The oracle is the unbatched path:
``excitation.operator(1.0).encode(encoder, n)`` through
``FermionOperator``/``QubitOperator``, which ``chem.hamiltonian`` still
uses.  Strings must match in order and weights bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.chem import (
    MOLECULES,
    JordanWignerEncoder,
    benchmark_blocks,
    encoder_by_name,
    excitation_to_block,
    uccsd_excitations,
)
from repro.chem import molecules as chem_molecules
from repro.chem import uccsd as chem_uccsd
from repro.chem.uccsd import Excitation, encode_excitations
from repro.workloads import BLOCK_CAPS, workload_blocks

ENCODERS = ("JW", "BK")


def blocks_digest(blocks) -> str:
    """sha256 over every block's label, angle, strings and weights."""
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(
            f"{block.label}|{float(block.angle).hex()}|{block.num_qubits}\n".encode()
        )
        for string, weight in zip(block.strings, block.weights):
            digest.update(f"{string.ops}:{weight.hex()}\n".encode())
    return digest.hexdigest()


def oracle_terms(excitation, encoder, num_qubits):
    generator = excitation.operator(1.0).encode(encoder, num_qubits)
    return [
        (string.ops, (-2.0 * coefficient.imag).hex())
        for string, coefficient in generator.terms()
    ]


def assert_matches_oracle(excitations, encoder, num_qubits):
    amplitudes = [0.1] * len(excitations)
    blocks = encode_excitations(excitations, encoder, num_qubits, amplitudes)
    assert len(blocks) == len(excitations)
    for excitation, block in zip(excitations, blocks):
        got = [
            (string.ops, weight.hex())
            for string, weight in zip(block.strings, block.weights)
        ]
        assert got == oracle_terms(excitation, encoder, num_qubits), excitation
        assert block.label == excitation.label()


def sampled_ucc_excitations(num_qubits, count, seed=7):
    """The excitations the UCC-n benchmark (seed 7) draws."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        orbitals = rng.choice(num_qubits, size=4, replace=False)
        out.append(
            Excitation(
                tuple(sorted(int(o) for o in orbitals[:2])),
                tuple(sorted(int(o) for o in orbitals[2:])),
            )
        )
    return out


class TestDifferential:
    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("name", ["LiH", "BeH2", "CH4", "MgH2"])
    def test_every_excitation(self, name, encoder):
        mol = MOLECULES[name]
        excitations = uccsd_excitations(mol.num_spatial, mol.num_occupied)
        assert_matches_oracle(excitations, encoder_by_name(encoder), mol.num_qubits)

    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("name", ["LiCl", "CO2"])
    def test_seeded_sample(self, name, encoder):
        mol = MOLECULES[name]
        excitations = uccsd_excitations(mol.num_spatial, mol.num_occupied)
        picks = np.random.default_rng(2024).choice(
            len(excitations), size=200, replace=False
        )
        sample = [excitations[int(i)] for i in sorted(picks)]
        assert any(e.is_single for e in sample)
        assert_matches_oracle(sample, encoder_by_name(encoder), mol.num_qubits)

    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("size", [10, 20])
    def test_synthetic_ucc(self, size, encoder):
        excitations = sampled_ucc_excitations(size, size * size)
        assert_matches_oracle(excitations, encoder_by_name(encoder), size)
        blocks = benchmark_blocks(f"UCC-{size}", encoder_by_name(encoder))
        assert [b.label for b in blocks] == [e.label() for e in excitations]

    def test_excitation_to_block_is_one_row_of_the_batch(self):
        excitations = uccsd_excitations(6, 2)
        batch = encode_excitations(
            excitations, JordanWignerEncoder(), 12, [0.25] * len(excitations)
        )
        for excitation, block in zip(excitations, batch):
            single = excitation_to_block(excitation, JordanWignerEncoder(), 12, 0.25)
            assert blocks_digest([single]) == blocks_digest([block])

    def test_block_strings_are_views_of_one_table(self):
        blocks = encode_excitations(
            uccsd_excitations(6, 2)[-4:], JordanWignerEncoder(), 12, [0.1] * 4
        )
        bases = {id(s.xz_words()[0].base) for b in blocks for s in b.strings}
        assert len(bases) == 1

    def test_batch_boundaries_change_nothing(self, monkeypatch):
        excitations = uccsd_excitations(6, 2)
        amplitudes = [0.1] * len(excitations)
        assert len(excitations) < chem_uccsd._BATCH
        whole = encode_excitations(excitations, JordanWignerEncoder(), 12, amplitudes)
        monkeypatch.setattr(chem_uccsd, "_BATCH", 7)
        batched = encode_excitations(
            excitations, JordanWignerEncoder(), 12, amplitudes
        )
        assert blocks_digest(batched) == blocks_digest(whole)

    def test_empty_and_out_of_range(self):
        assert encode_excitations([], JordanWignerEncoder(), 4, []) == []
        with pytest.raises(ValueError, match="out of range"):
            encode_excitations(
                [Excitation((0,), (4,))], JordanWignerEncoder(), 4, [0.1]
            )


class _IgnoresDagger:
    """A broken encoder: ``a†_p`` encodes as ``a_p``."""

    @staticmethod
    def ladder(orbital, dagger, num_qubits):
        return JordanWignerEncoder.ladder(orbital, False, num_qubits)


def test_non_anti_hermitian_generator_raises():
    excitation = Excitation((0,), (2,))
    generator = excitation.operator(1.0).encode(_IgnoresDagger(), 4)
    assert any(abs(c.real) > 1e-9 for _, c in generator.terms())
    with pytest.raises(ValueError, match="anti-Hermitian"):
        excitation_to_block(excitation, _IgnoresDagger(), 4, 0.1)


class TestScaleCap:
    @pytest.mark.parametrize("scale", ["smoke", "small"])
    @pytest.mark.parametrize(
        "spec, name",
        [("chem:CO2", "CO2"), ("chem:BeH2", "BeH2"), ("ucc:UCC-25", "UCC-25")],
    )
    def test_capped_equals_full_truncated(self, spec, name, scale):
        for encoder in ENCODERS:
            capped = workload_blocks(spec, encoder, scale)
            full = benchmark_blocks(name, encoder_by_name(encoder))
            cap = BLOCK_CAPS[scale]
            assert len(capped) == min(cap, len(full))
            assert blocks_digest(capped) == blocks_digest(full[:cap])

    @pytest.mark.parametrize(
        "spec, full_count",
        [("chem:CO2", 2684), ("chem:LiCl", 2220), ("ucc:UCC-35", 1225)],
    )
    def test_smoke_build_encodes_only_the_cap(self, monkeypatch, spec, full_count):
        encoded = []
        kernel = chem_uccsd.encode_excitations

        def counting(excitations, *args):
            encoded.append(len(excitations))
            return kernel(excitations, *args)

        monkeypatch.setattr(chem_uccsd, "encode_excitations", counting)
        monkeypatch.setattr(chem_molecules, "encode_excitations", counting)
        assert len(workload_blocks(spec, "JW", "smoke")) == BLOCK_CAPS["smoke"]
        assert encoded == [BLOCK_CAPS["smoke"]]
        encoded.clear()
        assert len(workload_blocks(spec, "JW", "full")) == full_count
        assert encoded == [full_count]


#: ``blocks_digest(workload_blocks(spec, encoder, scale))`` as built by
#: the unbatched per-excitation encoder before the batched kernel.
PINNED_DIGESTS = {
    ("chem:LiH", "JW", "full"):
        "9f6399c323362d313501a1100899ca1768bc37bfd219ec58a6c08136f4aed730",
    ("chem:LiH", "BK", "full"):
        "56c20665e356820a0e1d533e7deedd6e70e93ce8eaee12336f2fff4021a58da3",
    ("chem:BeH2", "BK", "small"):
        "531b7777a686c7eb068b0f183d89ff4fdf7f7c48e3849e1379632509357e97fe",
    ("chem:CH4", "JW", "full"):
        "87a0cb96d02c5e113fc37b598b51b65e63b1dddcb92d0d5be4441dc982f12598",
    ("chem:MgH2", "BK", "full"):
        "e250c9df1a9e59855eba8c2c146774c712759286d965b858adb0ba4fda9a1482",
    ("chem:LiCl", "JW", "small"):
        "9c187d2dc24274b71c254fcc945bac4e286bdef473281111ee3813f73d37ae70",
    ("chem:CO2", "BK", "smoke"):
        "3cf3352bbacbcb2606a9f246eb450b81a163f038fd2d5fc111ed6e08e82e1707",
    ("ucc:UCC-20", "BK", "full"):
        "f0845fc06214b1bd2f05b587824193df3dacda12650dfe44b7b2c56b75da3d2f",
    ("ucc:UCC-35", "JW", "smoke"):
        "50fc1d0c142909fa9b166ca595f989c3564ea7b4eaea6fb45ef8114a69b47c20",
}


@pytest.mark.parametrize("cell", sorted(PINNED_DIGESTS))
def test_pinned_workload_digests(cell):
    assert blocks_digest(workload_blocks(*cell)) == PINNED_DIGESTS[cell]
