"""Tests for the composable pass-pipeline layer.

Three regression anchors, all recorded from the pre-pipeline (monolithic
compiler) implementation:

- *gate-sequence hashes* — every registered pipeline must reproduce the
  monolithic compilers gate-for-gate on smoke cells (including cells
  that exercise SWAP insertion and O1 cleanup); parametric compiles are
  pinned the same way by their template structure hashes;
- *frozen v2 content hashes* — the six legacy compiler spec names must
  keep hashing byte-identically, so warm result caches keep hitting;
- *profile reconciliation* — per-pass CNOT/1Q/depth deltas must
  telescope exactly to the end-to-end metrics.
"""

import hashlib
import json
import re

import pytest

import repro
import repro.pipeline.passes as pipeline_passes
from helpers import count_scans
from repro.chem import molecule_blocks
from repro.hardware import resolve_device
from repro.passes import peephole
from repro.passes.reference import cancel_gates_reference
from repro.pipeline import (
    PassManager,
    PipelineError,
    PipelineProfile,
    build_pipeline,
    canonical_pipeline_spec,
    resolve_compiler_spec,
    run_pipeline,
    split_opt_suffix,
)
from repro.pipeline.passes import (
    CancelGatesPass,
    DecomposeSwapsPass,
    InteractionLayoutPass,
    LowerTetrisIRPass,
    TetrisSynthesisPass,
)
from repro.registry import RegistryError
from repro.service import CompileJob, run_job
from repro.service.jobs import job_blocks


def gate_hash(circuit) -> str:
    digest = hashlib.sha256()
    for gate in circuit.gates:
        digest.update(
            repr((gate.name, tuple(gate.qubits),
                  tuple(getattr(gate, "params", ()) or ()))).encode()
        )
    return digest.hexdigest()


def smoke_cell(compiler, bench="chem:LiH", device="grid:4x4", blocks=4, opt=3,
               encoder="JW"):
    job = CompileJob(bench=bench, compiler=compiler, device=device,
                     encoder=encoder, scale="smoke", blocks=blocks,
                     optimization_level=opt)
    cell_blocks = job_blocks(job)
    coupling = resolve_device(job.device, cell_blocks[0].num_qubits)
    return job, cell_blocks, coupling


#: Gate-sequence hashes of the pre-refactor monolithic compilers
#: (recorded before the pipeline refactor; cells chosen to exercise
#: SWAP insertion, routing and the O1 cleanup level).  None of them
#: emits a bridge CNOT, a per-string Tetris block or a similarity-only
#: Tetris schedule: :data:`EMISSION_GATE_HASHES` pins those paths.
PRE_REFACTOR_GATE_HASHES = {
    ("tetris", "chem:LiH", "grid:4x4", 4, 3):
        "d888be1616ef93ca1d4ff14dbb227cda28ea6736b74874f3dc3196cc196e573b",
    ("paulihedral", "chem:LiH", "grid:4x4", 4, 3):
        "242baf1697ff8b796646868837dda9d9b827a5cf073ce61b4c9e43e8812e30c5",
    ("max-cancel", "chem:LiH", "grid:4x4", 4, 3):
        "1de100265d259d45d9e12d4f17d17fb2f6242f9d20e89b24875caba58e088cb6",
    ("tket-like", "chem:LiH", "grid:4x4", 4, 3):
        "08c4a38569b4d7f0e170ad8d812df1596977d65183afa044ec68b36ca07b8efd",
    ("pcoast-like", "chem:LiH", "grid:4x4", 4, 3):
        "4119e40df39cccc7929de69cf24cadcd4fc82623f5388a6d8421482a22f41cfe",
    ("2qan-like", "qaoa:Rand-16", "grid:4x4", 4, 3):
        "cd2784807a4d02e415ace51d740415f1457e4456855cedc68f8166c56d58427a",
    ("tetris-qaoa", "qaoa:Rand-16", "grid:4x4", 4, 3):
        "cd2784807a4d02e415ace51d740415f1457e4456855cedc68f8166c56d58427a",
    ("tetris", "chem:LiH", "linear:auto+2", 8, 3):
        "9af5e835a2e4f1c8690fc008881980c11848d1ffc5903c08d5ce5491486c6158",
    ("tetris", "chem:LiH", "grid:4x4", 8, 1):
        "8365aa043854ffcd728636d800254a11ee86b6b360d028520de104d7c5243d44",
    ("tetris-qaoa", "qaoa:Rand-16", "linear:auto", 0, 3):
        "96c2eb1f4d827155ad8d5f5a50c6a131ae9fcd0b8f2ae3828df1c6fca77f0700",
    ("paulihedral", "chem:LiH", "linear:auto+2", 8, 3):
        "7a543691c859926a95ef4678afd7646df440a7d26192c7472553f41152da83c1",
}

#: Gate-sequence hashes of ``max-cancel:noise-aware`` — the only
#: registered pipeline that runs ``route-noise`` — on calibrated
#: (seed 0) smoke cells, recorded before ``route`` and ``route-noise``
#: were merged into one routing loop.
ROUTE_NOISE_GATE_HASHES = {
    ("max-cancel:noise-aware", "chem:LiH", "heavy-hex:ibm-65", 4, 3):
        "bc1587c0dc5b905d3399a9b28c7ba7f5b3fbe375f1eb7a261dc9fccfb78aa9cb",
    ("max-cancel:noise-aware", "chem:LiH", "heavy-hex:ibm-65", 0, 3):
        "741b0add3d8af6ed4b8d097e3fb21d821c609560a003882db2df07ba2c23ea22",
}

#: Gate-sequence hashes of the paths the cells above miss, recorded
#: before the block schedulers, tree emitters and bridge chains were
#: merged into one each.  Keys are ``(compiler, bench, encoder, device,
#: blocks, opt)``.  Under Bravyi-Kitaev most LiH blocks have non-uniform
#: support, so ``tetris`` emits them string by string and ``max-cancel``
#: drops the root qubits a string lacks from its per-string section;
#: ``k=1`` and ``no-lookahead`` give the same similarity-chain schedule;
#: the ``tetris-qaoa`` cells on heavy-hex emit bridge chains (4, 12 and
#: 26 bridge CNOTs) and the ``2qan-like`` ones SWAP every distant edge,
#: recorded before the two QAOA schedulers were merged into one loop.
EMISSION_GATE_HASHES = {
    ("tetris", "chem:LiH", "BK", "grid:4x4", 8, 3):
        "401faf20d5a2b1c081debc06895b76bcba0e0639b7bf10467053fe4a097a424e",
    ("tetris:no-lookahead", "chem:LiH", "JW", "grid:4x4", 8, 3):
        "2c700e9a2319b0c7439f320425b054238770495764d2413cda36c1cd709635a7",
    ("tetris:k=1", "chem:LiH", "JW", "grid:4x4", 8, 3):
        "2c700e9a2319b0c7439f320425b054238770495764d2413cda36c1cd709635a7",
    ("paulihedral", "chem:LiH", "BK", "grid:4x4", 8, 3):
        "0ca1fcdefa3cc273c30ba953c7bfe0f24f3bbbae7d6457eea673acbd858d6af8",
    ("tket-like", "chem:LiH", "BK", "grid:4x4", 8, 3):
        "e7cda1252471769ff0ef45ef7ee1e0ef23bcff2807341972fcb31b87d7f2570c",
    ("tetris-qaoa", "qaoa:Rand-16", "JW", "heavy-hex:ibm-65", 0, 3):
        "7df46da902b6a946dd917d6b64cd9861077b312535dbf5e3edbf020c6c569fa4",
    ("tetris-qaoa:wrappers", "qaoa:Rand-16", "JW", "heavy-hex:ibm-65", 0, 3):
        "450aae2af1839891e55d193f88093b0af7a6ae0a2a48caba77d1befb32e01297",
    ("tetris-qaoa:wrappers", "qaoa:REG3-20", "JW", "heavy-hex:ibm-65", 0, 0):
        "66b9a2948184c4c89d9dd3ce0a308e163f8887211923ec5b36aa300e82bfff05",
    ("2qan-like", "qaoa:Rand-16", "JW", "heavy-hex:ibm-65", 0, 3):
        "b2da9be3f177ff2c848f004e3d0d437b22eaa64e8372b1703df6c0a645657ca9",
    ("2qan-like:wrappers", "qaoa:Rand-16", "JW", "heavy-hex:ibm-65", 0, 3):
        "9714b5455b7f896aa86345273c302fc8f39bd5b399820110c9b41ce876c6a48b",
    ("2qan-like:wrappers", "qaoa:REG3-20", "JW", "heavy-hex:ibm-65", 0, 0):
        "bc4260054bd7a223aa09e71ae57c41d8c45ad3bc8bfddc1204bab03dd8801cc7",
    ("max-cancel", "chem:LiH", "BK", "grid:4x4", 8, 3):
        "a2f10c6ac57efe4d1af85918057750d402b8b587ab340a7115e3967df5734ec8",
    ("max-cancel", "chem:LiH", "BK", "grid:4x4", 8, 0):
        "b071cebb11794a5c135d0c19baa22a599729da5adcd284e7243954f7c281a78f",
}

#: ``CompiledTemplate.structure_hash()`` of parametric compiles, recorded
#: while the cleanup passes still sent symbolic circuits down their
#: gate-list references.  Keys are ``(compiler, bench, encoder, device,
#: blocks, opt)``: every chemistry pipeline on LiH at O3, both QAOA
#: pipelines with wrappers, one O1 cell, and the BeH2/BK cells on
#: heavy-hex where ``consolidate-1q`` cuts a 1Q run at a symbolic row.
TEMPLATE_STRUCTURE_HASHES = {
    ("max-cancel", "chem:LiH", "JW", "grid:4x4", 10, 3):
        "34bbd5db074b3dc2d98a37670739b4f293897de12b9cc2eef9177931f0d5d3d0",
    ("paulihedral", "chem:LiH", "JW", "grid:4x4", 10, 3):
        "f58ae7e72b24ca5cfecfd408a0710284365d23b49ddb31bb53803565bcc1c644",
    ("pcoast-like", "chem:LiH", "JW", "grid:4x4", 10, 3):
        "f9c2e584267fa170765c273d5e144949ac2eac2fcce94ee0dfe42eae0c6730ae",
    ("tetris", "chem:LiH", "JW", "grid:4x4", 10, 3):
        "280f11f369b985e8851a90e00b3542d3280dae616764959faf78eb30da02fed7",
    ("tket-like", "chem:LiH", "JW", "grid:4x4", 10, 3):
        "6a5ba656a5d6b77a704f63a72d45d48b7314b3e66fbd641892d0e81109731c27",
    ("2qan-like:wrappers", "qaoa:Rand-12", "JW", "grid:4x4", 0, 3):
        "e85e64f49f80d11e39f94f0dcb1996b3187e16403c77157df85c97111f3980f1",
    ("tetris-qaoa:wrappers", "qaoa:Rand-12", "JW", "grid:4x4", 0, 3):
        "ad74c09abaf784b9603bade48e7f385002db4de9575bad054c7ccb4470141819",
    ("tetris", "chem:LiH", "JW", "grid:4x4", 10, 1):
        "1a74f9e2e97227af0cb26514fb2caba32a03e4c6deb84ca02f39e63c49a39e78",
    ("paulihedral", "chem:BeH2", "BK", "heavy-hex:ibm-65", 0, 3):
        "f352f4d2d899a12547bbd1dcd94fcb9e89214ae741f212e4018a175ecd1298aa",
    ("tetris", "chem:BeH2", "BK", "heavy-hex:ibm-65", 0, 3):
        "ce762b74ea760944db1d87b553eafef8f6c28b4cf5536d28fda4c83e2581584e",
    ("tket-like", "chem:BeH2", "BK", "heavy-hex:ibm-65", 0, 3):
        "7a68f72596e5fc2c1a6d61134134483144f9cfd95e59ec8db966cfacb0c57b7b",
}

#: Full-scale Tetris on sparse devices, which no smoke cell above
#: reaches: ``(compiler, bench, encoder, device)`` -> (gate hash, SWAP
#: count, SHA-256 of the block order's repr), recorded while synthesis
#: still placed every trial-placed block a second time.  BeH2/JW on
#: heavy-hex was re-recorded when Tetris block bridging was cut: one
#: step's winning trial there had kept a bridge.
FULL_SCALE_TETRIS_PINS = {
    ("tetris", "chem:LiH", "BK", "heavy-hex:ibm-65"): (
        "5fdddadb1694d4c2f74ad7c5e214ce9f29b7beee98a3692339d4a56e9a8df6ef",
        570,
        "8acb09748b559f5ab9559e518efb33ecb2278c25e6400f6e77bf127a04734d81",
    ),
    ("tetris", "chem:LiH", "BK", "sycamore"): (
        "8ff58eff84307e4cf03fbd44676add1715a458b0e13283a1304f5c8e8a1b287e",
        119,
        "befbf39c3d2aa8269bb4f1a7e74bd79a91b41230c7b614bc9a57b9c452fc8b68",
    ),
    ("tetris", "chem:BeH2", "JW", "heavy-hex:ibm-65"): (
        "f4fd4474cbeeb66a62b6ba18d34a7f31c3b4946d2e3aaabb1a47a1b7a9209e01",
        677,
        "e3c2f45c5746850ba45eb52cebb06ad6d6cb67b8d789ffbf540d5680b7f70825",
    ),
    ("tetris", "chem:BeH2", "JW", "sycamore"): (
        "70c7885f5f9c608b38951f5c26d6071342c8ba6b597484df2818b52fc89f1c25",
        203,
        "441ce3fd7c89f2366aada5924c05e18f8af620b9ac1bffb1e39d765d83818572",
    ),
    ("tetris:k=3", "ucc:UCC-10", "JW", "heavy-hex:ibm-65"): (
        "146e8d3963d281db22c5bc3997ebd0a4624d9df0865fea179df7c7dd10b38960",
        371,
        "116b8f5a8703ab9a90ddf6c44fe98b84ed9bada9baace323697736f6ca08a134",
    ),
}

#: Content hashes (schema v2) of the six legacy compiler names on a
#: fixed smoke cell, recorded pre-refactor.  These are on-disk cache
#: keys: they must never change.
FROZEN_V2_CONTENT_HASHES = {
    "tetris":
        "acd5e5e465e525f4426bbeaddda51851b852874f46b59dca18ae1bf5433eacb8",
    "paulihedral":
        "7544c493c3caff9d75edc4c59edad07907b6ce209e3c58c33b8644f7ce18765a",
    "max-cancel":
        "6c4002e6806776dcbd2cd190945d7ccd640e5130d55e7a3f8a9a7eebc850a77b",
    "tket-like":
        "d139102f8f1428808ca83eb595630beea041ab1a008084ad2225f541ead92a39",
    "pcoast-like":
        "2ea37f13682e175dc8f65304215b4f29b95bd4ce35af5b5e0360d83431897e67",
    "2qan-like":
        "960f27b0626de7abf33ca5d7165de03d33e90b62eb399471b35f193efc2c4b62",
    "tetris-qaoa":
        "478bdd25447ad99770f2831baa3c6698c3b9678a59c6f443fc4b5c4ac20c4dcf",
}


class TestGateForGateRegression:
    @pytest.mark.parametrize(
        "cell", sorted(PRE_REFACTOR_GATE_HASHES), ids=lambda c: "-".join(map(str, c))
    )
    def test_pipeline_matches_pre_refactor_compiler(self, cell):
        compiler, bench, device, blocks, opt = cell
        _job, cell_blocks, coupling = smoke_cell(
            compiler, bench=bench, device=device, blocks=blocks, opt=opt
        )
        run = run_pipeline(compiler, cell_blocks, coupling,
                           optimization_level=opt)
        assert gate_hash(run.result.circuit) == PRE_REFACTOR_GATE_HASHES[cell]

    @pytest.mark.parametrize(
        "cell", sorted(ROUTE_NOISE_GATE_HASHES),
        ids=lambda c: "-".join(map(str, c)),
    )
    def test_route_noise_matches_pre_merge_router(self, cell):
        from repro.hardware.calibration import resolve_calibration

        compiler, bench, device, blocks, opt = cell
        job, cell_blocks, coupling = smoke_cell(
            compiler, bench=bench, device=device, blocks=blocks, opt=opt
        )
        calibration = resolve_calibration(
            device, job.calibration, cell_blocks[0].num_qubits
        )
        run = run_pipeline(compiler, cell_blocks, coupling,
                           optimization_level=opt, calibration=calibration)
        assert "route-noise" in build_pipeline(compiler).pass_names()
        assert gate_hash(run.result.circuit) == ROUTE_NOISE_GATE_HASHES[cell]

    @pytest.mark.parametrize(
        "cell", sorted(EMISSION_GATE_HASHES),
        ids=lambda c: "-".join(map(str, c)),
    )
    def test_emission_paths_match_pre_merge_emitters(self, cell):
        compiler, bench, encoder, device, blocks, opt = cell
        _job, cell_blocks, coupling = smoke_cell(
            compiler, bench=bench, device=device, blocks=blocks, opt=opt,
            encoder=encoder,
        )
        run = run_pipeline(compiler, cell_blocks, coupling,
                           optimization_level=opt)
        assert gate_hash(run.result.circuit) == EMISSION_GATE_HASHES[cell]

    @pytest.mark.parametrize(
        "cell", sorted(TEMPLATE_STRUCTURE_HASHES),
        ids=lambda c: "-".join(map(str, c)),
    )
    def test_template_structure_matches_gate_list_tail(self, cell):
        compiler, bench, encoder, device, blocks, opt = cell
        job = CompileJob(bench=bench, compiler=compiler, device=device,
                         encoder=encoder, scale="smoke", blocks=blocks,
                         optimization_level=opt, parametric=True)
        template = run_job(job).template
        assert template.structure_hash() == TEMPLATE_STRUCTURE_HASHES[cell]

    @pytest.mark.parametrize(
        "cell", sorted(FULL_SCALE_TETRIS_PINS),
        ids=lambda c: "-".join(map(str, c)),
    )
    def test_full_scale_tetris_on_sparse_devices(self, cell):
        compiler, bench, encoder, device = cell
        job = CompileJob(bench=bench, compiler=compiler, device=device,
                         encoder=encoder, scale="full")
        cell_blocks = job_blocks(job)
        coupling = resolve_device(job.device, cell_blocks[0].num_qubits)
        run = run_pipeline(compiler, cell_blocks, coupling)
        order = repr(run.result.extra["block_order"]).encode()
        assert (
            gate_hash(run.result.circuit),
            run.result.num_swaps,
            hashlib.sha256(order).hexdigest(),
        ) == FULL_SCALE_TETRIS_PINS[cell]

    def test_service_path_matches_pre_refactor_compiler(self):
        cell = ("tetris", "chem:LiH", "grid:4x4", 4, 3)
        job, _blocks, _coupling = smoke_cell("tetris")
        result = run_job(job)
        run = run_pipeline("tetris", _blocks, _coupling)
        assert result.metrics.cnot_gates == run.metrics().cnot_gates
        assert gate_hash(run.result.circuit) == PRE_REFACTOR_GATE_HASHES[cell]


def record_cancels(monkeypatch):
    """Record ``(input, output, scans)`` for every ``cancel`` and
    ``cancel-logical`` call a pipeline makes."""
    calls = []
    scans = count_scans(monkeypatch)

    def recording(circuit):
        scans.clear()
        out = peephole.cancel_gates(circuit)
        calls.append((circuit, out, len(scans)))
        return out

    monkeypatch.setattr(pipeline_passes, "cancel_gates", recording)
    return calls


class TestCancelOneScan:
    """Compiled circuits reach the cancellation fixpoint in one scan:
    no row a scan exposes fires on them."""

    @pytest.mark.parametrize(
        "cell",
        [cell for cell in sorted(PRE_REFACTOR_GATE_HASHES)
         if cell[1:] == ("chem:LiH", "grid:4x4", 4, 3)],
        ids=lambda c: c[0],
    )
    def test_pinned_chemistry_cells(self, cell, monkeypatch):
        calls = record_cancels(monkeypatch)
        compiler, bench, device, blocks, opt = cell
        _job, cell_blocks, coupling = smoke_cell(
            compiler, bench=bench, device=device, blocks=blocks, opt=opt
        )
        run = run_pipeline(compiler, cell_blocks, coupling,
                           optimization_level=opt)
        assert gate_hash(run.result.circuit) == PRE_REFACTOR_GATE_HASHES[cell]
        assert calls
        assert [scans for _, _, scans in calls] == [1] * len(calls)

    @pytest.mark.parametrize(
        "compiler", ["tetris", "max-cancel", "tket-like", "pcoast-like"]
    )
    def test_lih_on_heavy_hex(self, compiler, monkeypatch):
        calls = record_cancels(monkeypatch)
        _job, cell_blocks, coupling = smoke_cell(
            compiler, device="heavy-hex:ibm-65", blocks=0
        )
        run_pipeline(compiler, cell_blocks, coupling)
        assert calls
        for circuit, out, scans in calls:
            assert scans == 1
            assert out.gates == cancel_gates_reference(circuit).gates


class TestFrozenContentHashes:
    def test_v2_hashes_for_all_legacy_pipeline_names(self):
        for compiler, expected in FROZEN_V2_CONTENT_HASHES.items():
            bench = "qaoa:Rand-16" if "qa" in compiler else "chem:LiH"
            job, _, _ = smoke_cell(compiler, bench=bench)
            assert job.content_hash() == expected, compiler

    def test_variant_spec_hashes_like_explicit_params(self):
        left = CompileJob(bench="LiH", compiler="tetris:no-gray")
        right = CompileJob(bench="LiH", compiler="tetris",
                           params={"sort_strings": False})
        assert left.content_hash() == right.content_hash()
        assert left.content_hash() != CompileJob(bench="LiH").content_hash()

    def test_param_alias_spec_hashes_like_canonical_param(self):
        left = CompileJob(bench="LiH", compiler="tetris:w=0.1")
        right = CompileJob(bench="LiH", compiler="tetris",
                           params={"swap_weight": 0.1})
        assert left.content_hash() == right.content_hash()


class TestSpecGrammar:
    def test_split_opt_suffix(self):
        assert split_opt_suffix("tetris") == ("tetris", None)
        assert split_opt_suffix("tetris+o1") == ("tetris", 1)
        assert split_opt_suffix("tetris:no-gray+o0") == ("tetris:no-gray", 0)
        for bad in ("tetris+", "tetris+o2x", "tetris+x3", "tetris+o5"):
            with pytest.raises(RegistryError):
                split_opt_suffix(bad)

    def test_resolve_compiler_spec(self):
        assert resolve_compiler_spec("tetris") == ("tetris", {})
        assert resolve_compiler_spec("ph") == ("paulihedral", {})
        assert resolve_compiler_spec("tetris:no-gray") == (
            "tetris", {"sort_strings": False}
        )
        assert resolve_compiler_spec("tetris:w=0.1,k=5") == (
            "tetris", {"swap_weight": 0.1, "lookahead": 5}
        )
        name, params = resolve_compiler_spec("layout,synth-chain,route")
        assert name == "layout,synth-chain,route" and params == {}
        for bad in ("nope", "tetris:nope", "tetris+o1", "", "layout,nope"):
            with pytest.raises(RegistryError):
                resolve_compiler_spec(bad)

    def test_unknown_parameter_keys_fail_eagerly(self):
        # a typo'd assignment must fail at spec-resolution time, not at
        # worker run time (and never mint a phantom cache cell)
        with pytest.raises(RegistryError, match="unknown parameter"):
            resolve_compiler_spec("tetris:lookahaed=10")
        with pytest.raises(ValueError, match="unknown parameter"):
            CompileJob(bench="LiH", compiler="tetris:bogus=1")
        # aliases and real parameter names both pass
        resolve_compiler_spec("tetris:k=5,swap_weight=2")
        resolve_compiler_spec("tket-like:style=qiskit-o3")

    def test_removed_bridging_knobs_are_refused(self):
        """Tetris has no block bridging: ``no-bridge`` and
        ``enable_bridging`` are refused like any unknown variant or
        parameter, naming what is accepted.  A spec string is refused
        at job construction; explicit ``params`` when a client submits
        the job, and when its pipeline is built."""
        with pytest.raises(RegistryError, match=re.escape(
            "named variants: ['no-gray', 'no-lookahead', 'noise-aware']"
        )):
            CompileJob(bench="LiH", compiler="tetris:no-bridge")
        with pytest.raises(RegistryError, match="accepted: .*'w'"):
            CompileJob(bench="LiH", compiler="tetris:enable_bridging=false")
        accepted = re.escape(
            "unknown parameter 'enable_bridging' for pipeline 'tetris'; "
            "accepted: ['lookahead', 'noise_aware', 'select', "
            "'sort_strings', 'swap_weight']"
        )
        spec = {"bench": "LiH", "scale": "smoke", "blocks": 2,
                "params": {"enable_bridging": False}}
        with pytest.raises(RegistryError, match=accepted):
            CompileJob.from_request(spec)
        with pytest.raises(RegistryError, match=accepted):
            run_job(CompileJob(**spec))
        with pytest.raises(RegistryError, match="take no parameters"):
            CompileJob.from_request({
                "bench": "LiH", "compiler": "layout,synth-chain,route",
                "params": {"lookahead": 1},
            })
        CompileJob.from_request(
            {"bench": "LiH", "compiler": "ph", "params": {"sort_strings": False}}
        )

    def test_canonical_pipeline_spec(self):
        assert canonical_pipeline_spec("ph") == "paulihedral"
        assert canonical_pipeline_spec("tetris:k=5,no-gray") == (
            "tetris:lookahead=5,sort_strings=False"
        )

    def test_build_pipeline_levels(self):
        assert build_pipeline("tetris").pass_names()[-3:] == [
            "decompose-swaps", "cancel", "consolidate-1q"
        ]
        assert build_pipeline("tetris+o1").pass_names()[-2:] == [
            "decompose-swaps", "cancel"
        ]
        assert build_pipeline("tetris+o0").pass_names()[-1:] == [
            "decompose-swaps"
        ]
        # explicit suffix wins over the argument
        assert build_pipeline("tetris+o1", optimization_level=3).name.endswith("+o1")

    def test_custom_pass_list_rejects_params(self):
        with pytest.raises(RegistryError, match="no parameters"):
            build_pipeline("layout,synth-chain,route", params={"x": 1})


class TestComposition:
    def test_custom_pass_list_reproduces_max_cancel(self):
        _job, blocks, coupling = smoke_cell("max-cancel")
        custom = run_pipeline(
            "order-similarity,synth-single-leaf,layout,route",
            blocks, coupling, optimization_level=1,
        )
        named = run_pipeline("max-cancel+o1", blocks, coupling)
        assert gate_hash(custom.result.circuit) == gate_hash(named.result.circuit)

    def test_hand_built_manager(self):
        _job, blocks, coupling = smoke_cell("tetris")
        manager = PassManager(
            [LowerTetrisIRPass(), InteractionLayoutPass(),
             TetrisSynthesisPass(lookahead=0), DecomposeSwapsPass(),
             CancelGatesPass()],
            name="hand-built",
        )
        run = manager.run(blocks, coupling)
        assert run.result.compiler_name == "hand-built"
        assert run.metrics().cnot_gates > 0

    def test_missing_property_is_a_composition_error(self):
        _job, blocks, coupling = smoke_cell("tetris")
        manager = PassManager([TetrisSynthesisPass()], name="broken")
        with pytest.raises(PipelineError, match="requires property 'ir_blocks'"):
            manager.run(blocks, coupling)

    def test_no_circuit_is_a_composition_error(self):
        _job, blocks, coupling = smoke_cell("tetris")
        manager = PassManager([InteractionLayoutPass()], name="no-synth")
        with pytest.raises(PipelineError, match="produced no circuit"):
            manager.run(blocks, coupling)

    def test_empty_manager_rejected(self):
        _job, blocks, coupling = smoke_cell("tetris")
        with pytest.raises(PipelineError, match="no passes"):
            PassManager([], name="empty").run(blocks, coupling)


class TestProfileReconciliation:
    @pytest.mark.parametrize("spec", [
        "tetris", "paulihedral", "max-cancel", "tket-like", "pcoast-like",
        # the Tetris ablations: each switches off one ingredient
        "tetris:no-lookahead", "tetris:no-gray",
        "tetris:w=0.1", "tetris:w=100",
    ])
    def test_deltas_telescope_to_end_to_end_metrics(self, spec):
        _job, blocks, coupling = smoke_cell(spec, blocks=8)
        run = run_pipeline(spec, blocks, coupling, profile=True)
        metrics = run.metrics()
        assert run.profile.reconciles(
            metrics.cnot_gates, metrics.one_qubit_gates, metrics.depth
        )
        # analysis passes never change the circuit
        for pass_profile in run.profile.passes:
            if pass_profile.kind == "analysis":
                assert pass_profile.cnot_delta == 0
                assert pass_profile.depth_delta == 0

    def test_stage_split_matches_run_accounting(self):
        _job, blocks, coupling = smoke_cell("tetris")
        run = run_pipeline("tetris", blocks, coupling, profile=True)
        for stage, seconds in (("synthesis", run.compile_seconds),
                               ("optimize", run.optimize_seconds)):
            assert sum(
                p.seconds for p in run.profile.passes if p.stage == stage
            ) == pytest.approx(seconds)

    def test_unprofiled_run_skips_snapshots(self):
        _job, blocks, coupling = smoke_cell("tetris")
        run = run_pipeline("tetris", blocks, coupling, profile=False)
        assert run.profile is None
        assert run.metrics().cnot_gates > 0

    def test_profile_round_trips_through_json(self):
        _job, blocks, coupling = smoke_cell("tetris")
        run = run_pipeline("tetris", blocks, coupling, profile=True)
        payload = json.loads(json.dumps(run.profile.to_dict()))
        restored = PipelineProfile.from_dict(payload)
        assert restored.to_dict() == run.profile.to_dict()
        assert restored.totals() == run.profile.totals()


class TestServiceProfiles:
    def test_run_job_attaches_profile(self):
        job, _, _ = smoke_cell("tetris")
        result = run_job(job, profile=True)
        assert result.profile is not None
        metrics = result.metrics
        assert result.profile.reconciles(
            metrics.cnot_gates, metrics.one_qubit_gates, metrics.depth
        )

    def test_unprofiled_serialization_has_no_profile_key(self):
        job, _, _ = smoke_cell("tetris")
        result = run_job(job)
        assert "profile" not in result.to_dict()
        restored = type(result).from_json(result.to_json())
        assert restored.profile is None

    def test_profiled_result_round_trips(self):
        job, _, _ = smoke_cell("tetris")
        result = run_job(job, profile=True)
        restored = type(result).from_json(result.to_json())
        assert restored.profile is not None
        assert restored.profile.totals() == result.profile.totals()

    def test_row_profile_columns(self):
        job, _, _ = smoke_cell("tetris")
        result = run_job(job, profile=True)
        row = result.row(include_profile=True)
        names = row["pass_names"].split(";")
        assert names[-1] == "consolidate-1q"
        deltas = [int(d) for d in row["pass_cnot_delta"].split(";")]
        assert sum(deltas) == result.metrics.cnot_gates
        # default rows stay unchanged (header compatibility)
        assert "pass_names" not in result.row()
        # unprofiled results emit empty cells under the same columns
        bare = run_job(job).row(include_profile=True)
        assert bare["pass_names"] == ""

    def test_cache_upgrades_unprofiled_entries(self, tmp_path):
        from repro.service import ResultCache, run_batch

        job, _, _ = smoke_cell("tetris")
        cache = ResultCache(str(tmp_path))
        first = run_batch([job], cache=cache)[0]
        assert first.profile is None and not first.cached
        served = run_batch([job], cache=cache)[0]
        assert served.cached and served.profile is None
        upgraded = run_batch([job], cache=cache, profile=True)[0]
        assert not upgraded.cached and upgraded.profile is not None
        warm = run_batch([job], cache=cache, profile=True)[0]
        assert warm.cached and warm.profile is not None
        # profiled entries keep serving unprofiled requests
        plain = run_batch([job], cache=cache)[0]
        assert plain.cached

    def test_facade_profile_passes(self):
        result = repro.compile(
            bench="chem:LiH", device="grid:4x4", scale="smoke", blocks=4,
            use_cache=False, profile_passes=True,
        )
        assert result.profile is not None
        assert result.profile.pipeline.startswith("tetris")

    def test_job_rejects_opt_suffix_in_compiler_spec(self):
        with pytest.raises(ValueError, match="optimization_level"):
            CompileJob(bench="LiH", compiler="tetris+o1")

    def test_job_accepts_variant_and_pass_list_specs(self):
        CompileJob(bench="LiH", compiler="tetris:no-gray")
        CompileJob(bench="LiH", compiler="order-similarity,synth-single-leaf,layout,route")
        with pytest.raises(ValueError):
            CompileJob(bench="LiH", compiler="tetris:bogus-variant")


class TestCliPipelineSpecs:
    def test_single_mode_accepts_opt_suffix(self, capsys):
        from repro import cli

        assert cli.main(["--bench", "chem:LiH", "--blocks", "4",
                         "--device", "grid:4x4",
                         "--compiler", "tetris+o1"]) == 0
        out = capsys.readouterr().out
        assert "tetris+o1" in out

    def test_bad_pipeline_params_error_cleanly(self):
        from repro import cli

        # parser.error (SystemExit), not a raw traceback
        with pytest.raises(SystemExit):
            cli.main(["--bench", "chem:LiH", "--blocks", "4",
                      "--device", "grid:4x4",
                      "--compiler", "tetris:bogus=1"])
        with pytest.raises(SystemExit):
            cli.main(["--bench", "chem:LiH", "--blocks", "4",
                      "--device", "grid:4x4", "--compiler", "layout"])



class TestAblations:
    def test_gray_order_never_loses(self):
        """Gray-code string order should not lose to encoder order."""
        blocks = molecule_blocks("LiH")[:48]
        coupling = resolve_device("heavy-hex:ibm-65")
        gray = run_pipeline("tetris", blocks, coupling).metrics()
        unsorted = run_pipeline("tetris:no-gray", blocks, coupling).metrics()
        assert gray.cnot_gates <= unsorted.cnot_gates * 1.05
