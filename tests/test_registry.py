"""Tests for the unified registry layer: generic registries, parametric
device specs, namespaced workloads, content-hash compatibility, and the
public ``repro.compile`` / ``repro.sweep`` facade."""

import pytest

import repro
from repro import cli
from repro.hardware import (
    DEVICE_FAMILIES,
    canonical_device_spec,
    device_names,
    resolve_device,
)
from repro.pipeline import PIPELINES
from repro.registry import Registry, RegistryError, parse_spec
from repro.service import CompileJob
from repro.workloads import (
    WORKLOADS,
    benchmark_names,
    resolve_workload,
    uses_encoder,
    workload_blocks,
)


class TestRegistry:
    def test_register_get_and_aliases(self):
        reg = Registry("widget")

        def alpha():
            return 1

        reg.add("alpha", alpha, aliases=("a",), description="first",
                grammar="alpha:<n>")
        assert reg.get("alpha") is alpha
        assert reg.get("a") is alpha
        assert reg.get("ALPHA") is alpha  # case-insensitive
        assert reg.canonical("a") == "alpha"
        assert "a" in reg and "alpha" in reg and "beta" not in reg
        assert reg.names() == ["alpha"]
        assert reg.all_labels() == ["a", "alpha"]
        assert reg.entry("a").grammar == "alpha:<n>"
        assert len(reg) == 1

    def test_unknown_name_raises_with_available(self):
        reg = Registry("widget")
        reg.add("alpha", 1)
        with pytest.raises(RegistryError, match="unknown widget 'beta'"):
            reg.get("beta")
        with pytest.raises(ValueError):  # RegistryError is a ValueError
            reg.canonical("beta")

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.add("alpha", 1, aliases=("a",))
        with pytest.raises(RegistryError, match="duplicate"):
            reg.add("alpha", 2)
        with pytest.raises(RegistryError, match="duplicate"):
            reg.add("beta", 3, aliases=("A",))  # alias collides case-insensitively

    def test_describe_rows(self):
        reg = Registry("widget")
        reg.add("alpha", 1, aliases=("a",), description="first")
        (row,) = reg.describe()
        assert row["name"] == "alpha"
        assert row["aliases"] == "a"
        assert row["description"] == "first"

    def test_parse_spec(self):
        assert parse_spec("grid:8x8") == ("grid", "8x8")
        assert parse_spec("ithaca") == ("ithaca", "")
        assert parse_spec(" linear : auto+2 ") == ("linear", "auto+2")
        for bad in ("", "  ", ":8x8", "grid:", None):
            with pytest.raises(RegistryError):
                parse_spec(bad)


class TestDeviceSpecs:
    def test_parametric_families(self):
        assert resolve_device("grid:4x4").num_qubits == 16
        assert resolve_device("ring:12").num_qubits == 12
        assert resolve_device("linear:72").num_qubits == 72
        assert resolve_device("heavy-hex:3").name == "heavy-hex-3x11"
        assert resolve_device("heavy-hex:3x9").name == "heavy-hex-3x9"
        assert resolve_device("sycamore:4x4").num_qubits == 16
        assert resolve_device("full:6").num_qubits == 6

    def test_legacy_aliases_resolve_to_paper_devices(self):
        assert resolve_device("ithaca").name == "ibm-ithaca-65"
        assert resolve_device("heavy-hex:ibm-65").name == "ibm-ithaca-65"
        assert resolve_device("sycamore").name == "sycamore-8x8"
        assert resolve_device("linear", num_logical=10).num_qubits == 12

    def test_auto_sizing(self):
        assert resolve_device("linear:auto", 10).num_qubits == 10
        assert resolve_device("linear:auto+2", 10).num_qubits == 12
        assert resolve_device("ring:auto", 8).num_qubits == 8
        assert resolve_device("full", 5).num_qubits == 5
        with pytest.raises(RegistryError, match="auto-sized"):
            resolve_device("linear:auto")  # no workload to size against

    def test_fixed_size_must_fit_workload(self):
        with pytest.raises(RegistryError, match="needs 12"):
            resolve_device("linear:8", num_logical=12)
        # Parametric families get the same fit check, not a deep routing error.
        with pytest.raises(RegistryError, match="needs 12"):
            resolve_device("grid:2x2", num_logical=12)
        with pytest.raises(RegistryError, match="needs 70"):
            resolve_device("ithaca", num_logical=70)

    def test_malformed_and_unknown_specs(self):
        with pytest.raises(RegistryError, match="unknown device family"):
            resolve_device("torus:3")
        with pytest.raises(RegistryError, match="unknown device family"):
            canonical_device_spec("torus")
        with pytest.raises(RegistryError):
            resolve_device("grid")  # dims required
        with pytest.raises(RegistryError):
            resolve_device("grid:banana")
        with pytest.raises(RegistryError):
            resolve_device("grid:8")  # missing x<cols>
        with pytest.raises(RegistryError):
            canonical_device_spec("linear:auto+x")
        with pytest.raises(RegistryError):
            canonical_device_spec("linear:-3")

    def test_auto_plus_zero_normalizes_to_auto(self):
        assert resolve_device("linear:auto+0", 10).num_qubits == 10
        assert canonical_device_spec("linear:auto+0") == "linear:auto"

    def test_canonicalization_collapses_aliases(self):
        assert canonical_device_spec("ithaca") == "ithaca"
        assert canonical_device_spec("heavy-hex:ibm-65") == "ithaca"
        assert canonical_device_spec("heavy_hex:ibm-65") == "ithaca"
        assert canonical_device_spec("sycamore:8x8") == "sycamore"
        assert canonical_device_spec("SYCAMORE") == "sycamore"
        assert canonical_device_spec("linear:auto+2") == "linear"
        assert canonical_device_spec("full:auto") == "full"
        assert canonical_device_spec("grid:8X8") == "grid:8x8"
        assert canonical_device_spec("heavy-hex:5") == "heavy-hex:5x11"

    def test_registry_is_introspectable(self):
        assert {"grid", "heavy-hex", "linear", "ring", "sycamore", "full"} <= set(
            DEVICE_FAMILIES.names()
        )
        assert "ithaca" in device_names()
        assert all(entry.grammar for entry in DEVICE_FAMILIES.entries())


class TestWorkloadSpecs:
    def test_namespaced_resolution(self):
        assert resolve_workload("chem:LiH") == ("chem", "LiH")
        assert resolve_workload("ucc:UCC-10") == ("ucc", "UCC-10")
        assert resolve_workload("ucc:10") == ("ucc", "UCC-10")
        assert resolve_workload("qaoa:Rand-16") == ("qaoa", "Rand-16")
        assert resolve_workload("qaoa:rand-16") == ("qaoa", "Rand-16")
        assert resolve_workload("maxcut:REG3-20") == ("qaoa", "REG3-20")

    def test_bare_fallback(self):
        assert resolve_workload("LiH") == ("chem", "LiH")
        assert resolve_workload("UCC-10") == ("ucc", "UCC-10")
        assert resolve_workload("Rand-16") == ("qaoa", "Rand-16")
        assert resolve_workload("REG3-20") == ("qaoa", "REG3-20")

    def test_unknown_provider_and_instance(self):
        with pytest.raises(RegistryError, match="unknown workload provider"):
            resolve_workload("bio:LiH")
        with pytest.raises(RegistryError, match="unknown chem workload"):
            resolve_workload("chem:UCC-10")  # UCC is not a molecule namespace
        with pytest.raises(RegistryError, match="unknown workload"):
            resolve_workload("NoSuchMolecule")

    def test_uses_encoder(self):
        assert uses_encoder("chem:LiH")
        assert uses_encoder("UCC-10")
        assert not uses_encoder("qaoa:Rand-16")
        assert not uses_encoder("Rand-16")
        assert uses_encoder("NoSuchMolecule")  # unknown stays lazy

    def test_benchmark_names_covers_all_providers_without_collisions(self):
        names = benchmark_names()
        assert "LiH" in names and "UCC-10" in names and "Rand-16" in names
        assert len(names) == len(set(names))

    def test_blocks_match_between_spellings(self):
        bare = workload_blocks("LiH", "JW", "smoke")
        spec = workload_blocks("chem:LiH", "JW", "smoke")
        assert [b.strings for b in bare] == [b.strings for b in spec]
        qaoa = workload_blocks("qaoa:Rand-16", "JW", "smoke")
        assert qaoa and qaoa[0].num_qubits == 16

    def test_registry_is_introspectable(self):
        assert WORKLOADS.names() == ["chem", "qaoa", "ucc"]
        assert all(entry.grammar for entry in WORKLOADS.entries())


#: Content hashes recorded from the pre-registry implementation
#: (SPEC_VERSION 1).  These must never change: they are the on-disk
#: cache keys of every result computed before the redesign.
V1_HASHES = {
    (("bench", "LiH"),):
        "3600e9a58accdb929b5227cb42dc064bc6e7abadae412efdc15a93496295ace5",
    (("bench", "LiH"), ("device", "linear"), ("scale", "smoke"), ("blocks", 3)):
        "ff1d59ed8ab36fc2bb87fde5b91734300d296c0ab90c3df498363330f627befa",
    (("bench", "UCC-10"), ("compiler", "paulihedral"), ("device", "sycamore"),
     ("encoder", "BK")):
        "2b25f2b35271cd51ec41c0fb7e449dfa31991bce5acf4a4707b5c87057007cf1",
    (("bench", "Rand-16"), ("compiler", "tetris-qaoa"), ("device", "full"),
     ("scale", "full")):
        "d696dbd850bdf7fac80036ebb316e05857a4552dde3674bbe38a2a97220fc18a",
    (("bench", "CO2"), ("compiler", "max-cancel"), ("device", "ithaca"),
     ("optimization_level", 1), ("params", (("x", 2),))):
        "a89d613eea99007073706ac6af996f62255225059afe03f6c339136b7ab3a7ea",
}


class TestContentHashCompatibility:
    def test_v1_hashes_are_frozen(self):
        for spec, expected in V1_HASHES.items():
            job = CompileJob(**dict(spec))
            assert job.content_hash() == expected, job

    def test_new_spellings_hash_like_their_v1_aliases(self):
        base = CompileJob(bench="LiH").content_hash()
        assert CompileJob(bench="chem:LiH").content_hash() == base
        assert CompileJob(bench="LiH", device="heavy-hex:ibm-65").content_hash() == base
        assert CompileJob(bench="LiH", compiler="ph").content_hash() == (
            CompileJob(bench="LiH", compiler="paulihedral").content_hash()
        )
        assert CompileJob(bench="LiH", device="sycamore:8x8").content_hash() == (
            CompileJob(bench="LiH", device="sycamore").content_hash()
        )
        assert CompileJob(bench="LiH", device="linear:auto+2").content_hash() == (
            CompileJob(bench="LiH", device="linear").content_hash()
        )
        assert CompileJob(bench="ucc:UCC-10").content_hash() == (
            CompileJob(bench="UCC-10").content_hash()
        )

    def test_new_vocabulary_hashes_are_distinct(self):
        base = CompileJob(bench="LiH").content_hash()
        news = {
            CompileJob(bench="LiH", device=d).content_hash()
            for d in ("grid:8x8", "heavy-hex:5", "linear:16", "ring:16",
                      "sycamore:6x6", "full:16")
        }
        assert base not in news
        assert len(news) == 6

    def test_job_validation(self):
        with pytest.raises(ValueError):
            CompileJob(bench="LiH", device="torus")
        with pytest.raises(ValueError):
            CompileJob(bench="LiH", device="grid:banana")
        with pytest.raises(ValueError):
            CompileJob(bench="LiH", compiler="nope")
        with pytest.raises(ValueError):
            CompileJob(bench="bio:LiH")  # namespaced benches validate eagerly
        CompileJob(bench="NoSuchMolecule")  # bare benches stay lazy (run-time error)

    def test_compiler_aliases_make_the_same_compiler(self):
        assert PIPELINES.canonical("ph") == "paulihedral"
        assert PIPELINES.canonical("tket") == "tket-like"
        assert PIPELINES.canonical("2qan") == "2qan-like"


class TestResultRowColumns:
    def test_row_distinguishes_ablation_cells(self):
        from repro.service import JobResult

        left = JobResult(job=CompileJob(bench="LiH", blocks=4)).row()
        right = JobResult(
            job=CompileJob(bench="LiH", blocks=8, optimization_level=0,
                           params={"lookahead": 5})
        ).row()
        assert left != right
        assert left["blocks"] == 4 and right["blocks"] == 8
        assert right["optimization_level"] == 0
        assert right["params"] == "lookahead=5"
        assert left["params"] == ""


class TestPublicFacade:
    def test_compile_smoke_on_grid(self):
        result = repro.compile(
            bench="chem:LiH", compiler="tetris", device="grid:4x4",
            scale="smoke", blocks=4, use_cache=False,
        )
        assert result.ok
        assert result.metrics is not None
        assert result.metrics.cnot_gates > 0
        assert result.metrics.num_qubits == 16
        assert result.job.device == "grid:4x4"

    def test_compile_raises_on_bad_specs(self):
        with pytest.raises(ValueError):
            repro.compile(bench="LiH", device="torus", scale="smoke")
        with pytest.raises(RuntimeError):
            repro.compile(bench="NoSuchMolecule", scale="smoke", use_cache=False)

    def test_sweep_dedups_and_returns_grid(self):
        results = repro.sweep(
            bench="qaoa:Rand-16",
            compiler=("tetris-qaoa", "2qan-like"),
            device="linear:auto+2",
            encoder=("JW", "BK"),  # qaoa ignores the encoder -> deduped
            scale="smoke",
            use_cache=False,
        )
        assert len(results) == 2
        assert all(r.ok for r in results)
        assert {r.job.compiler for r in results} == {"tetris-qaoa", "2qan-like"}


class TestCliSpecStrings:
    def test_single_compile_with_spec_strings(self, capsys):
        assert cli.main(["--bench", "chem:LiH", "--blocks", "4",
                         "--device", "grid:4x4"]) == 0
        out = capsys.readouterr().out
        assert "grid-4x4" in out

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["--bench", "LiH", "--device", "torus:3"])

    def test_undersized_device_rejected_cleanly(self):
        with pytest.raises(SystemExit):  # parser.error, not a raw traceback
            cli.main(["--bench", "LiH", "--device", "linear:4"])

    def test_list_devices_prints_families_and_grammar(self, capsys):
        assert cli.main(["--list-devices"]) == 0
        out = capsys.readouterr().out
        assert "grid:<rows>x<cols>" in out
        assert "ithaca" in out
        assert "heavy-hex" in out

    def test_list_benchmarks_prints_namespaced_specs(self, capsys):
        assert cli.main(["--list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "chem:LiH" in out
        assert "ucc:UCC-10" in out
        assert "qaoa:Rand-16" in out

    def test_batch_accepts_parametric_devices(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        jsonl = str(tmp_path / "out.jsonl")
        assert cli.main([
            "batch", "--bench", "chem:LiH", "--compiler", "tetris",
            "--device", "grid:4x4,linear:auto+2", "--scale", "smoke",
            "--blocks", "4", "--jsonl", jsonl, "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 jobs" in out
        import json

        rows = [json.loads(line) for line in open(jsonl)]
        assert {row["job"]["device"] for row in rows} == {"grid:4x4", "linear:auto+2"}
