"""Noise-aware compilation: calibration determinism, hash hygiene,
differential fidelity oracle, qubit selection, noise-weighted routing.

The tests here pin the contracts the noise layer leans on:

- **Determinism** — same ``(device, seed)`` produces a byte-identical
  calibration snapshot (and therefore identical job hashes); a
  different seed produces a different device.
- **Hash hygiene** — calibrated jobs fold the calibration digest into
  their content hash; uncalibrated jobs serialize and hash exactly as
  before the noise layer existed (frozen v1 *and* v2 hashes).
- **Differential oracle** — the analytic ``calibrated_fidelity``
  estimator agrees with the exact stochastic-trajectory simulator on
  small circuits, both in value (within tolerance) and in ranking.
- **Selection/routing invariants** — ``select_best_subgraph`` returns a
  connected region of the requested size that beats random same-size
  regions, and noise-weighted routing never emits a gate on an
  uncoupled pair.
"""

import json

import numpy as np
import pytest

import repro
from repro.chem import JordanWignerEncoder
from repro.chem.amplitudes import synthetic_amplitudes
from repro.chem.uccsd import uccsd_blocks
from repro.circuit import QuantumCircuit
from repro.hardware import resolve_device
from repro.hardware.calibration import (
    calibration_digest,
    resolve_calibration,
    select_best_subgraph,
    synthetic_calibration,
)
from repro.hardware.families import canonical_device_spec
from repro.pipeline import run_pipeline
from repro.pipeline.base import PipelineError
from repro.pipeline.registry import resolve_compiler_spec, split_opt_suffix
from repro.registry import RegistryError
from repro.routing.router import route_circuit_noise, verify_hardware_compliant
from repro.service import CompileJob
from repro.sim import CalibratedNoiseModel, calibrated_fidelity, trajectory_fidelity


class TestCalibrationDeterminism:
    def test_same_device_and_seed_is_byte_identical(self):
        coupling = resolve_device("heavy-hex:ibm-65")
        spec = canonical_device_spec("heavy-hex:ibm-65")
        # Two independent draws (no memoization involved) must match to
        # the last byte of their canonical JSON form.
        left = synthetic_calibration(coupling, spec, seed=7)
        right = synthetic_calibration(coupling, spec, seed=7)
        assert json.dumps(left.to_dict()) == json.dumps(right.to_dict())

    def test_resolver_matches_direct_construction(self):
        direct = synthetic_calibration(
            resolve_device("grid:6x6"), canonical_device_spec("grid:6x6"), seed=1
        )
        resolved = resolve_calibration("grid:6x6", seed=1)
        assert json.dumps(direct.to_dict()) == json.dumps(resolved.to_dict())

    def test_different_seed_is_a_different_device(self):
        day0 = resolve_calibration("heavy-hex:ibm-65", seed=0)
        day1 = resolve_calibration("heavy-hex:ibm-65", seed=1)
        assert day0.edge_error != day1.edge_error
        assert day0.one_qubit_error != day1.one_qubit_error

    def test_alias_specs_share_a_calibration(self):
        # ithaca is an alias of heavy-hex:ibm-65; the digest (and hence
        # the job hash) must not depend on the spelling.
        assert calibration_digest("ithaca", 0) == calibration_digest(
            "heavy-hex:ibm-65", 0
        )
        alias = resolve_calibration("ithaca", seed=0)
        canonical = resolve_calibration("heavy-hex:ibm-65", seed=0)
        assert alias.edge_error == canonical.edge_error

    def test_digest_varies_with_seed_and_device(self):
        digests = {
            calibration_digest("heavy-hex:ibm-65", 0),
            calibration_digest("heavy-hex:ibm-65", 1),
            calibration_digest("grid:8x8", 0),
        }
        assert len(digests) == 3

    def test_rates_are_physical(self):
        cal = resolve_calibration("heavy-hex:ibm-65", seed=0)
        errors = np.array(list(cal.edge_error.values()))
        assert ((errors >= 1e-4) & (errors <= 3e-2)).all()
        assert all(0.0 < p < 1.0 for p in cal.one_qubit_error)
        assert all(0.0 < p < 1.0 for p in cal.readout_error)
        assert all(
            t2 <= 2.0 * t1 + 1e-9 for t1, t2 in zip(cal.t1_us, cal.t2_us)
        )

    def test_noise_distance_is_symmetric_and_path_consistent(self):
        cal = resolve_calibration("grid:4x4", seed=0)
        dist = cal.noise_distance_matrix()
        assert np.allclose(dist, dist.T)
        path = cal.noise_path(0, 15)
        assert path[0] == 0 and path[-1] == 15
        total = sum(
            -np.log1p(-cal.two_qubit_error(a, b)) for a, b in zip(path, path[1:])
        )
        assert total == pytest.approx(dist[0, 15])


#: Hashes recorded before the noise layer existed.  Uncalibrated jobs
#: must keep producing them bit-for-bit: they are on-disk cache keys.
FROZEN_V1 = {
    (("bench", "LiH"),):
        "3600e9a58accdb929b5227cb42dc064bc6e7abadae412efdc15a93496295ace5",
    (("bench", "LiH"), ("device", "linear"), ("scale", "smoke"), ("blocks", 3)):
        "ff1d59ed8ab36fc2bb87fde5b91734300d296c0ab90c3df498363330f627befa",
}
FROZEN_V2 = {
    (("bench", "chem:LiH"), ("device", "heavy-hex:ibm-65"), ("scale", "smoke")):
        "e5488810f57258b7b900ced89902b8a92a9233526f7da48103b8eeb2244a3b1f",
    (("bench", "ucc:UCC-10"), ("compiler", "max-cancel"),
     ("device", "grid:8x8"), ("optimization_level", 1)):
        "822d491df1e79a601067ce5dbf047ff4d1fdb80cf1451ee4c1e7444101628d61",
}


class TestHashHygiene:
    def test_uncalibrated_v1_hashes_frozen(self):
        for spec, expected in FROZEN_V1.items():
            assert CompileJob(**dict(spec)).content_hash() == expected

    def test_uncalibrated_v2_hashes_frozen(self):
        for spec, expected in FROZEN_V2.items():
            assert CompileJob(**dict(spec)).content_hash() == expected

    def test_uncalibrated_jobs_never_mention_calibration(self):
        job = CompileJob(bench="chem:LiH", device="heavy-hex:ibm-65")
        assert "calibration" not in job.to_dict()
        assert "calibration" not in job.canonical_spec()

    def test_calibrated_job_hashes_differently(self):
        plain = CompileJob(bench="chem:LiH", device="heavy-hex:ibm-65")
        seed0 = CompileJob(
            bench="chem:LiH", device="heavy-hex:ibm-65", calibration=0
        )
        seed1 = CompileJob(
            bench="chem:LiH", device="heavy-hex:ibm-65", calibration=1
        )
        hashes = {j.content_hash() for j in (plain, seed0, seed1)}
        assert len(hashes) == 3

    def test_calibration_spelling_independent(self):
        left = CompileJob(bench="LiH", device="ithaca", calibration=0)
        right = CompileJob(
            bench="chem:LiH", device="heavy-hex:ibm-65", calibration=0
        )
        assert left.content_hash() == right.content_hash()

    def test_noise_aware_spec_implies_seed_zero(self):
        job = CompileJob(
            bench="chem:LiH",
            compiler="tetris:noise-aware+select=20",
            device="heavy-hex:ibm-65",
        )
        assert job.calibration == 0
        spec = job.canonical_spec()
        assert spec["calibration"]["seed"] == 0
        assert spec["calibration"]["digest"] == calibration_digest(
            "heavy-hex:ibm-65", 0
        )

    def test_calibrated_job_round_trips(self):
        job = CompileJob(
            bench="chem:LiH", device="heavy-hex:ibm-65", calibration=3
        )
        clone = CompileJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.calibration == 3
        assert clone.content_hash() == job.content_hash()

    def test_invalid_calibration_rejected(self):
        with pytest.raises(ValueError):
            CompileJob(bench="LiH", calibration=-1)
        with pytest.raises(ValueError):
            CompileJob(bench="LiH", calibration=True)


def _small_circuit(blocks_count: int) -> QuantumCircuit:
    """A compiled ≤7-qubit physical circuit for oracle tests."""
    from repro.pipeline import run_pipeline

    blocks = uccsd_blocks(
        3, 1, JordanWignerEncoder(), synthetic_amplitudes(20)
    )[:blocks_count]
    return run_pipeline("tetris", blocks, resolve_device("linear:7")).result.circuit


class TestDifferentialFidelityOracle:
    """Analytic estimator vs exact trajectory simulation (≤8 qubits)."""

    def test_analytic_tracks_trajectories(self):
        circuit = _small_circuit(2)
        cal = resolve_calibration("linear:7", seed=3)
        # Inflate errors so the Monte-Carlo signal clears shot noise.
        scale = 20.0
        analytic = calibrated_fidelity(circuit, cal, scale=scale)
        exact = trajectory_fidelity(
            circuit, CalibratedNoiseModel(cal, scale=scale), shots=300, seed=2
        )
        assert 0.0 < analytic < 1.0
        # Trajectories include error-cancellation paths, so they sit at
        # or above the analytic error-free bound (minus MC noise).
        assert exact >= analytic - 0.05
        assert abs(exact - analytic) < 0.2

    def test_trivial_circuit_is_lossless(self):
        cal = resolve_calibration("linear:4", seed=0)
        empty = QuantumCircuit(4)
        assert calibrated_fidelity(empty, cal) == pytest.approx(1.0)
        noise = CalibratedNoiseModel(cal)
        assert trajectory_fidelity(empty, noise, shots=4, seed=0) == pytest.approx(1.0)

    def test_rankings_agree(self):
        shallow = _small_circuit(1)
        deep = _small_circuit(4)
        cal = resolve_calibration("linear:7", seed=3)
        scale = 10.0
        analytic = [
            calibrated_fidelity(c, cal, scale=scale) for c in (shallow, deep)
        ]
        exact = [
            trajectory_fidelity(
                c, CalibratedNoiseModel(cal, scale=scale), shots=200, seed=5
            )
            for c in (shallow, deep)
        ]
        # Fewer gates on the same wires => higher fidelity, under both
        # estimators.
        assert analytic[0] > analytic[1]
        assert exact[0] > exact[1]

    def test_scale_monotonic(self):
        circuit = _small_circuit(2)
        cal = resolve_calibration("linear:7", seed=3)
        fidelities = [
            calibrated_fidelity(circuit, cal, scale=s) for s in (1.0, 5.0, 25.0)
        ]
        assert fidelities[0] > fidelities[1] > fidelities[2]


def _random_connected_region(coupling, rng, k):
    """Uniform-ish random connected k-subgraph by random frontier growth."""
    start = int(rng.integers(coupling.num_qubits))
    region = {start}
    while len(region) < k:
        frontier = sorted(
            {
                nb
                for node in region
                for nb in coupling.neighbors(node)
                if nb not in region
            }
        )
        if not frontier:
            return None
        region.add(frontier[int(rng.integers(len(frontier)))])
    return region


class TestSelectBestSubgraph:
    @pytest.mark.parametrize("device,k", [
        ("heavy-hex:ibm-65", 20),
        ("grid:6x6", 12),
        ("sycamore:6x6", 10),
    ])
    def test_connected_correct_size_and_beats_random(self, device, k):
        coupling = resolve_device(device)
        cal = resolve_calibration(device, seed=0)
        selected = select_best_subgraph(coupling, cal, k)
        assert len(selected) == k
        assert len(set(selected)) == k
        assert coupling.subgraph_is_connected(list(selected))
        chosen = cal.mean_edge_error(selected)
        rng = np.random.default_rng(11)
        sampled = []
        for _ in range(25):
            region = _random_connected_region(coupling, rng, k)
            if region is not None:
                sampled.append(cal.mean_edge_error(region))
        assert sampled
        assert chosen <= min(sampled)

    def test_whole_device_is_identity(self):
        coupling = resolve_device("grid:4x4")
        cal = resolve_calibration("grid:4x4", seed=0)
        assert select_best_subgraph(coupling, cal, 16) == tuple(range(16))

    def test_oversized_request_raises(self):
        coupling = resolve_device("grid:4x4")
        cal = resolve_calibration("grid:4x4", seed=0)
        with pytest.raises(ValueError):
            select_best_subgraph(coupling, cal, 17)


def _random_logical_circuit(num_qubits, num_gates, seed):
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        if rng.random() < 0.3:
            circuit.rz(float(rng.random()), int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
    return circuit


class TestNoiseAwareRouting:
    @pytest.mark.parametrize("device", ["heavy-hex:5", "grid:4x4", "linear:12"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_routed_circuits_are_hardware_compliant(self, device, seed):
        coupling = resolve_device(device)
        cal = resolve_calibration(device, seed=0)
        logical = _random_logical_circuit(
            min(10, coupling.num_qubits), 40, seed
        )
        routed = route_circuit_noise(logical, coupling, cal)
        assert verify_hardware_compliant(routed.circuit, coupling)
        assert verify_hardware_compliant(
            routed.circuit.decompose_swaps(), coupling
        )

    def test_noise_router_matches_logical_gate_count(self):
        coupling = resolve_device("grid:4x4")
        cal = resolve_calibration("grid:4x4", seed=0)
        logical = _random_logical_circuit(8, 30, 7)
        routed = route_circuit_noise(logical, coupling, cal)
        swaps = sum(1 for gate in routed.circuit.gates if gate.name == "swap")
        assert swaps == routed.num_swaps
        assert len(routed.circuit.gates) == len(logical.gates) + swaps


class TestNoiseAwareGrammar:
    def test_select_suffix_parses(self):
        base, params = resolve_compiler_spec("tetris:noise-aware+select=20")
        assert params.get("noise_aware") is True
        assert params.get("select") == 20
        # Suffixes compose in either order with the cleanup level.
        split_opt_suffix("tetris:noise-aware+select=20+o1")
        split_opt_suffix("tetris:noise-aware+o1+select=20")

    def test_bad_select_suffixes_raise(self):
        for spec in ("tetris+select=", "tetris+select=0", "tetris+select=x",
                     "tetris+banana"):
            with pytest.raises(RegistryError):
                resolve_compiler_spec(spec)

    def test_select_rejected_for_custom_pass_lists(self):
        with pytest.raises(RegistryError):
            resolve_compiler_spec(
                "order-similarity,synth-single-leaf,layout,route+select=4"
            )

    def test_select_smaller_than_workload_raises(self):
        blocks = uccsd_blocks(
            3, 1, JordanWignerEncoder(), synthetic_amplitudes(20)
        )[:1]
        cal = resolve_calibration("grid:4x4", seed=0)
        with pytest.raises(PipelineError):
            run_pipeline(
                "tetris:noise-aware+select=2",
                blocks,
                resolve_device("grid:4x4"),
                calibration=cal,
            )


class TestEndToEndFidelityRanking:
    def test_noise_aware_beats_blind_on_smoke_lih(self):
        kwargs = dict(
            bench="chem:LiH", device="heavy-hex:ibm-65", scale="smoke",
            calibration=0, use_cache=False,
        )
        blind = repro.compile(compiler="tetris", **kwargs)
        aware = repro.compile(compiler="tetris:noise-aware+select=20", **kwargs)
        assert blind.estimated_fidelity is not None
        assert aware.estimated_fidelity is not None
        assert aware.estimated_fidelity > blind.estimated_fidelity

    def test_uncalibrated_results_have_no_fidelity(self):
        result = repro.compile(
            bench="chem:LiH", device="grid:4x4", scale="smoke",
            use_cache=False,
        )
        assert result.estimated_fidelity is None
        assert result.row()["estimated_fidelity"] == ""
