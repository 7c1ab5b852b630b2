"""The metric column scan against the gate-list loops it replaced.

``repro.circuit.metrics`` measures depth, duration and gate counts in one
scan over ``(code, q0, q1)`` columns, with SWAP weighed as its 3 CNOTs
instead of being decomposed.  ``tests/metrics_reference.py`` keeps the
gate-list loops that measured circuits before; these tests assert the
scan matches them exactly — on seeded random circuits covering every
gate shape, and on every registered pipeline's output, symbolic
templates included.  They also pin that a compiled circuit stays a tape
(no ``Gate`` is built) through ``run_job`` and ``metrics()``.
"""

import numpy as np
import pytest

import metrics_reference as ref
from repro.circuit import QuantumCircuit, circuit_duration, depth, measure_circuit
from repro.circuit import gate as g
from repro.circuit.gate import Gate
from repro.pipeline import PIPELINES
from repro.service import CompileJob
from repro.service.jobs import compile_job

CUSTOM_DURATIONS = {"cx": 10, "h": 7, "swap": 99, "u3": 33, "measure": 5}


def random_circuit(rng, num_qubits, num_gates, wide_barriers=False):
    """Every gate shape the scan weighs: 1Q gates and u3, CNOT, SWAP,
    measure, reset, and barriers on one, two (and optionally more)
    wires."""
    qc = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        kind = int(rng.integers(11))
        q = int(rng.integers(num_qubits))
        a, b = (int(v) for v in rng.choice(num_qubits, 2, replace=False))
        if kind == 0:
            getattr(qc, ("h", "s", "sdg", "x", "y", "z")[rng.integers(6)])(q)
        elif kind == 1:
            getattr(qc, ("rx", "ry", "rz")[rng.integers(3)])(
                float(rng.uniform(-4, 4)), q
            )
        elif kind == 2:
            qc.u3(*(float(v) for v in rng.uniform(-3, 3, size=3)), q)
        elif kind in (3, 4, 5):
            qc.cx(a, b)
        elif kind == 6:
            qc.swap(a, b)
        elif kind == 7:
            qc.measure(q) if rng.integers(2) else qc.reset(q)
        elif kind == 8:
            qc.barrier(q)
        elif kind == 9:
            qc.barrier(a, b)
        elif wide_barriers:
            width = int(rng.integers(3, num_qubits + 1))
            qc.barrier(*(int(v) for v in rng.choice(num_qubits, width,
                                                    replace=False)))
    return qc


def assert_scan_matches(circuit, gates):
    """Every scan-based metric of ``circuit`` equals the reference loop
    on ``gates``."""
    assert depth(circuit) == ref.depth(gates)
    assert circuit_duration(circuit) == ref.circuit_duration(gates)
    assert circuit_duration(circuit, CUSTOM_DURATIONS) == ref.circuit_duration(
        gates, CUSTOM_DURATIONS
    )
    metrics = measure_circuit(circuit)
    assert metrics.depth == ref.depth(gates)
    assert metrics.duration == 0
    for name, value in ref.counts(gates).items():
        assert getattr(metrics, name) == value, name


class TestRandomCircuits:
    @pytest.mark.parametrize("seed", range(30))
    def test_gate_list_and_tape_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        qc = random_circuit(rng, int(rng.integers(2, 7)),
                            int(rng.integers(0, 80)))
        gates = list(qc.gates)
        taped = QuantumCircuit.from_tape(qc.tape())
        assert_scan_matches(qc, gates)
        assert_scan_matches(taped, gates)

    @pytest.mark.parametrize("seed", range(10))
    def test_wide_barriers_match_reference(self, seed):
        rng = np.random.default_rng(1000 + seed)
        qc = random_circuit(rng, int(rng.integers(3, 7)),
                            int(rng.integers(1, 60)), wide_barriers=True)
        assert_scan_matches(qc, list(qc.gates))

    def test_empty_circuits(self):
        for circuit in (QuantumCircuit(0), QuantumCircuit(4)):
            assert_scan_matches(circuit, [])
            taped = QuantumCircuit.from_tape(circuit.tape())
            assert_scan_matches(taped, [])

    def test_zero_wire_barrier(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.append(Gate(g.BARRIER, ()))
        qc.cx(0, 1)
        assert_scan_matches(qc, list(qc.gates))

    def test_scan_does_not_decode(self):
        rng = np.random.default_rng(3)
        taped = QuantumCircuit.from_tape(random_circuit(rng, 4, 50).tape())
        depth(taped)
        circuit_duration(taped)
        measure_circuit(taped)
        assert taped.tape_backed


def pipeline_cells():
    chem = [name for name in PIPELINES.names() if "qaoa" not in name
            and name != "2qan-like"]
    cells = [(bench, compiler) for bench in ("chem:LiH", "ucc:UCC-10",
                                             "qaoa:Rand-12")
             for compiler in chem]
    cells += [("qaoa:Rand-12", "tetris-qaoa"), ("qaoa:Rand-12", "2qan-like")]
    return cells


class TestPipelineOutputs:
    @pytest.mark.parametrize("bench,compiler", pipeline_cells(),
                             ids=lambda value: value)
    def test_metrics_match_reference(self, bench, compiler):
        job = CompileJob(bench=bench, compiler=compiler, device="grid:4x4",
                         scale="smoke")
        result, run = compile_job(job)
        circuit = run.result.circuit
        # No Gate is built after synthesis: run_job measured the tape.
        assert circuit.tape_backed
        metrics = run.result.metrics()
        assert circuit.tape_backed
        assert circuit.tape().decode() == circuit.gates
        assert not circuit.tape_backed
        expected = ref.result_metrics(run.result)
        for name, value in expected.items():
            assert getattr(metrics, name) == value, name
            assert getattr(result.metrics, name) == value, name

    @pytest.mark.parametrize("bench,compiler", pipeline_cells(),
                             ids=lambda value: value)
    def test_template_metrics_match_reference(self, bench, compiler):
        job = CompileJob(bench=bench, compiler=compiler, device="grid:4x4",
                         scale="smoke", parametric=True)
        result, run = compile_job(job)
        template = result.template
        assert template.num_slots > 0
        gates = list(template.gates)
        metrics = template.metrics()
        assert metrics.depth == ref.depth(gates)
        for name, value in ref.counts(gates).items():
            assert getattr(metrics, name) == value, name
        expected = ref.result_metrics(run.result)
        measured = run.result.metrics()
        for name, value in expected.items():
            assert getattr(measured, name) == value, name
