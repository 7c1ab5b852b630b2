"""Differential equivalence harness for template compilation.

The core invariant of compile-once/bind-many: for every registered
pipeline and a representative workload mix (chemistry, UCC, QAOA),
compiling the structure parametrically and binding angles afterwards
must produce *exactly* the circuit a baked-angle compile of the same
cell produces — gate for gate (names, qubits, and angles up to the
4*pi rotation period) — and the two circuits must agree as
statevectors.

The same harness pins what a bind reply is made of: the template's
metrics equal ``measure_circuit`` of the bound circuit, its QASM equals
``to_qasm`` of it byte for byte, and its sparse slot values equal a
dense ``A @ theta + c`` bit for bit.

Also here: the binding edge cases (shared parameters, partial binds,
wrong-length and non-finite vectors, bind-after-bind), structure-hash
stability, and the symbolic-safe ``Gate.inverse`` regression.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_statevector
from repro.circuit import (
    BindError,
    CompiledTemplate,
    Parameter,
    ParameterExpression,
    QuantumCircuit,
)
from repro.circuit import gate as g
from repro.circuit.gate import Gate
from repro.circuit.metrics import measure_circuit
from repro.circuit.qasm import to_qasm
from repro.hardware.families import resolve_device
from repro.pauli import PauliBlock
from repro.pipeline.registry import PIPELINES, build_pipeline
from repro.service import CompileJob, run_job
from repro.service.jobs import job_blocks

#: rz(x) == rz(x + 4*pi) exactly (the rotation's true period).
PERIOD = 4.0 * math.pi

#: Pipelines that require QAOA-shaped blocks (ExtractEdgesPass).
QAOA_ONLY = {"2qan-like", "tetris-qaoa"}
GENERAL = [name for name in PIPELINES.names() if name not in QAOA_ONLY]

#: (bench, device, compiler, blocks) — every registered pipeline runs
#: on the QAOA workload; the general ones also on chemistry and UCC.
CELLS = (
    [("chem:LiH", "linear:auto", name, 10) for name in GENERAL]
    + [("ucc:UCC-10", "linear:auto", name, 10) for name in GENERAL]
    + [("qaoa:Rand-12", "grid:4x4", name, 0) for name in PIPELINES.names()]
)


def _cell_id(cell):
    bench, device, compiler, blocks = cell
    return f"{bench}@{device}/{compiler}"


def _cell_job(cell, parametric=False) -> CompileJob:
    bench, device, compiler, blocks = cell
    return CompileJob(
        bench=bench, compiler=compiler, device=device, scale="smoke",
        blocks=blocks, parametric=parametric,
    )


def _baked_circuit(job: CompileJob, theta=None) -> QuantumCircuit:
    """A fresh baked-angle compile of the cell (optionally with the
    blocks' angles replaced by ``theta``)."""
    blocks = job_blocks(job)
    if theta is not None:
        blocks = [
            PauliBlock(b.strings, b.weights, angle=float(t), label=b.label)
            for b, t in zip(blocks, theta)
        ]
    coupling = resolve_device(job.device, blocks[0].num_qubits)
    manager = build_pipeline(
        job.compiler,
        optimization_level=job.optimization_level,
        params=dict(job.params),
    )
    return manager.run(blocks, coupling).result.circuit


def assert_same_gates(bound: QuantumCircuit, baked: QuantumCircuit) -> None:
    """Gate-sequence identity: names and qubits exact, angles mod 4*pi."""
    assert bound.num_qubits == baked.num_qubits
    assert len(bound.gates) == len(baked.gates)
    for position, (ours, theirs) in enumerate(zip(bound.gates, baked.gates)):
        assert ours.name == theirs.name, f"gate {position}: {ours} != {theirs}"
        assert ours.qubits == theirs.qubits, f"gate {position}: {ours} != {theirs}"
        assert len(ours.params) == len(theirs.params)
        for a, b in zip(ours.params, theirs.params):
            distance = (float(a) - float(b)) % PERIOD
            assert min(distance, PERIOD - distance) < 1e-9, (
                f"gate {position}: angle {a} != {b}"
            )


def assert_states_equal(bound: QuantumCircuit, baked: QuantumCircuit) -> None:
    ours = run_statevector(bound).state
    theirs = run_statevector(baked).state
    assert abs(np.vdot(ours, theirs)) ** 2 > 1.0 - 1e-9


def dense_slot_values(template: CompiledTemplate, theta) -> np.ndarray:
    """``A @ theta + c`` with ``A`` a dense slots x parameters matrix."""
    column = {p.name: i for i, p in enumerate(template.parameters)}
    rows, const = [], []
    for gate in template.gates:
        for value in gate.params:
            if isinstance(value, ParameterExpression):
                row = np.zeros(template.num_parameters)
                for parameter, coeff in value.terms:
                    row[column[parameter.name]] = coeff
                rows.append(row)
                const.append(value.const)
    matrix = np.array(rows).reshape(len(rows), template.num_parameters)
    return matrix.dot(np.asarray(theta, dtype=float)) + np.asarray(const)


def assert_reply_parts_match(template: CompiledTemplate, theta,
                             bound: QuantumCircuit) -> None:
    """What a bind reply is built from equals what the bound circuit
    gives: metrics, QASM text, and the slot values bit for bit."""
    assert template.metrics() == measure_circuit(bound)
    assert template.qasm(theta) == to_qasm(bound)
    if theta is None:
        theta = template.default_angles
    assert template.slot_values(theta).tobytes() == (
        dense_slot_values(template, theta).tobytes()
    )


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_bind_equals_baked_compile(cell):
    """One parametric compile + bind == a baked compile, for both the
    workload's own angles and a random angle vector."""
    parametric = run_job(_cell_job(cell, parametric=True))
    assert parametric.ok, parametric.error
    template = parametric.template
    assert template is not None

    baked_job = _cell_job(cell)
    default_bound = template.bind()
    assert_same_gates(default_bound, _baked_circuit(baked_job))
    assert_reply_parts_match(template, None, default_bound)

    import zlib

    rng = np.random.default_rng(zlib.crc32(_cell_id(cell).encode()))
    theta = rng.uniform(-2.0, 2.0, size=template.num_parameters)
    bound = template.bind(theta)
    baked = _baked_circuit(baked_job, theta)
    assert_same_gates(bound, baked)
    assert_states_equal(bound, baked)
    assert_reply_parts_match(template, theta, bound)
    assert_reply_parts_match(template, np.zeros(template.num_parameters),
                             template.bind(np.zeros(template.num_parameters)))


@pytest.mark.parametrize(
    "cell", [("chem:LiH", "linear:auto", "tetris", 10)], ids=_cell_id
)
def test_template_survives_serialization(cell):
    """A JSON round-tripped template binds identically to the original."""
    result = run_job(_cell_job(cell, parametric=True))
    template = result.template
    clone = CompiledTemplate.from_dict(json.loads(json.dumps(template.to_dict())))
    assert clone.structure_hash() == template.structure_hash()
    theta = np.linspace(-1.0, 1.0, template.num_parameters)
    assert_same_gates(clone.bind(theta), template.bind(theta))


def test_parametric_flag_changes_content_hash_only_when_set():
    baked = CompileJob(bench="chem:LiH", scale="smoke")
    parametric = CompileJob(bench="chem:LiH", scale="smoke", parametric=True)
    assert baked.content_hash() != parametric.content_hash()
    # The flag is omitted from baked payloads, so pre-template specs
    # round-trip byte-identically.
    assert "parametric" not in baked.to_dict()
    assert CompileJob.from_dict(parametric.to_dict()).parametric is True


# ---------------------------------------------------------------------------
# binding edge cases
# ---------------------------------------------------------------------------

def _shared_parameter_circuit():
    """One parameter used by several gates, plus a scaled expression."""
    theta = Parameter("theta")
    circuit = QuantumCircuit(2, "shared")
    circuit.append(Gate(g.RZ, (0,), (theta,)))
    circuit.append(Gate(g.RZ, (1,), (theta,)))
    circuit.append(Gate(g.RX, (0,), (2.0 * theta + 0.5,)))
    return theta, circuit


def test_duplicate_parameter_shared_across_gates():
    theta, circuit = _shared_parameter_circuit()
    assert circuit.parameters() == (theta,)
    bound = circuit.bind({theta: 0.25})
    assert [float(gate.params[0]) for gate in bound.gates] == [0.25, 0.25, 1.0]
    template = CompiledTemplate(circuit)
    assert template.num_parameters == 1 and template.num_slots == 3
    via_template = template.bind([0.25])
    assert_same_gates(via_template, bound)


def test_partial_bind_leaves_remaining_symbolic():
    a, b = Parameter("a"), Parameter("b")
    circuit = QuantumCircuit(1)
    circuit.append(Gate(g.RZ, (0,), (a + b,)))
    partial = circuit.bind({"a": 1.0})
    assert partial.parameters() == (b,)
    full = partial.bind({b: 2.0})
    assert float(full.gates[0].params[0]) == pytest.approx(3.0)


def test_wrong_length_vector_raises_bind_error():
    _theta, circuit = _shared_parameter_circuit()
    template = CompiledTemplate(circuit)
    for bad in ([], [1.0, 2.0], np.zeros(5), [math.nan], [math.inf],
                [-math.inf]):
        with pytest.raises(BindError):
            template.bind(bad)
        with pytest.raises(BindError):
            template.slot_values(bad)
        with pytest.raises(BindError):
            template.qasm(bad)


def test_mapping_bind_errors_are_consistent():
    _theta, circuit = _shared_parameter_circuit()
    template = CompiledTemplate(circuit)
    with pytest.raises(BindError, match="missing parameter"):
        template.bind({})
    with pytest.raises(BindError, match="unknown parameter"):
        template.bind({"theta": 0.1, "phi": 0.2})
    with pytest.raises(BindError, match="unknown"):
        circuit.bind({"phi": 0.2})


def test_bind_without_defaults_raises():
    _theta, circuit = _shared_parameter_circuit()
    with pytest.raises(BindError):
        CompiledTemplate(circuit).bind(None)


def test_bind_after_bind_is_idempotent():
    theta, circuit = _shared_parameter_circuit()
    template = CompiledTemplate(circuit)
    once = template.bind([0.7])
    assert once.parameters() == ()
    # Re-binding a fully bound circuit is a no-op (nothing symbolic left).
    again = once.bind({}, strict=True)
    assert_same_gates(again, once)
    # And the template can be re-bound any number of times, from the
    # same symbolic structure, without drift.
    assert_same_gates(template.bind([0.7]), once)


def test_structure_hash_stable_across_angles_not_structure():
    theta, circuit = _shared_parameter_circuit()
    template_a = CompiledTemplate(circuit, default_angles=[0.1])
    template_b = CompiledTemplate(circuit, default_angles=[2.9])
    assert template_a.structure_hash() == template_b.structure_hash()

    edited = circuit.copy()
    edited.append(Gate(g.H, (0,)))
    assert (
        CompiledTemplate(edited).structure_hash()
        != template_a.structure_hash()
    )


@given(value=st.floats(-50.0, 50.0), scale=st.floats(-4.0, 4.0))
@settings(max_examples=50, deadline=None)
def test_expression_bind_is_linear(value, scale):
    theta = Parameter("theta")
    expression = scale * theta + 1.25
    bound = expression.bind({theta: value}) if isinstance(
        expression, ParameterExpression
    ) else expression
    assert float(bound) == pytest.approx(scale * value + 1.25, abs=1e-9)


@given(values=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_template_bind_matches_circuit_bind(values):
    params = [Parameter(f"t[{i}]") for i in range(3)]
    circuit = QuantumCircuit(2)
    circuit.append(Gate(g.RZ, (0,), (params[0],)))
    circuit.append(Gate(g.CX, (0, 1)))
    circuit.append(Gate(g.RX, (1,), (params[1] - params[2],)))
    template = CompiledTemplate(circuit, parameters=params)
    mapping = dict(zip(params, values))
    assert_same_gates(template.bind(values), circuit.bind(mapping))


# ---------------------------------------------------------------------------
# symbolic-safe Gate.inverse (regression)
# ---------------------------------------------------------------------------

def test_gate_inverse_symbolic_rotation():
    theta = Parameter("theta")
    gate = Gate(g.RZ, (0,), (theta,))
    inverse = gate.inverse()
    assert isinstance(inverse.params[0], ParameterExpression)
    assert float(inverse.params[0].bind({theta: 0.4})) == pytest.approx(-0.4)
    # Round trip: inverting twice restores the original angle.
    assert float(
        gate.inverse().inverse().params[0].bind({theta: 0.4})
    ) == pytest.approx(0.4)


def test_gate_inverse_symbolic_u3():
    theta, phi, lam = (Parameter(n) for n in ("theta", "phi", "lam"))
    gate = Gate(g.U3, (0,), (theta, phi, lam))
    inverse = gate.inverse()
    values = {"theta": 0.3, "phi": 0.7, "lam": -0.2}
    bound = [p.bind(values) for p in inverse.params]
    # u3(t, p, l)^-1 == u3(-t, -l, -p)
    assert bound == pytest.approx([-0.3, 0.2, -0.7])


def test_gate_inverse_numeric_unchanged():
    gate = Gate(g.RZ, (0,), (0.5,))
    assert gate.inverse().params[0] == pytest.approx(-0.5)
    u3 = Gate(g.U3, (0,), (0.3, 0.7, -0.2))
    assert u3.inverse().params == pytest.approx((-0.3, 0.2, -0.7))
