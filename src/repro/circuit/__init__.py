"""Quantum circuit IR: gates, circuits, parameters, and circuit metrics."""

from .circuit import QuantumCircuit
from .duration import circuit_duration, schedule_asap
from .gate import DEFAULT_DURATIONS, Gate
from .metrics import CircuitMetrics, depth, measure_circuit, two_qubit_depth
from .parameter import (
    BindError,
    Parameter,
    ParameterExpression,
    is_symbolic,
    parameter_vector,
)
from .qasm import to_qasm
from .qasm_import import QasmParseError, from_qasm
from .tape import GateTape, TapeError
from .template import CompiledTemplate

__all__ = [
    "QuantumCircuit",
    "Gate",
    "GateTape",
    "TapeError",
    "Parameter",
    "ParameterExpression",
    "BindError",
    "CompiledTemplate",
    "is_symbolic",
    "parameter_vector",
    "DEFAULT_DURATIONS",
    "CircuitMetrics",
    "depth",
    "two_qubit_depth",
    "measure_circuit",
    "circuit_duration",
    "schedule_asap",
    "to_qasm",
    "from_qasm",
    "QasmParseError",
]
