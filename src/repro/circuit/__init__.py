"""Quantum circuit IR: gates, circuits, parameters, and circuit metrics."""

from .circuit import QuantumCircuit
from .duration import circuit_duration
from .gate import DEFAULT_DURATIONS, Gate
from .metrics import CircuitMetrics, depth, measure_circuit
from .parameter import BindError, Parameter, ParameterExpression, is_symbolic
from .qasm import to_qasm
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
    "DEFAULT_DURATIONS",
    "CircuitMetrics",
    "depth",
    "measure_circuit",
    "circuit_duration",
    "to_qasm",
]
