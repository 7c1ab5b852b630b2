"""Simulation substrate: statevector, unitaries, and noise models."""

from .noise import (
    CalibratedNoiseModel,
    FidelityEstimate,
    NoiseModel,
    calibrated_fidelity,
    error_free_probability,
    estimate_fidelity,
    trajectory_fidelity,
)
from .statevector import Statevector, circuit_unitary
from .unitaries import gate_unitary, pauli_matrix

__all__ = [
    "Statevector",
    "circuit_unitary",
    "gate_unitary",
    "pauli_matrix",
    "NoiseModel",
    "CalibratedNoiseModel",
    "calibrated_fidelity",
    "FidelityEstimate",
    "error_free_probability",
    "estimate_fidelity",
    "trajectory_fidelity",
]
