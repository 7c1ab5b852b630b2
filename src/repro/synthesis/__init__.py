"""Circuit synthesis for Pauli-string exponentials."""

from .basis_change import post_rotation_gates, pre_rotation_gates
from .chain import synthesize_chain
from .tree import emit_exponential, fan_in

__all__ = [
    "emit_exponential",
    "fan_in",
    "pre_rotation_gates",
    "post_rotation_gates",
    "synthesize_chain",
]
