"""Single-qubit basis-change layers for Pauli exponentials.

``exp(-i theta/2 P)`` is synthesized by conjugating an ``RZ`` rotation with
basis changes: ``X = H Z H`` and ``Y = (S H) Z (S H)^dagger``.  For each
supported qubit the *pre* layer rotates its operator into Z, and the *post*
layer (the exact inverse) rotates back — the wrap-around single-qubit layers
of Fig. 1(b).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from ..circuit import gate as g
from ..circuit.gate import Gate
from ..pauli.operators import X, Y, Z

# Gates are immutable value objects and callers only iterate the layers,
# so the (operator, qubit) -> gates mapping is memoized; the key space is
# bounded by 3x the device width.


@lru_cache(maxsize=None)
def pre_rotation_gates(op: str, qubit: int) -> Tuple[Gate, ...]:
    """Gates applied *before* the CNOT tree to map ``op`` onto Z."""
    if op == Z:
        return ()
    if op == X:
        return (Gate(g.H, (qubit,)),)
    if op == Y:
        return (Gate(g.SDG, (qubit,)), Gate(g.H, (qubit,)))
    raise ValueError(f"no basis change for operator {op!r}")


@lru_cache(maxsize=None)
def post_rotation_gates(op: str, qubit: int) -> Tuple[Gate, ...]:
    """Gates applied *after* the mirrored CNOT tree (inverse of pre)."""
    if op == Z:
        return ()
    if op == X:
        return (Gate(g.H, (qubit,)),)
    if op == Y:
        return (Gate(g.H, (qubit,)), Gate(g.S, (qubit,)))
    raise ValueError(f"no basis change for operator {op!r}")
