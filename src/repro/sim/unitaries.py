"""Dense gate unitaries for simulation and verification."""

from __future__ import annotations

import numpy as np

from ..circuit import gate as g
from ..circuit.gate import Gate
from ..pauli.bits import popcount
from ..pauli.operators import MATRICES
from ..pauli.pauli_string import PauliString

_SQRT2 = np.sqrt(2.0)

_FIXED = {
    g.H: np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    g.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    g.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    g.X: MATRICES["X"],
    g.Y: MATRICES["Y"],
    g.Z: MATRICES["Z"],
    g.CX: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    g.SWAP: np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def gate_unitary(gate: Gate) -> np.ndarray:
    """Dense unitary of a single gate on its own qubits."""
    if gate.name in _FIXED:
        return _FIXED[gate.name]
    if gate.name == g.RX:
        return rx_matrix(gate.params[0])
    if gate.name == g.RY:
        return ry_matrix(gate.params[0])
    if gate.name == g.RZ:
        return rz_matrix(gate.params[0])
    if gate.name == g.U3:
        return u3_matrix(*gate.params)
    raise ValueError(f"gate {gate.name!r} has no unitary")


_Y_PHASE = (1, -1j, -1, 1j)  # (-i)**k, exact


def pauli_matrix(string: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string (qubit 0 = most significant factor).

    A Pauli string is a signed permutation, built here in one vectorized
    shot from the symplectic bitplanes instead of ``n`` Kronecker
    products: basis state ``|b>`` maps to ``phase(b) * |b ^ xmask>`` with
    ``phase(b) = (-i)**|Y| * (-1)**popcount(b & zmask)`` (each ``Z``/``Y``
    factor contributes its ``(-1)**bit`` diagonal sign, and ``Y = i X Z``
    adds one global ``-i`` per Y).
    """
    n = string.num_qubits
    x_bits, z_bits = string.xz_bits()
    # Qubit 0 is the most significant factor -> bit n-1-q of the index.
    place = 1 << np.arange(n - 1, -1, -1) if n else np.zeros(0, dtype=np.int64)
    x_mask = int((x_bits * place).sum())
    z_mask = int((z_bits * place).sum())
    num_y = int((x_bits & z_bits).sum())
    dim = 1 << n
    rows = np.arange(dim)
    parity = popcount(np.bitwise_and(rows, z_mask)) & 1
    phases = _Y_PHASE[num_y % 4] * np.where(parity, -1.0 + 0j, 1.0 + 0j)
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, rows ^ x_mask] = phases
    return out

