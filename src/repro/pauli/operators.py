"""Single-qubit Pauli operator definitions and lookup tables.

A Pauli operator on one qubit is one of ``I``, ``X``, ``Y``, ``Z``.  We encode
each operator as one ASCII byte so that a whole Pauli string can live in a
compact ``bytes`` object, and we also provide the symplectic ``(x, z)`` bit
encoding used for fast products:

====  ===  ===
op     x    z
====  ===  ===
I      0    0
X      1    0
Y      1    1
Z      0    1
====  ===  ===
"""

from __future__ import annotations

import numpy as np

I = "I"
X = "X"
Y = "Y"
Z = "Z"

PAULI_CHARS = (I, X, Y, Z)

_ORD_I = ord(I)
_ORD_X = ord(X)
_ORD_Y = ord(Y)
_ORD_Z = ord(Z)

# char ordinal -> (x, z) symplectic bits
_XZ_OF_ORD = {_ORD_I: (0, 0), _ORD_X: (1, 0), _ORD_Y: (1, 1), _ORD_Z: (0, 1)}

# (x, z) -> char
_CHAR_OF_XZ = {(0, 0): I, (1, 0): X, (1, 1): Y, (0, 1): Z}

# Vectorized lookup tables indexed by byte ordinal (size 256).
X_BIT_OF_ORD = np.zeros(256, dtype=np.uint8)
Z_BIT_OF_ORD = np.zeros(256, dtype=np.uint8)
for _o, (_x, _z) in _XZ_OF_ORD.items():
    X_BIT_OF_ORD[_o] = _x
    Z_BIT_OF_ORD[_o] = _z

# (x, z) -> byte ordinal, as a 2x2 table.
ORD_OF_XZ = np.zeros((2, 2), dtype=np.uint8)
ORD_OF_XZ[0, 0] = _ORD_I
ORD_OF_XZ[1, 0] = _ORD_X
ORD_OF_XZ[1, 1] = _ORD_Y
ORD_OF_XZ[0, 1] = _ORD_Z

# (x, z) -> lexicographic code.  ASCII orders the characters I < X < Y < Z,
# so sorting packed 2-bit codes (qubit 0 in the most significant position)
# reproduces the character-string sort order bit-for-bit.
CODE_OF_XZ = np.zeros((2, 2), dtype=np.uint8)
CODE_OF_XZ[0, 0] = 0  # I
CODE_OF_XZ[1, 0] = 1  # X
CODE_OF_XZ[1, 1] = 2  # Y
CODE_OF_XZ[0, 1] = 3  # Z

#: ``CHAR_OF_CODE[code]`` — the character for a lexicographic code.
CHAR_OF_CODE = (I, X, Y, Z)

#: ``IS_PAULI_ORD[ord(char)]`` — vectorized membership test.
IS_PAULI_ORD = np.zeros(256, dtype=bool)
for _o in (_ORD_I, _ORD_X, _ORD_Y, _ORD_Z):
    IS_PAULI_ORD[_o] = True

# Dense 2x2 matrices for simulation / verification.
MATRICES = {
    I: np.array([[1, 0], [0, 1]], dtype=complex),
    X: np.array([[0, 1], [1, 0]], dtype=complex),
    Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def char_of_xz(x: int, z: int) -> str:
    """Return the Pauli character for symplectic bits ``(x, z)``."""
    return _CHAR_OF_XZ[(int(x) & 1, int(z) & 1)]


def xz_of_char(char: str) -> tuple:
    """Return the symplectic bits ``(x, z)`` for a Pauli character."""
    return _XZ_OF_ORD[ord(char)]


def single_product(a: str, b: str) -> tuple:
    """Multiply two single-qubit Paulis.

    Returns ``(phase_power, c)`` such that ``a @ b = i**phase_power * c``
    where ``c`` is a Pauli character and ``phase_power`` is in {0, 1, 2, 3}.
    """
    xa, za = xz_of_char(a)
    xb, zb = xz_of_char(b)
    xc, zc = xa ^ xb, za ^ zb
    # Phase convention: P(x, z) = i**(x*z) X**x Z**z.  Then
    # P(a) P(b) = i**(xa*za + xb*zb - xc*zc) * (-1)**(za*xb) * P(c).
    power = (xa * za + xb * zb - xc * zc + 2 * (za * xb)) % 4
    return power, char_of_xz(xc, zc)
