"""The quantum circuit container.

A :class:`QuantumCircuit` is an ordered gate sequence over ``num_qubits``
wires, held one of two ways:

- as a flat :class:`~repro.circuit.gate.Gate` list — what synthesis
  emits and what every API-edge reader (QASM, simulation, user code)
  iterates;
- as a :class:`~repro.circuit.tape.GateTape` (:meth:`QuantumCircuit.
  from_tape`) — what the pass tail from routing through the metrics
  reads and writes.

A tape-backed circuit decodes :attr:`QuantumCircuit.gates` on the first
read and hands ownership to the list: the tape is dropped, so in-place
edits of the list are the circuit and no stale tape survives them.
:meth:`QuantumCircuit.tape` returns the backing tape, or encodes the list
afresh (never cached) when the circuit is list-backed.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from . import gate as g
from .gate import Gate
from .parameter import BindError, Parameter, ParameterExpression
from .tape import GateTape, encode_structure


@lru_cache(maxsize=None)
def _swap_cnots(a: int, b: int) -> Tuple[Gate, Gate, Gate]:
    """The 3-CNOT expansion of SWAP(a, b); Gates are immutable, so the
    tuple is shared across every decomposition of the same wire pair."""
    return (Gate(g.CX, (a, b)), Gate(g.CX, (b, a)), Gate(g.CX, (a, b)))


class QuantumCircuit:
    """An ordered sequence of gates on a fixed set of qubit wires.

    Examples
    --------
    >>> qc = QuantumCircuit(3)
    >>> qc.h(0)
    >>> qc.cx(0, 1)
    >>> qc.rz(0.5, 2)
    >>> qc.count_ops()["cx"]
    1
    """

    __slots__ = ("num_qubits", "name", "_gates", "_tape")

    def __init__(self, num_qubits: int, name: str = "") -> None:
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = num_qubits
        self.name = name
        # Exactly one of the two is set: the gate list, or the tape it
        # has not been decoded from yet.
        self._gates: Optional[List[Gate]] = []
        self._tape: Optional[GateTape] = None

    @classmethod
    def from_tape(cls, tape: GateTape) -> "QuantumCircuit":
        """A circuit backed by ``tape`` (no gate is decoded yet)."""
        out = cls(tape.num_qubits, tape.name)
        out._gates = None
        out._tape = tape
        return out

    # -- representation --------------------------------------------------------

    @property
    def gates(self) -> List[Gate]:
        """The gate list.  A tape-backed circuit decodes it here, once,
        and from then on the list is the circuit."""
        gates = self._gates
        if gates is None:
            gates = self._gates = self._tape.decode()
            self._tape = None
        return gates

    @gates.setter
    def gates(self, gates: List[Gate]) -> None:
        self._gates = gates
        self._tape = None

    @property
    def tape_backed(self) -> bool:
        """True while the circuit is a tape whose gates were never read."""
        return self._tape is not None

    def tape(self) -> GateTape:
        """The circuit as a :class:`GateTape`.

        The backing tape itself when tape-backed; otherwise a fresh
        encoding of the gate list, symbolic angles and wide barriers
        included.  The fresh encoding is not kept, so later edits of the
        list cannot leave it stale.
        """
        if self._tape is not None:
            return self._tape
        return GateTape.encode(self._gates, self.num_qubits, name=self.name)

    def structure(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(codes, qubits)`` columns, parameters ignored — what the
        metric scan reads (:func:`repro.circuit.tape.encode_structure`
        for a gate list)."""
        if self._tape is not None:
            return self._tape.codes, self._tape.qubits
        return encode_structure(self._gates)

    # -- construction ----------------------------------------------------------

    def append(self, gate: Gate) -> None:
        for qubit in gate.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"qubit {qubit} out of range for {self.num_qubits}-qubit circuit"
                )
        # The emitters' hot path: skip the ``gates`` property unless the
        # circuit is still a tape.
        gates = self._gates
        if gates is None:
            gates = self.gates
        gates.append(gate)

    def extend(self, gates: Iterable[Gate]) -> None:
        """Append many gates, validating qubit bounds once per gate.

        The fast path for bulk emission: bounds are checked inline against
        a local width instead of re-dispatching every gate through
        :meth:`append` (which re-reads the instance attributes per call).
        """
        num_qubits = self.num_qubits
        buffer = self.gates
        for gate in gates:
            for qubit in gate.qubits:
                if not 0 <= qubit < num_qubits:
                    raise ValueError(
                        f"qubit {qubit} out of range for "
                        f"{num_qubits}-qubit circuit"
                    )
            buffer.append(gate)

    def h(self, qubit: int) -> None:
        self.append(Gate(g.H, (qubit,)))

    def s(self, qubit: int) -> None:
        self.append(Gate(g.S, (qubit,)))

    def sdg(self, qubit: int) -> None:
        self.append(Gate(g.SDG, (qubit,)))

    def x(self, qubit: int) -> None:
        self.append(Gate(g.X, (qubit,)))

    def y(self, qubit: int) -> None:
        self.append(Gate(g.Y, (qubit,)))

    def z(self, qubit: int) -> None:
        self.append(Gate(g.Z, (qubit,)))

    def rx(self, angle: float, qubit: int) -> None:
        self.append(Gate(g.RX, (qubit,), (angle,)))

    def ry(self, angle: float, qubit: int) -> None:
        self.append(Gate(g.RY, (qubit,), (angle,)))

    def rz(self, angle: float, qubit: int) -> None:
        self.append(Gate(g.RZ, (qubit,), (angle,)))

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> None:
        self.append(Gate(g.U3, (qubit,), (theta, phi, lam)))

    def cx(self, control: int, target: int) -> None:
        if control == target:
            raise ValueError("cx control and target must differ")
        self.append(Gate(g.CX, (control, target)))

    def swap(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("swap qubits must differ")
        self.append(Gate(g.SWAP, (a, b)))

    def measure(self, qubit: int) -> None:
        self.append(Gate(g.MEASURE, (qubit,)))

    def reset(self, qubit: int) -> None:
        self.append(Gate(g.RESET, (qubit,)))

    def barrier(self, *qubits: int) -> None:
        self.append(Gate(g.BARRIER, qubits or tuple(range(self.num_qubits))))

    # -- views -----------------------------------------------------------------

    def __len__(self) -> int:
        if self._tape is not None:
            return len(self._tape)
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, index):
        return self.gates[index]

    def count_ops(self) -> Counter:
        """Histogram of gate names."""
        return Counter(gate.name for gate in self.gates)

    def touched_qubits(self) -> Tuple[int, ...]:
        qubits: set = set()
        for gate in self.gates:
            qubits.update(gate.qubits)
        return tuple(sorted(qubits))

    # -- symbolic parameters ---------------------------------------------------

    def parameters(self) -> Tuple[Parameter, ...]:
        """Free parameters of the circuit, in first-appearance order."""
        seen: Dict[str, Parameter] = {}
        for gate in self.gates:
            for value in gate.params:
                if isinstance(value, ParameterExpression):
                    for parameter in value.parameters:
                        seen.setdefault(parameter.name, parameter)
        return tuple(seen.values())

    def bind(
        self, values: Mapping[Any, float], strict: bool = True
    ) -> "QuantumCircuit":
        """Substitute parameter values; returns a new circuit.

        ``values`` maps :class:`Parameter` objects or names to angles.
        A partial mapping leaves the uncovered parameters symbolic;
        keys naming no parameter of the circuit raise
        :class:`BindError` unless ``strict=False``.  For the vectorized
        bind-by-position fast path see
        :class:`repro.circuit.template.CompiledTemplate`.
        """
        by_name = {
            (key.name if isinstance(key, Parameter) else str(key)): value
            for key, value in values.items()
        }
        if strict:
            known = {parameter.name for parameter in self.parameters()}
            unknown = sorted(set(by_name) - known)
            if unknown:
                raise BindError(
                    f"unknown parameter(s): {unknown} (circuit has "
                    f"{sorted(known)})"
                )
        out = QuantumCircuit(self.num_qubits, self.name)
        for gate in self.gates:
            if any(isinstance(value, ParameterExpression) for value in gate.params):
                out.gates.append(
                    Gate(
                        gate.name,
                        gate.qubits,
                        tuple(
                            value.bind(by_name)
                            if isinstance(value, ParameterExpression)
                            else value
                            for value in gate.params
                        ),
                    )
                )
            else:
                out.gates.append(gate)
        return out

    # -- transformations -------------------------------------------------------

    def copy(self) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, self.name)
        out.gates = list(self.gates)
        return out

    def compose(
        self,
        other: "QuantumCircuit",
        qubit_map: Optional[Dict[int, int]] = None,
    ) -> "QuantumCircuit":
        """Return ``self`` followed by ``other``.

        Without ``qubit_map`` the widths must match and the gates append
        verbatim.  With ``qubit_map`` (``other``'s wire -> this circuit's
        wire), ``other`` may be narrower and lands on the mapped wires;
        the remapped gates stream through the :meth:`extend` fast path so
        bounds are validated once per gate.
        """
        if qubit_map is None:
            if other.num_qubits != self.num_qubits:
                raise ValueError("circuit width mismatch")
            out = self.copy()
            out.gates.extend(other.gates)
            return out
        mapping = {int(k): int(v) for k, v in qubit_map.items()}
        if len(set(mapping.values())) != len(mapping):
            collisions = sorted(
                v for v in set(mapping.values())
                if sum(1 for w in mapping.values() if w == v) > 1
            )
            raise ValueError(
                f"qubit_map targets wire(s) {collisions} more than once"
            )
        missing = set(other.touched_qubits()) - set(mapping)
        if missing:
            raise ValueError(
                f"qubit_map missing wires {sorted(missing)} touched by "
                f"the composed circuit"
            )
        out = self.copy()
        out.extend(gate.remapped(mapping) for gate in other.gates)
        return out

    def inverse(self) -> "QuantumCircuit":
        """The inverse circuit (gates reversed and individually inverted)."""
        out = QuantumCircuit(self.num_qubits, f"{self.name}_dg")
        for gate in reversed(self.gates):
            if gate.name == g.BARRIER:
                out.gates.append(gate)
            else:
                out.gates.append(gate.inverse())
        return out

    def decompose_swaps(self) -> "QuantumCircuit":
        """Rewrite every SWAP as 3 CNOTs (the paper's accounting rule)."""
        out = QuantumCircuit(self.num_qubits, self.name)
        gates = out.gates
        swap = g.SWAP
        for gate in self.gates:
            if gate.name == swap:
                gates.extend(_swap_cnots(*gate.qubits))
            else:
                gates.append(gate)
        return out

    def remapped(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Relabel wires through ``mapping`` (logical -> physical)."""
        out = QuantumCircuit(num_qubits if num_qubits is not None else self.num_qubits,
                             self.name)
        for gate in self.gates:
            out.append(gate.remapped(mapping))
        return out

    def __repr__(self) -> str:
        counts = self.count_ops()
        summary = ", ".join(f"{name}:{count}" for name, count in counts.most_common(4))
        return (
            f"QuantumCircuit({self.num_qubits}q, {len(self.gates)} gates"
            + (f"; {summary}" if summary else "")
            + ")"
        )
