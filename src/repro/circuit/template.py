"""Compiled circuit templates: structure compiled once, angles bound late.

A :class:`CompiledTemplate` wraps a compiled circuit that still carries
symbolic angles (:mod:`repro.circuit.parameter`) together with an
*ordered* parameter list, and pre-indexes every symbolic slot so that
:meth:`CompiledTemplate.bind` is a vectorized fast path:

1. at construction, each symbolic gate parameter becomes a slot whose
   terms are stored sparsely as flat ``(slot, parameter, coefficient)``
   arrays plus a constant vector ``c`` — legal because every angle a
   pipeline emits is a *linear* function of the workload angles;
2. :meth:`~CompiledTemplate.slot_values` computes all slot values
   (``A @ theta + c``) in one ``np.bincount`` over the terms, and
   ``bind(theta)`` rebuilds only the slotted :class:`~repro.circuit.
   gate.Gate` objects — untouched gates are shared with the template,
   never copied.

A bound circuit's gate counts and depth need no gate list at all:
:meth:`~CompiledTemplate.metrics` measures the structure once, since
binding never changes a gate name or wire.

``structure_hash()`` fingerprints everything *except* angle values —
gate names, wires, constant parameters, and the symbolic slot wiring —
so it is stable across rebinding and across the workload's baked angles.

Templates serialize to plain JSON (:meth:`to_dict`/:meth:`from_dict`)
so they ride inside :class:`~repro.service.jobs.JobResult` through the
worker pool, the on-disk result cache, and the serve daemon unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .circuit import QuantumCircuit
from .gate import Gate
from .metrics import CircuitMetrics, measure_circuit
from .parameter import (
    BindError,
    Parameter,
    decode_param,
    encode_param,
    is_symbolic,
)
from .qasm import to_qasm

TEMPLATE_VERSION = 1


class CompiledTemplate:
    """A compiled structure plus ordered parameter slots and fast ``bind``.

    Parameters
    ----------
    circuit:
        The compiled circuit, with symbolic angles still in place.
    parameters:
        The template's parameter order (what a ``theta`` vector means).
        Defaults to first-appearance order in the circuit.
    default_angles:
        Optional baked angles (the workload's own values);
        ``bind()`` with no argument uses them.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        parameters: Optional[Sequence[Parameter]] = None,
        default_angles: Optional[Sequence[float]] = None,
    ) -> None:
        self.num_qubits = circuit.num_qubits
        self.name = circuit.name
        self._gates: Tuple[Gate, ...] = tuple(circuit.gates)
        if parameters is None:
            parameters = circuit.parameters()
        self.parameters: Tuple[Parameter, ...] = tuple(parameters)
        if len({p.name for p in self.parameters}) != len(self.parameters):
            raise ValueError("template parameters must have distinct names")
        if default_angles is not None:
            default_angles = np.asarray(default_angles, dtype=float)
            if default_angles.shape != (len(self.parameters),):
                raise ValueError(
                    f"default_angles must have length {len(self.parameters)}, "
                    f"got {default_angles.shape}"
                )
        self.default_angles: Optional[np.ndarray] = default_angles
        self._index_slots()
        self._metrics: Optional[CircuitMetrics] = None

    # -- slot pre-indexing -----------------------------------------------------

    def _index_slots(self) -> None:
        column = {p.name: i for i, p in enumerate(self.parameters)}
        rows: List[int] = []
        cols: List[int] = []
        coeffs: List[float] = []
        const: List[float] = []
        gate_slots: List[Tuple[int, Tuple[Tuple[int, int], ...]]] = []
        for gate_index, gate in enumerate(self._gates):
            pairs: List[Tuple[int, int]] = []
            for param_index, value in enumerate(gate.params):
                if not is_symbolic(value):
                    continue
                slot = len(const)
                for parameter, coeff in value.terms:
                    slot_column = column.get(parameter.name)
                    if slot_column is None:
                        raise ValueError(
                            f"gate {gate_index} mentions parameter "
                            f"{parameter.name!r} which is not in the "
                            f"template's parameter list"
                        )
                    rows.append(slot)
                    cols.append(slot_column)
                    coeffs.append(coeff)
                pairs.append((param_index, slot))
                const.append(value.const)
            if pairs:
                gate_slots.append((gate_index, tuple(pairs)))
        self._gate_slots: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...] = (
            tuple(gate_slots)
        )
        self._term_rows = np.asarray(rows, dtype=np.intp)
        self._term_cols = np.asarray(cols, dtype=np.intp)
        self._term_coeffs = np.asarray(coeffs, dtype=float)
        self._const = np.asarray(const, dtype=float)

    # -- views -----------------------------------------------------------------

    @property
    def num_parameters(self) -> int:
        return len(self.parameters)

    @property
    def num_slots(self) -> int:
        """Symbolic gate-parameter slots rewritten per bind."""
        return len(self._const)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return self._gates

    def circuit(self) -> QuantumCircuit:
        """The symbolic circuit (a copy; gate objects are shared)."""
        out = QuantumCircuit(self.num_qubits, self.name)
        out.gates = list(self._gates)
        return out

    # -- binding ---------------------------------------------------------------

    def _theta(
        self,
        angles: Union[None, Sequence[float], Mapping[Any, float]],
    ) -> np.ndarray:
        if angles is None:
            if self.default_angles is None:
                raise BindError(
                    "template has no default angles: pass a theta vector"
                )
            return self.default_angles
        if isinstance(angles, Mapping):
            by_name: Dict[str, float] = {}
            for key, value in angles.items():
                by_name[key.name if isinstance(key, Parameter) else str(key)] = value
            known = {p.name for p in self.parameters}
            unknown = sorted(set(by_name) - known)
            if unknown:
                raise BindError(f"unknown parameter(s): {unknown}")
            missing = sorted(known - set(by_name))
            if missing:
                raise BindError(f"missing parameter(s): {missing}")
            angles = [by_name[p.name] for p in self.parameters]
        theta = np.asarray(angles, dtype=float)
        if theta.shape != (len(self.parameters),):
            raise BindError(
                f"expected {len(self.parameters)} angles, got "
                f"{theta.shape[0] if theta.ndim == 1 else theta.shape}"
            )
        finite = np.isfinite(theta)
        if not finite.all():
            index = int(np.argmin(finite))
            raise BindError(
                f"angles must be finite: theta[{index}] is {theta[index]}"
            )
        return theta

    def slot_values(
        self,
        angles: Union[None, Sequence[float], Mapping[Any, float]] = None,
    ) -> np.ndarray:
        """Every slot's value, ``A @ theta + c``, in slot order.

        ``angles`` takes the forms :meth:`bind` takes, and raises
        :class:`BindError` where :meth:`bind` does.
        """
        theta = self._theta(angles)
        return np.bincount(
            self._term_rows,
            weights=self._term_coeffs * theta[self._term_cols],
            minlength=self.num_slots,
        ) + self._const

    def bind(
        self,
        angles: Union[None, Sequence[float], Mapping[Any, float]] = None,
    ) -> QuantumCircuit:
        """Bind a full angle assignment and return the concrete circuit.

        ``angles`` is a vector in :attr:`parameters` order, a mapping
        (parameter/name -> value, must cover every parameter exactly),
        or ``None`` for :attr:`default_angles`.  Wrong lengths, unknown
        names, missing parameters and non-finite angles raise
        :class:`BindError`.
        """
        values = self.slot_values(angles)
        gates = list(self._gates)
        for gate_index, pairs in self._gate_slots:
            gate = gates[gate_index]
            params = list(gate.params)
            for param_index, slot_row in pairs:
                params[param_index] = float(values[slot_row])
            gates[gate_index] = Gate(gate.name, gate.qubits, tuple(params))
        out = QuantumCircuit(self.num_qubits, self.name)
        out.gates = gates
        return out

    # -- what a bound circuit reports ------------------------------------------

    def metrics(self) -> CircuitMetrics:
        """``measure_circuit`` of any binding, measured once per template.

        Gate counts and depth depend only on gate names and wires, which
        binding never changes, so the symbolic circuit measures the same
        as ``bind(theta)`` for every ``theta``.  Each call returns its
        own copy.
        """
        if self._metrics is None:
            self._metrics = measure_circuit(self.circuit())
        return replace(self._metrics, extra=dict(self._metrics.extra))

    def qasm(
        self,
        angles: Union[None, Sequence[float], Mapping[Any, float]] = None,
    ) -> str:
        """OpenQASM 2.0 of the circuit bound at ``angles``."""
        return to_qasm(self.bind(angles))

    # -- hashing + serialization -----------------------------------------------

    def _structure_payload(self) -> Dict[str, Any]:
        return {
            "version": TEMPLATE_VERSION,
            "num_qubits": self.num_qubits,
            "parameters": [p.name for p in self.parameters],
            "gates": [
                [
                    gate.name,
                    list(gate.qubits),
                    [encode_param(value) for value in gate.params],
                ]
                for gate in self._gates
            ],
        }

    def structure_hash(self) -> str:
        """sha256 over the angle-free structure (gates, wires, constant
        params, symbolic slot wiring) — stable across rebinds and across
        the workload's baked angle values."""
        payload = json.dumps(
            self._structure_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        payload = self._structure_payload()
        payload["name"] = self.name
        payload["default_angles"] = (
            None if self.default_angles is None else list(self.default_angles)
        )
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CompiledTemplate":
        interned: Dict[str, Parameter] = {
            name: Parameter(name) for name in payload["parameters"]
        }
        circuit = QuantumCircuit(payload["num_qubits"], payload.get("name", ""))
        circuit.gates = [
            Gate(
                name,
                tuple(qubits),
                tuple(decode_param(value, interned) for value in params),
            )
            for name, qubits, params in payload["gates"]
        ]
        return cls(
            circuit,
            parameters=[interned[name] for name in payload["parameters"]],
            default_angles=payload.get("default_angles"),
        )

    def __repr__(self) -> str:
        return (
            f"CompiledTemplate({self.num_qubits}q, {len(self._gates)} gates, "
            f"{self.num_parameters} parameters, {self.num_slots} slots)"
        )

