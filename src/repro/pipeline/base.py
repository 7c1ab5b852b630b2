"""Pass protocol and the shared property set.

A compilation pipeline is a sequence of :class:`Pass` objects run by a
:class:`~repro.pipeline.manager.PassManager` over one shared
:class:`PropertySet`.  Two kinds of pass exist:

- :class:`AnalysisPass` — reads the state and records *properties*
  (a block ordering, a qubit layout, the Tetris IR) without touching the
  circuit.  Its profile deltas are zero by construction.
- :class:`TransformationPass` — creates or rewrites the circuit under
  construction (synthesis, routing, peephole cancellation).

Passes communicate exclusively through the property set, so any pass can
be swapped, dropped, or reordered as long as its declared ``requires``
properties are produced by an earlier pass.  The well-known property
keys are documented on :class:`PropertySet`.
"""

from __future__ import annotations

from typing import Any, Tuple


class PipelineError(ValueError):
    """A malformed pipeline: missing property, no circuit produced, ..."""


class PropertySet(dict):
    """Shared pass state: a ``dict`` with attribute access.

    Well-known keys (all optional unless a pass ``requires`` them):

    ==========================  =================================================
    key                         meaning
    ==========================  =================================================
    ``blocks``                  input ``List[PauliBlock]`` (set by the manager)
    ``coupling``                target :class:`~repro.hardware.coupling.CouplingGraph`
    ``num_logical``             logical qubit count (set by the manager)
    ``circuit``                 the circuit under construction — logical first,
                                physical after layout-aware synthesis or routing
    ``layout``                  live logical→physical :class:`~repro.routing.layout.Layout`
    ``initial_layout``          frozen copy of the layout before synthesis
    ``num_swaps``               SWAPs inserted so far (accumulated)
    ``bridge_overhead_cnots``   CNOT overhead attributable to fast bridging
    ``ir_blocks``               Tetris IR (``lower-ir`` pass)
    ``block_order``             scheduled block indices (ordering passes)
    ``edges``                   QAOA ``(u, v, angle)`` terms (``extract-edges``)
    ``calibration``             :class:`~repro.hardware.calibration.Calibration`
                                snapshot (seeded by the manager for calibrated
                                jobs; required by the noise-aware passes)
    ``allowed_qubits``          physical-qubit region the layout may use
                                (``select-qubits`` pass)
    ``extra``                   free-form accounting copied into the result
    ==========================  =================================================
    """

    def __getattr__(self, key: str) -> Any:
        try:
            return self[key]
        except KeyError:
            raise AttributeError(key) from None

    def __setattr__(self, key: str, value: Any) -> None:
        self[key] = value

    def require(self, key: str, consumer: str) -> Any:
        """The property ``key``, or a :class:`PipelineError` naming the
        pass that needed it — the composition error message."""
        try:
            return self[key]
        except KeyError:
            raise PipelineError(
                f"pass {consumer!r} requires property {key!r}, which no "
                f"earlier pass produced (present: {sorted(self)})"
            ) from None


class Pass:
    """One stage of a compilation pipeline.

    Subclasses set :attr:`name` (the registry/spec label), implement
    :meth:`run`, and may declare :attr:`requires` — property keys that
    must exist before the pass runs (checked by the manager, so a
    mis-composed pipeline fails with a message naming the missing
    property rather than a ``KeyError`` deep inside a pass).

    :attr:`stage` partitions wall-clock accounting: ``"synthesis"``
    passes count toward ``compile_seconds`` and ``"optimize"`` passes
    toward ``optimize_seconds`` — the compiler's own work versus the
    O3-style cleanup tail.
    """

    name: str = "pass"
    is_analysis: bool = False
    stage: str = "synthesis"  # or "optimize"
    requires: Tuple[str, ...] = ()

    def run(self, state: PropertySet) -> None:
        raise NotImplementedError

    @property
    def kind(self) -> str:
        return "analysis" if self.is_analysis else "transformation"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class AnalysisPass(Pass):
    """A pass that records properties without changing the circuit."""

    is_analysis = True


class TransformationPass(Pass):
    """A pass that creates or rewrites the circuit under construction."""

    is_analysis = False
