"""Circuit-level optimization: gate cancellation and 1Q consolidation.

The post-compilation cleanup the paper's evaluation applies to every
compiler's output, standing in for "Qiskit O3" / "T|Ket> O2":

- :func:`cancel_gates` — peephole cancellation to fixpoint: adjacent
  self-inverse pairs (CNOT/H/X/...), rotation merging, and
  commutation-aware scanning across intervening gates.
- :func:`consolidate_one_qubit_runs` — collapse every run of 1Q gates
  into a single U3 via ZYZ decomposition.

These operate on plain circuits.  Every pipeline runs them as its
cleanup tail (:func:`repro.pipeline.registry.cleanup_passes`): level
``o1`` decomposes SWAPs and cancels, ``o3`` (the default) also
consolidates — see :mod:`repro.pipeline`.
"""

from .consolidate import consolidate_one_qubit_runs
from .peephole import cancel_gates

__all__ = [
    "cancel_gates",
    "consolidate_one_qubit_runs",
]
