"""Paulihedral-style baseline compiler (Li et al., ASPLOS 2022).

Reproduces the behaviour the paper attributes to Paulihedral:

- blocks are chained greedily by similarity (maximizing adjacent 1Q
  cancellation), with no SWAP-cost lookahead;
- strings within a block are sorted lexicographically (adjacent strings
  differ in few operators -> maximal 1Q cancellation);
- per string, the compiler finds the largest connected component of the
  string's mapped support, SWAPs the remaining qubits toward it (SWAP-centric
  mapping), and synthesizes a BFS tree rooted at the component centre —
  without Tetris' root/leaf distinction, so common-operator qubits end up
  anywhere in the tree and 2Q cancellation is mostly missed (Fig. 4(b));
- gate cancellation itself is left to the downstream O3 pass
  ("PH leaves the job of canceling gates to Qiskit O3").

This module holds the per-string emission; the ``paulihedral`` pipeline
(``order-similarity``, which runs the shared
:func:`~repro.compiler.tetris.scheduler.chain_order` without lookahead,
``layout``, ``synth-spanning-tree``) in :mod:`repro.pipeline.registry`
runs it.
"""

from __future__ import annotations

from ..circuit import gate as g
from ..circuit.gate import Gate
from ..hardware.coupling import CouplingGraph
from ..synthesis.tree import emit_exponential, fan_in
from .mapping_utils import (
    SwapTracker,
    connect_support,
    find_center,
    physical_spanning_tree,
)


def emit_string_over_spanning_tree(
    tracker: SwapTracker,
    coupling: CouplingGraph,
    string,
    angle: float,
) -> None:
    """Connect the string's support, then emit a centre-rooted BFS tree."""
    layout = tracker.layout
    support = string.support
    if not support:
        return
    connect_support(tracker, coupling, support)
    positions = [layout.physical(q) for q in support]
    root = find_center(coupling, positions, candidates=positions)
    parent = physical_spanning_tree(coupling, positions, root)
    emit_exponential(
        tracker.circuit,
        [(string[q], p) for q, p in zip(support, positions)],
        [Gate(g.CX, edge) for edge in fan_in(parent, root)],
        root,
        angle,
    )
