"""The synthesis building blocks of Tetris and the paper's baselines.

Each compiler of the evaluation is a registered pass sequence in
:data:`repro.pipeline.registry.PIPELINES` (``tetris``, ``paulihedral``,
``max-cancel``, ``tket-like``, ``pcoast-like``, ``2qan-like``,
``tetris-qaoa``); this package holds what those passes are made of:
the Tetris IR, the block order every block compiler shares and
Algorithm-1 synthesis, the baselines' emission routines, and the shared
:class:`~repro.compiler.base.CompilationResult` record.
"""

from .base import (
    CompilationResult,
    interaction_pairs,
    logical_cnot_count,
    logical_one_qubit_count,
)
from .max_cancel import max_cancel_logical_circuit
from .qaoa_2qan import extract_edges
from .tetris import TetrisBlockIR, chain_order, lower_blocks

__all__ = [
    "CompilationResult",
    "logical_cnot_count",
    "logical_one_qubit_count",
    "interaction_pairs",
    "TetrisBlockIR",
    "lower_blocks",
    "chain_order",
    "max_cancel_logical_circuit",
    "extract_edges",
]
