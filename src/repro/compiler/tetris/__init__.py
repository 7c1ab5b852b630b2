"""The Tetris compiler: IR, Algorithm-1 synthesis, block ordering.

The ``tetris`` pipeline in :mod:`repro.pipeline.registry` runs these
stages as passes.
"""

from .ir import TetrisBlockIR, lower_blocks
from .scheduler import DEFAULT_LOOKAHEAD, chain_order
from .synthesis import DEFAULT_SWAP_WEIGHT, synthesize_tetris_block

__all__ = [
    "TetrisBlockIR",
    "lower_blocks",
    "chain_order",
    "synthesize_tetris_block",
    "DEFAULT_LOOKAHEAD",
    "DEFAULT_SWAP_WEIGHT",
]
