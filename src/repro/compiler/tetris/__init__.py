"""The Tetris compiler: IR, Algorithm-1 synthesis, lookahead scheduling.

The ``tetris`` pipeline in :mod:`repro.pipeline.registry` runs these
stages as passes.
"""

from .ir import TetrisBlockIR, lower_blocks
from .recursive_ir import (
    RecursiveRun,
    RecursiveTetrisIR,
    lower_blocks_recursive,
)
from .scheduler import (
    DEFAULT_LOOKAHEAD,
    LookaheadScheduler,
    SimilarityScheduler,
    estimate_root_gather_cost,
    lookahead_order,
)
from .synthesis import (
    DEFAULT_SWAP_WEIGHT,
    BlockSynthesisStats,
    synthesize_tetris_block,
)

__all__ = [
    "TetrisBlockIR",
    "lower_blocks",
    "RecursiveTetrisIR",
    "RecursiveRun",
    "lower_blocks_recursive",
    "LookaheadScheduler",
    "SimilarityScheduler",
    "lookahead_order",
    "estimate_root_gather_cost",
    "synthesize_tetris_block",
    "BlockSynthesisStats",
    "DEFAULT_LOOKAHEAD",
    "DEFAULT_SWAP_WEIGHT",
]
