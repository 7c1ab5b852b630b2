"""QAOA workloads: benchmark graphs and MaxCut ansatz blocks."""

from .ansatz import maxcut_blocks, qaoa_gate_counts
from .graphs import (
    QAOA_BENCHMARKS,
    RANDOM_EDGE_COUNTS,
    benchmark_graph,
    edge_list,
    random_graph,
    regular_graph,
)

__all__ = [
    "maxcut_blocks",
    "qaoa_gate_counts",
    "benchmark_graph",
    "random_graph",
    "regular_graph",
    "edge_list",
    "QAOA_BENCHMARKS",
    "RANDOM_EDGE_COUNTS",
]
