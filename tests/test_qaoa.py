"""Tests for QAOA workload generation."""

import networkx as nx
import pytest

from repro.qaoa import (
    QAOA_BENCHMARKS,
    RANDOM_EDGE_COUNTS,
    benchmark_graph,
    edge_list,
    maxcut_blocks,
    qaoa_gate_counts,
    random_graph,
    regular_graph,
)


class TestGraphs:
    def test_random_graph_shape(self):
        graph = random_graph(16, 25, seed=0)
        assert graph.number_of_nodes() == 16
        assert graph.number_of_edges() == 25
        assert nx.is_connected(graph)

    def test_regular_graph_shape(self):
        graph = regular_graph(16, 3, seed=0)
        assert all(d == 3 for _, d in graph.degree())
        assert nx.is_connected(graph)

    def test_benchmark_names(self):
        for name in QAOA_BENCHMARKS:
            graph = benchmark_graph(name, seed=1)
            size = int(name.split("-")[1])
            assert graph.number_of_nodes() == size
        with pytest.raises(ValueError):
            benchmark_graph("Torus-16")

    def test_table1_edge_counts(self):
        # Paper Table I: Rand-16/18/20 have 25/31/40 strings (edges).
        for size, edges in RANDOM_EDGE_COUNTS.items():
            graph = benchmark_graph(f"Rand-{size}", seed=0)
            assert graph.number_of_edges() == edges

    def test_edge_list_normalized(self):
        graph = nx.Graph([(3, 1), (2, 0)])
        assert edge_list(graph) == [(0, 2), (1, 3)]

    def test_seeds_give_distinct_instances(self):
        a = edge_list(benchmark_graph("Rand-16", seed=0))
        b = edge_list(benchmark_graph("Rand-16", seed=1))
        assert a != b


class TestAnsatz:
    def test_blocks_shape(self):
        graph = benchmark_graph("REG3-16", seed=0)
        blocks = maxcut_blocks(graph, gamma=0.9)
        assert len(blocks) == graph.number_of_edges()
        for block in blocks:
            assert len(block) == 1
            string = block.strings[0]
            assert string.weight == 2
            assert all(string[q] == "Z" for q in string.support)
            assert block.angle == pytest.approx(0.9)

    def test_gate_counts_match_table1(self):
        graph = benchmark_graph("Rand-16", seed=0)
        cnots, oneq = qaoa_gate_counts(graph)
        assert cnots == 50
        assert oneq == 57  # 25 RZ + 16 H + 16 RX
