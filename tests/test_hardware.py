"""Tests for coupling graphs, topologies, and the device catalog."""

import numpy as np
import pytest

from repro.hardware import (
    CouplingGraph,
    fully_connected,
    google_sycamore_64,
    grid,
    heavy_hex,
    ibm_ithaca_65,
    linear,
    ring,
    sycamore,
)
from repro.hardware.families import resolve_device

from helpers import bfs_shortest_path


class TestCouplingGraph:
    def test_basic_queries(self):
        graph = linear(4)
        assert graph.are_connected(0, 1)
        assert not graph.are_connected(0, 2)
        assert graph.neighbors(1) == frozenset({0, 2})
        assert graph.degree(0) == 1

    def test_rejects_self_loops_and_bad_edges(self):
        with pytest.raises(ValueError):
            CouplingGraph(2, [(0, 0)])
        with pytest.raises(ValueError):
            CouplingGraph(2, [(0, 5)])

    def test_distance_matrix(self):
        graph = ring(6)
        assert graph.distance(0, 3) == 3
        assert graph.distance(0, 5) == 1

    def test_shortest_path(self):
        graph = linear(5)
        assert graph.shortest_path(0, 3) == [0, 1, 2, 3]
        assert graph.shortest_path(2, 2) == [2]

    def test_shortest_path_with_blocked(self):
        graph = ring(6)
        path = graph.shortest_path(0, 3, blocked={1, 2})
        assert path == [0, 5, 4, 3]
        assert graph.shortest_path(0, 2, blocked={1, 3, 4, 5}) is None

    def test_blocked_endpoints_are_ignored(self):
        graph = linear(3)
        assert graph.shortest_path(0, 2, blocked={0, 2}) == [0, 1, 2]

    def test_tree_path_answers_without_a_search(self):
        graph = ring(6)
        # The cached BFS tree's path 0-1-2 avoids the blocked node 4.
        assert graph.shortest_path(0, 2, blocked={4}) == [0, 1, 2]
        assert graph._path_cache == {}

    def test_walled_in_endpoint_answers_without_a_search(self):
        graph = grid(3, 3)
        # Every neighbour of the corner 8 is blocked.
        assert graph.shortest_path(0, 8, blocked={5, 7}) is None
        assert graph.shortest_path(8, 0, blocked={5, 7}) is None
        assert graph._path_cache == {}

    def test_detour_is_searched_and_cached(self):
        graph = ring(6)
        assert graph.shortest_path(0, 2, blocked={1}) == [0, 5, 4, 3, 2]
        assert graph._path_cache == {(0, 2, frozenset({1})): [0, 5, 4, 3, 2]}

    def test_nearest(self):
        graph = linear(6)
        assert graph.nearest(0, [3, 5]) == 3
        assert graph.nearest(0, []) is None

    def test_subgraph_is_connected(self):
        graph = linear(6)
        assert graph.subgraph_is_connected([1, 2, 3])
        assert not graph.subgraph_is_connected([0, 2])
        assert graph.subgraph_is_connected([])


def random_sparse_graph(rng, num_qubits):
    """A random sparse graph, often disconnected, with its edges (and
    their orientation) inserted in shuffled order: the adjacency sets'
    iteration order, which both searches follow, depends on it."""
    edges = set()
    for node in range(1, num_qubits):
        if rng.random() < 0.9:
            edges.add((int(rng.integers(node)), node))
    for _ in range(int(rng.integers(0, num_qubits))):
        a, b = sorted(rng.choice(num_qubits, 2, replace=False).tolist())
        edges.add((a, b))
    edges = sorted(edges)
    shuffled = [
        edges[i] if rng.random() < 0.5 else edges[i][::-1]
        for i in rng.permutation(len(edges))
    ]
    return CouplingGraph(num_qubits, shuffled)


class TestShortestPathDifferential:
    """``shortest_path`` answers blocked queries from its cached BFS
    tree, its walled-in test or its cache before searching: every
    answer must equal the plain BFS's, path for path."""

    def check(self, graph, rng, queries):
        tally = {"none": 0, "endpoint_blocked": 0, "detour": 0}
        n = graph.num_qubits
        for _ in range(queries):
            source, target = (int(q) for q in rng.integers(n, size=2))
            density = rng.choice([0.0, 0.1, 0.3, 0.5, 0.8])
            blocked = set(np.flatnonzero(rng.random(n) < density).tolist())
            if rng.random() < 0.3:
                blocked.add(source)
            if rng.random() < 0.3:
                blocked.add(target)
            if rng.random() < 0.5:
                blocked = frozenset(blocked)
            expected = bfs_shortest_path(graph, source, target, blocked)
            assert graph.shortest_path(source, target, blocked) == expected
            # A repeat may come from the cache.
            assert graph.shortest_path(source, target, blocked) == expected
            tally["none"] += expected is None
            tally["endpoint_blocked"] += bool({source, target} & blocked)
            tally["detour"] += (
                expected is not None
                and expected != graph.shortest_path(source, target)
            )
        return tally

    @pytest.mark.parametrize("spec", [
        "linear:12", "ring:12", "full:8", "grid:5x5", "grid:3x7",
        "sycamore", "heavy-hex:ibm-65",
    ])
    def test_device_families(self, spec):
        graph = resolve_device(spec)
        rng = np.random.default_rng(sum(map(ord, spec)))
        tally = self.check(graph, rng, 800)
        assert tally["endpoint_blocked"]
        # The complete graph answers every query with its direct edge,
        # and a line has no detours.
        if spec != "full:8":
            assert tally["none"]
        if spec not in ("linear:12", "full:8"):
            assert tally["detour"]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sparse_graphs(self, seed):
        rng = np.random.default_rng(seed)
        totals = {"none": 0, "endpoint_blocked": 0, "detour": 0}
        for _ in range(10):
            graph = random_sparse_graph(rng, int(rng.integers(8, 90)))
            for key, count in self.check(graph, rng, 150).items():
                totals[key] += count
        assert all(totals.values())


class TestTopologies:
    @pytest.mark.parametrize("spec", [
        "linear:7", "ring:7", "grid:3x4", "full:5", "sycamore:4x4",
        "heavy-hex:5", "heavy-hex:ibm-65",
    ])
    def test_distances_match_networkx(self, spec):
        # The coupling graph computes its own hop distances; networkx,
        # which only the QAOA workloads import, is an independent oracle.
        import networkx as nx

        graph = resolve_device(spec, 5)
        n = graph.num_qubits
        nx_graph = nx.Graph(sorted(graph.edges))
        nx_graph.add_nodes_from(range(n))
        lengths = dict(nx.all_pairs_shortest_path_length(nx_graph))
        expected = np.array([[lengths[a][b] for b in range(n)] for a in range(n)])
        assert np.array_equal(graph.distance_matrix(), expected)
        for a in range(0, n, 3):
            for b in range(n):
                path = graph.shortest_path(a, b)
                assert len(path) - 1 == expected[a, b]
                assert all(map(graph.are_connected, path, path[1:]))

    def test_ithaca_65(self):
        graph = ibm_ithaca_65()
        assert graph.num_qubits == 65
        assert len(graph.edges) == 72
        assert (graph.distance_matrix() >= 0).all()
        assert max(graph.degree(q) for q in range(65)) <= 3  # heavy-hex property

    def test_parametric_heavy_hex(self):
        graph = heavy_hex(3, 9)
        assert (graph.distance_matrix() >= 0).all()
        assert max(graph.degree(q) for q in range(graph.num_qubits)) <= 3

    def test_heavy_hex_validation(self):
        with pytest.raises(ValueError):
            heavy_hex(0)

    def test_sycamore_64(self):
        graph = google_sycamore_64()
        assert graph.num_qubits == 64
        assert (graph.distance_matrix() >= 0).all()
        assert max(graph.degree(q) for q in range(64)) <= 4
        # denser than heavy-hex
        assert len(graph.edges) > len(ibm_ithaca_65().edges)

    def test_sycamore_validation(self):
        with pytest.raises(ValueError):
            sycamore(1, 8)

    def test_lattices(self):
        assert len(linear(5).edges) == 4
        assert len(ring(5).edges) == 5
        assert len(grid(3, 3).edges) == 12
        assert len(fully_connected(5).edges) == 10
        with pytest.raises(ValueError):
            ring(2)

    def test_grid_structure(self):
        graph = grid(2, 2)
        assert graph.are_connected(0, 1)
        assert graph.are_connected(0, 2)
        assert not graph.are_connected(0, 3)

