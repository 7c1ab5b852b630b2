"""Hardware coupling graphs with cached all-pairs shortest-path distances.

A :class:`CouplingGraph` is an undirected graph over physical qubits.  CNOTs
may only be applied along edges; the routers query distances and shortest
paths (optionally avoiding a set of blocked nodes, which Algorithm 1 of the
paper needs when leaf-tree paths must not disturb already-placed qubits).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

UNREACHABLE = -1


class CouplingGraph:
    """Undirected physical-qubit connectivity graph.

    Examples
    --------
    >>> graph = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
    >>> graph.distance(0, 3)
    3
    >>> graph.shortest_path(0, 3)
    [0, 1, 2, 3]
    """

    __slots__ = (
        "num_qubits", "_adjacency", "_edges", "_distances", "_bfs_parents",
        "_distance_rows", "_path_cache", "_center_cache", "name",
    )

    def __init__(self, num_qubits: int, edges: Iterable[Tuple[int, int]], name: str = "") -> None:
        self.num_qubits = num_qubits
        self.name = name
        self._adjacency: List[Set[int]] = [set() for _ in range(num_qubits)]
        edge_set: Set[Tuple[int, int]] = set()
        for a, b in edges:
            if a == b:
                raise ValueError("self-loops are not allowed")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise ValueError(f"edge ({a},{b}) out of range")
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
            edge_set.add((min(a, b), max(a, b)))
        self._edges: FrozenSet[Tuple[int, int]] = frozenset(edge_set)
        self._distances: Optional[np.ndarray] = None
        self._distance_rows: Optional[List[List[int]]] = None
        self._bfs_parents: Dict[int, List[int]] = {}
        self._path_cache: Dict[Tuple[int, int, FrozenSet[int]], Optional[List[int]]] = {}
        self._center_cache: Dict[Tuple[int, ...], int] = {}

    # -- topology queries --------------------------------------------------------

    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        return self._edges

    def neighbors(self, qubit: int) -> FrozenSet[int]:
        return frozenset(self._adjacency[qubit])

    def degree(self, qubit: int) -> int:
        return len(self._adjacency[qubit])

    def are_connected(self, a: int, b: int) -> bool:
        return b in self._adjacency[a]

    # -- distances ----------------------------------------------------------------

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances (computed once, cached)."""
        if self._distances is None:
            n = self.num_qubits
            distances = np.full((n, n), UNREACHABLE, dtype=np.int32)
            for source in range(n):
                distances[source, source] = 0
                queue = deque([source])
                while queue:
                    node = queue.popleft()
                    base = distances[source, node]
                    for other in self._adjacency[node]:
                        if distances[source, other] == UNREACHABLE:
                            distances[source, other] = base + 1
                            queue.append(other)
            self._distances = distances
        return self._distances

    def distance(self, a: int, b: int) -> int:
        return int(self.distance_matrix()[a, b])

    def distance_rows(self) -> List[List[int]]:
        """The distance matrix as nested Python-int lists (cached).

        Hot mapping loops work on handfuls of qubits at a time, where
        plain list indexing beats numpy scalar access several-fold.
        """
        if self._distance_rows is None:
            self._distance_rows = self.distance_matrix().tolist()
        return self._distance_rows

    def shortest_path(
        self,
        source: int,
        target: int,
        blocked: Optional[Set[int]] = None,
    ) -> Optional[List[int]]:
        """BFS shortest path, optionally avoiding ``blocked`` interior nodes.

        ``source`` and ``target`` are always allowed even if listed in
        ``blocked`` (any set-like container).  Returns None if no path
        exists.  Routers and Tetris placement issue thousands of these
        per circuit, so two shortcuts answer most of them without a
        search, each exactly what the BFS below would return:

        - *The tree path.*  Each source keeps a cached full-BFS parent
          tree; when no interior node of its path to ``target`` is
          blocked, that path is the answer.  Both searches expand
          neighbours in the same adjacency-set order, and blocking only
          removes nodes: it can delay a node's discovery but never give
          it an earlier discoverer.  Were the blocked search to give
          path node p(i+1) another parent q, q would sit at p(i)'s depth
          and be dequeued before p(i) there, hence (by induction along
          the path) before p(i) in the unblocked search too, and q would
          have been p(i+1)'s tree parent.  Unblocked queries always end
          here.
        - *Walled in.*  A tree path with an interior node means the
          endpoints are not adjacent, so any path leaves the source
          through an unblocked neighbour and enters the target through
          one: when every neighbour of either end is blocked, there is
          none.

        Only then is the blocked-path cache consulted and the BFS run;
        the cache holds BFS answers only.  The graph is immutable, so
        an answer is a pure function of its key.  Callers never mutate
        returned paths (they slice).
        """
        if source == target:
            return [source]
        parents = self._bfs_parents.get(source)
        if parents is None:
            parents = self._bfs_tree(source)
            self._bfs_parents[source] = parents
        if parents[target] < 0:
            return None
        path = [target]
        node = parents[target]
        while node != source:
            if blocked and node in blocked:
                break
            path.append(node)
            node = parents[node]
        else:
            path.append(source)
            path.reverse()
            return path
        adjacency = self._adjacency
        if adjacency[target].issubset(blocked) or adjacency[source].issubset(
            blocked
        ):
            return None
        key = (source, target, frozenset(blocked))
        cache = self._path_cache
        if key in cache:
            return cache[key]
        if len(cache) > 200_000:
            # Long-lived graphs (the serve daemon) must not grow without
            # bound; dropping the cache only costs recomputation.
            cache.clear()
        avoid = set(blocked) - {source, target}
        found: Dict[int, int] = {source: source}
        queue = deque([source])
        result: Optional[List[int]] = None
        while queue:
            node = queue.popleft()
            for other in adjacency[node]:
                if other in found or other in avoid:
                    continue
                found[other] = node
                if other == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(found[path[-1]])
                    path.reverse()
                    result = path
                    queue.clear()
                    break
                queue.append(other)
        cache[key] = result
        return result

    def _bfs_tree(self, source: int) -> List[int]:
        """Full-BFS parent array from ``source`` (-1: unreachable),
        expanding neighbors in the same set-iteration order as
        :meth:`shortest_path`'s inline scan."""
        parents = [-1] * self.num_qubits
        parents[source] = source
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for other in self._adjacency[node]:
                if parents[other] >= 0:
                    continue
                parents[other] = node
                queue.append(other)
        return parents

    def nearest(self, source: int, candidates: Sequence[int]) -> Optional[int]:
        """The candidate closest to ``source`` (ties broken by index)."""
        best = None
        best_distance = None
        row = self.distance_matrix()[source]
        for candidate in candidates:
            d = int(row[candidate])
            if d == UNREACHABLE:
                continue
            if best_distance is None or d < best_distance or (
                d == best_distance and candidate < best
            ):
                best = candidate
                best_distance = d
        return best

    def subgraph_is_connected(self, nodes: Sequence[int]) -> bool:
        """True iff ``nodes`` induce a connected subgraph."""
        node_set = set(nodes)
        if not node_set:
            return True
        start = next(iter(node_set))
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for other in self._adjacency[node]:
                if other in node_set and other not in seen:
                    seen.add(other)
                    queue.append(other)
        return len(seen) == len(node_set)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"CouplingGraph({self.num_qubits}q, {len(self._edges)} edges{label})"
