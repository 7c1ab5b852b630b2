"""Shared hardware-mapping machinery for the block compilers.

These helpers operate on a mutable :class:`Layout` and append SWAP gates to
a target circuit, maintaining the invariant that emitted SWAPs are always on
coupled pairs.  :func:`emit_string_over_spanning_tree` is the per-string
emitter of Paulihedral and of Tetris' non-uniform-support blocks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


from ..circuit import gate as g
from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import Gate
from ..hardware.coupling import CouplingGraph
from ..routing.layout import Layout
from ..synthesis.tree import emit_exponential, fan_in


class SwapTracker:
    """Counts SWAPs emitted into a circuit while updating a layout."""

    def __init__(self, circuit: QuantumCircuit, layout: Layout) -> None:
        self.circuit = circuit
        self.layout = layout
        self.num_swaps = 0

    def swap(self, physical_a: int, physical_b: int) -> None:
        self.circuit.swap(physical_a, physical_b)
        self.layout.swap_physical(physical_a, physical_b)
        self.num_swaps += 1

    def move_along(self, path: Sequence[int]) -> None:
        """Move the occupant of ``path[0]`` to ``path[-1]`` hop by hop."""
        for index in range(len(path) - 1):
            self.swap(path[index], path[index + 1])


def find_center(
    coupling: CouplingGraph,
    positions: Sequence[int],
    candidates: Optional[Iterable[int]] = None,
) -> int:
    """Physical node minimizing total distance to ``positions``.

    This is Algorithm 1's ``findCenter``: the clustering target for the
    root-tree qubits.  The centre need not be one of ``positions``.
    Scored by exact integer ``(sum, max, node)`` ordering over the cached
    distance rows — position sets are tiny, so plain list indexing beats
    array reductions here.
    """
    rows = coupling.distance_rows()
    if candidates is None:
        # The centre is a pure function of the (unordered) position set:
        # trial placements of a block whose qubits did not move between
        # scheduling rounds repeat the same query.
        cache_key = tuple(sorted(positions))
        cache = coupling._center_cache
        cached = cache.get(cache_key)
        if cached is not None:
            return cached
        pool = range(coupling.num_qubits)
    else:
        cache_key = None
        pool = candidates
    best = None
    best_key: Optional[Tuple[int, int, int]] = None
    for node in pool:
        row = rows[node]
        total = 0
        worst = 0
        for p in positions:
            d = row[p]
            total += d
            if d > worst:
                worst = d
        key = (total, worst, node)
        if best_key is None or key < best_key:
            best_key = key
            best = node
    assert best is not None, "empty candidate pool"
    if cache_key is not None:
        if len(coupling._center_cache) > 100_000:
            coupling._center_cache.clear()
        coupling._center_cache[cache_key] = best
    return best


def cluster_qubits(
    tracker: SwapTracker,
    coupling: CouplingGraph,
    logical_qubits: Sequence[int],
    center: int,
    avoid: Sequence[int] = (),
) -> List[int]:
    """Move ``logical_qubits`` until their positions induce a connected set.

    Qubits are processed by increasing distance to the cluster; each is
    moved along a shortest path (avoiding already-clustered positions as
    interior nodes) until it becomes adjacent to the cluster.  Returns the
    final physical positions in the order of ``logical_qubits``.

    ``avoid`` lists *logical* qubits whose positions should be routed
    around when possible (the caller's leaf-tree qubits: displacing them
    would scramble the arrangement that inter-block cancellation relies
    on).  Avoidance is best-effort — paths fall back to shorter blocking
    sets when no route exists.
    """
    layout = tracker.layout
    if not logical_qubits:
        return []
    rows = coupling.distance_rows()
    phys = layout.physical_map()
    remaining = list(logical_qubits)
    # Only each round's (distance, qubit)-minimum matters — the scalar
    # reference re-sorts the whole list every round, so a single tracked
    # minimum per round is decision-identical.  Clusters hold a handful
    # of qubits, so integer list lookups outrun array reductions.
    first = min(remaining, key=lambda q: (rows[phys[q]][center], q))
    remaining.remove(first)
    cluster: Set[int] = {phys[first]}

    while remaining:
        mover = remaining[0]
        nearest = None
        for q in remaining:
            row = rows[phys[q]]
            d = None
            for c in cluster:
                hop = row[c]
                if d is None or hop < d:
                    d = hop
            if nearest is None or d < nearest or (d == nearest and q < mover):
                nearest = d
                mover = q
        remaining.remove(mover)
        position = phys[mover]
        # nearest == 0 means the mover already sits on a cluster node;
        # nearest == 1 means it is adjacent to one.
        if nearest <= 1:
            cluster.add(position)
            continue
        row = rows[position]
        target = min(cluster, key=lambda c: (row[c], c))
        soft_avoid = {phys[q] for q in avoid if q != mover}
        path = coupling.shortest_path(position, target, blocked=cluster | soft_avoid)
        if path is None:
            path = coupling.shortest_path(position, target, blocked=cluster)
        if path is None:
            path = coupling.shortest_path(position, target)
        assert path is not None, "coupling graph must be connected"
        # Stop one hop short: adjacency to the cluster is enough.
        tracker.move_along(path[:-1])
        cluster.add(phys[mover])
    return [phys[q] for q in logical_qubits]


def connect_support(
    tracker: SwapTracker,
    coupling: CouplingGraph,
    logical_qubits: Sequence[int],
) -> None:
    """Paulihedral-style connectivity fix: grow the largest component.

    Finds the maximum connected component of the qubits' positions and
    moves the remaining qubits (nearest first) until everything is one
    component.
    """
    layout = tracker.layout
    positions = {q: layout.physical(q) for q in logical_qubits}
    if not positions:
        return
    components = _components(coupling, list(positions.values()))
    components.sort(key=len, reverse=True)
    cluster: Set[int] = set(components[0])
    outside = [q for q in logical_qubits if positions[q] not in cluster]
    distance = coupling.distance_matrix()
    while outside:
        outside.sort(
            key=lambda q: (
                min(int(distance[layout.physical(q)][c]) for c in cluster),
                q,
            )
        )
        mover = outside.pop(0)
        position = layout.physical(mover)
        if position in cluster or any(
            coupling.are_connected(position, c) for c in cluster
        ):
            cluster.add(position)
            continue
        target = min(cluster, key=lambda c: (int(distance[position][c]), c))
        path = coupling.shortest_path(position, target, blocked=cluster)
        if path is None:
            path = coupling.shortest_path(position, target)
        assert path is not None
        tracker.move_along(path[:-1])
        cluster.add(layout.physical(mover))


def _components(coupling: CouplingGraph, nodes: Sequence[int]) -> List[List[int]]:
    node_set = set(nodes)
    seen: Set[int] = set()
    components: List[List[int]] = []
    for node in sorted(node_set):
        if node in seen:
            continue
        component = [node]
        seen.add(node)
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for neighbor in coupling.neighbors(current):
                if neighbor in node_set and neighbor not in seen:
                    seen.add(neighbor)
                    component.append(neighbor)
                    frontier.append(neighbor)
        components.append(component)
    return components


def physical_spanning_tree(
    coupling: CouplingGraph,
    positions: Sequence[int],
    root_position: int,
) -> Dict[int, int]:
    """BFS spanning tree ``child_position -> parent_position`` over
    ``positions`` (must induce a connected subgraph containing the root).

    Deterministic: neighbors are visited in ascending index order, so equal
    inputs always produce equal trees — which lets identical consecutive
    strings cancel through the peephole pass.
    """
    node_set = set(positions)
    if root_position not in node_set:
        raise ValueError("root must be one of the positions")
    parent: Dict[int, int] = {}
    seen = {root_position}
    frontier = [root_position]
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for neighbor in sorted(coupling.neighbors(node)):
                if neighbor in node_set and neighbor not in seen:
                    seen.add(neighbor)
                    parent[neighbor] = node
                    next_frontier.append(neighbor)
        frontier = next_frontier
    if len(seen) != len(node_set):
        raise ValueError("positions do not induce a connected subgraph")
    return parent


def emit_string_over_spanning_tree(
    tracker: SwapTracker,
    coupling: CouplingGraph,
    string,
    angle: float,
    anchors: Optional[Sequence[int]] = None,
) -> None:
    """SWAP the string's support into one component, then emit it over a
    BFS tree.

    Paulihedral's SWAP-centric mapping (:func:`connect_support`): the
    tree is rooted at the support position nearest ``anchors`` (physical
    positions; by default the support itself, i.e. its centre), with no
    root/leaf distinction.
    """
    layout = tracker.layout
    support = string.support
    if not support:
        return
    connect_support(tracker, coupling, support)
    positions = [layout.physical(q) for q in support]
    root = find_center(coupling, anchors or positions, candidates=positions)
    parent = physical_spanning_tree(coupling, positions, root)
    emit_exponential(
        tracker.circuit,
        [(string[q], p) for q, p in zip(support, positions)],
        [Gate(g.CX, edge) for edge in fan_in(parent, root)],
        root,
        angle,
    )
