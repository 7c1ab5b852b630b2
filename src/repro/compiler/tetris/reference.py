"""Frozen scalar reference implementation of Tetris lowering and placement.

Verbatim pre-vectorization copies of the per-block Tetris-IR lowering
(:func:`lower_blocks_reference`: the Gray chain and the root/leaf split,
one block at a time) and of the trial-placement path — the artifact's
``try_block``, ``_place_block``, the ``find_center`` /
``cluster_qubits`` mapping helpers and the lookahead scheduling loop —
plus a driver (:func:`run_tetris_reference`) mirroring
``TetrisSynthesisPass.run``.  They are the "old" side of
``benchmarks/bench_passes.py``'s wall-clock cells and the oracle for
the differential tests.  Emission
(``_emit_uniform`` / ``_emit_per_string``) is imported from the live
module: it is not touched by the vectorization.  Do not optimize this
module.

Neither side bridges a block's leaf edges: a deferred leaf moves by
SWAPs once the rest of its block is placed.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ...circuit.circuit import QuantumCircuit
from ...hardware.coupling import CouplingGraph
from ...pauli.block import PauliBlock
from ...pauli.similarity import block_similarity_matrix
from ...routing.layout import Layout
from ..mapping_utils import SwapTracker, physical_spanning_tree
from .ir import TetrisBlockIR
from .synthesis import (
    DEFAULT_SWAP_WEIGHT,
    _BlockTree,
    _emit_per_string,
    _emit_uniform,
    _tree_edges_adjacent,
)

DEFAULT_LOOKAHEAD = 10


def _gray_order_reference(block: PauliBlock) -> list:
    """Greedy minimal-Hamming-distance chain over the block's strings.

    Adjacent strings that agree on more operators let more of the shared
    tree cancel between the mirrored fan-out and the next fan-in, so the
    ordering starts from the lexicographically smallest string and always
    appends the closest remaining string.  Distances come from one batch
    Hamming-matrix kernel over the block's bitplanes; lexicographic ranks
    (stable, so duplicates keep index order) replace per-comparison
    character tie-breaks.
    """
    table = block.table
    distance = table.hamming_matrix()
    rank = table.lex_ranks()
    remaining = list(range(len(block)))
    current = min(remaining, key=lambda i: rank[i])
    order = [current]
    remaining.remove(current)
    while remaining:
        row = distance[current]
        current = min(remaining, key=lambda i: (row[i], rank[i]))
        order.append(current)
        remaining.remove(current)
    return order


def _reordered_reference(block: PauliBlock, order: Sequence[int]) -> PauliBlock:
    """Return a block with strings permuted by ``order``."""
    return PauliBlock(
        [block.strings[i] for i in order],
        [block.weights[i] for i in order],
        angle=block.angle,
        label=block.label,
    )


def _lower_block_reference(block: PauliBlock, sort_strings: bool) -> TetrisBlockIR:
    """The per-block ``TetrisBlockIR`` constructor body."""
    self = TetrisBlockIR.__new__(TetrisBlockIR)
    # Reordering is only sound when the strings pairwise commute (always
    # true for UCCSD excitation blocks, not for arbitrary input).
    order = range(len(block))
    if sort_strings and len(block) > 1 and block.pairwise_commuting():
        order = _gray_order_reference(block)
        block = _reordered_reference(block, order)
    # IR string i is input-block string string_order[i].  Duplicate
    # strings resolve to ascending input indices (the Gray chain
    # tie-breaks equal distances on stable lexicographic rank).
    self.string_order = tuple(order)
    self.block = block
    leaf = block.common_qubits()
    support = block.support
    if len(block) == 1:
        # A single string has everything in common with itself; the
        # rotation still needs a root, so treat the support as root.
        leaf = frozenset()
    self.leaf_qubits = tuple(sorted(leaf))
    self.root_qubits = tuple(sorted(support - leaf))
    # Every per-string support is a subset of the block support, so the
    # supports are uniform iff every row weight equals the active length.
    self.uniform_support = bool(
        (block.table.weights() == len(support)).all()
    )
    return self


def lower_blocks_reference(
    blocks: Sequence[PauliBlock], sort_strings: bool = True
) -> List[TetrisBlockIR]:
    """Lower plain Pauli blocks into Tetris-IR, one block at a time."""
    return [_lower_block_reference(block, sort_strings) for block in blocks]


def find_center_reference(
    coupling: CouplingGraph,
    positions: Sequence[int],
    candidates: Optional[Iterable[int]] = None,
) -> int:
    """Physical node minimizing total distance to ``positions``."""
    distance = coupling.distance_matrix()
    pool = candidates if candidates is not None else range(coupling.num_qubits)
    return min(
        pool,
        key=lambda node: (
            sum(int(distance[node, p]) for p in positions),
            max((int(distance[node, p]) for p in positions), default=0),
            node,
        ),
    )


def cluster_qubits_reference(
    tracker: SwapTracker,
    coupling: CouplingGraph,
    logical_qubits: Sequence[int],
    center: int,
    avoid: Sequence[int] = (),
) -> List[int]:
    """Move ``logical_qubits`` until their positions induce a connected set."""
    layout = tracker.layout
    if not logical_qubits:
        return []
    distance = coupling.distance_matrix()
    remaining = list(logical_qubits)
    # Seed the cluster with the qubit closest to the requested centre.
    remaining.sort(key=lambda q: (int(distance[layout.physical(q)][center]), q))
    first = remaining.pop(0)
    cluster: Set[int] = {layout.physical(first)}

    while remaining:
        remaining.sort(
            key=lambda q: (
                min(int(distance[layout.physical(q)][c]) for c in cluster),
                q,
            )
        )
        mover = remaining.pop(0)
        position = layout.physical(mover)
        if any(coupling.are_connected(position, c) for c in cluster) or position in cluster:
            cluster.add(position)
            continue
        target = min(cluster, key=lambda c: (int(distance[position][c]), c))
        soft_avoid = {
            layout.physical(q) for q in avoid if q not in (mover,)
        }
        path = coupling.shortest_path(position, target, blocked=cluster | soft_avoid)
        if path is None:
            path = coupling.shortest_path(position, target, blocked=cluster)
        if path is None:
            path = coupling.shortest_path(position, target)
        assert path is not None, "coupling graph must be connected"
        # Stop one hop short: adjacency to the cluster is enough.
        tracker.move_along(path[:-1])
        cluster.add(layout.physical(mover))
    return [layout.physical(q) for q in logical_qubits]


def _move_adjacent_reference(
    tracker: SwapTracker,
    coupling: CouplingGraph,
    mapped: Sequence[int],
    mover: int,
    anchor: int,
    soft_avoid: Sequence[int] = (),
) -> None:
    """SWAP ``mover`` until adjacent to ``anchor`` (avoid mapped positions)."""
    layout = tracker.layout
    source = layout.physical(mover)
    target = layout.physical(anchor)
    blocked = {layout.physical(q) for q in mapped if q not in (mover, anchor)}
    soft = {
        layout.physical(q) for q in soft_avoid if q not in (mover, anchor)
    }
    path = coupling.shortest_path(source, target, blocked=blocked | soft)
    if path is None:
        path = coupling.shortest_path(source, target, blocked=blocked)
    if path is None:
        path = coupling.shortest_path(source, target)
    assert path is not None
    tracker.move_along(path[:-1])


def _place_block_reference(
    ir: TetrisBlockIR,
    tracker: SwapTracker,
    coupling: CouplingGraph,
    root_qubits: List[int],
    leaf_qubits: List[int],
    swap_weight: float,
) -> _BlockTree:
    layout = tracker.layout
    distance = coupling.distance_matrix()

    # 1. Cluster the root qubits around the centre (Algorithm 1 lines 4-8).
    positions = [layout.physical(q) for q in root_qubits]
    center = find_center_reference(coupling, positions)
    cluster_qubits_reference(tracker, coupling, root_qubits, center, avoid=leaf_qubits)

    position_of = {q: layout.physical(q) for q in root_qubits}
    logical_of = {p: q for q, p in position_of.items()}
    root_position = min(
        position_of.values(), key=lambda p: (int(distance[p, center]), p)
    )
    parent_physical = physical_spanning_tree(
        coupling, list(position_of.values()), root_position
    )
    parent = {logical_of[c]: logical_of[p] for c, p in parent_physical.items()}
    tree = _BlockTree(
        root=logical_of[root_position],
        parent=parent,
        root_set=set(root_qubits),
        leaf_set=set(leaf_qubits),
    )

    # 2. Attach leaf qubits by score (Algorithm 1 lines 9-14).
    num_ps = ir.num_strings
    mapped: List[int] = list(root_qubits)
    deferred: List[Tuple[int, int]] = []
    unmapped = sorted(leaf_qubits)
    while unmapped:
        best: Optional[Tuple[float, int, int]] = None
        for candidate in unmapped:
            candidate_position = layout.physical(candidate)
            for anchor in mapped:
                anchor_position = layout.physical(anchor)
                hops = int(distance[candidate_position, anchor_position])
                attach_cost = 2 * num_ps if anchor in tree.root_set else 2
                score = (hops - 1) * swap_weight + attach_cost
                key = (score, candidate, anchor)
                if best is None or key < best:
                    best = key
        assert best is not None
        _, chosen, anchor = best
        unmapped.remove(chosen)
        tree.parent[chosen] = anchor
        mapped.append(chosen)

        chosen_position = layout.physical(chosen)
        anchor_position = layout.physical(anchor)
        if coupling.are_connected(chosen_position, anchor_position):
            continue
        blocked = {layout.physical(q) for q in mapped if q not in (chosen, anchor)}
        swap_path = coupling.shortest_path(
            chosen_position, anchor_position, blocked=blocked
        )
        if anchor not in tree.root_set and swap_path is None:
            # Swapping would displace already-mapped tree qubits: move
            # this leaf once the rest of the block is placed.
            deferred.append((chosen, anchor))
            continue
        _move_adjacent_reference(
            tracker, coupling, mapped, chosen, anchor, soft_avoid=unmapped
        )

    # 3. SWAP the deferred leaves next to their anchors.
    for chosen, anchor in deferred:
        chosen_position = layout.physical(chosen)
        anchor_position = layout.physical(anchor)
        if coupling.are_connected(chosen_position, anchor_position):
            continue
        _move_adjacent_reference(tracker, coupling, mapped, chosen, anchor)

    return tree


def try_block_reference(
    ir: TetrisBlockIR,
    layout,
    coupling: CouplingGraph,
    swap_weight: float = DEFAULT_SWAP_WEIGHT,
) -> int:
    """Trial placement of a block on a layout copy; returns the SWAP count."""
    scratch_layout = layout.copy()
    scratch = SwapTracker(QuantumCircuit(coupling.num_qubits), scratch_layout)
    root_qubits = list(ir.root_qubits)
    leaf_qubits = list(ir.leaf_qubits)
    if not root_qubits:
        root_qubits = [leaf_qubits.pop()]
    _place_block_reference(
        ir, scratch, coupling, root_qubits, leaf_qubits, swap_weight
    )
    return scratch.num_swaps


def synthesize_tetris_block_reference(
    ir: TetrisBlockIR,
    tracker: SwapTracker,
    coupling: CouplingGraph,
    swap_weight: float = DEFAULT_SWAP_WEIGHT,
) -> None:
    """Synthesize one Tetris block into ``tracker.circuit``."""
    layout = tracker.layout

    root_qubits = list(ir.root_qubits)
    leaf_qubits = list(ir.leaf_qubits)
    if not root_qubits:
        # Degenerate block (all strings identical): promote one leaf to root.
        root_qubits = [leaf_qubits.pop()]

    tree = _place_block_reference(
        ir, tracker, coupling, root_qubits, leaf_qubits, swap_weight
    )
    if ir.uniform_support and _tree_edges_adjacent(tree, layout, coupling):
        _emit_uniform(ir, tracker, tree)
    else:
        _emit_per_string(ir, tracker, coupling, tree)


class _LookaheadSchedulerReference:
    """Verbatim copy of the pre-vectorization ``LookaheadScheduler``."""

    def __init__(
        self,
        blocks: Sequence[TetrisBlockIR],
        lookahead: int = DEFAULT_LOOKAHEAD,
        cost_of=None,
    ) -> None:
        self.blocks = list(blocks)
        self.lookahead = max(1, lookahead)
        self.cost_of = cost_of
        self._similarity = block_similarity_matrix([ir.block for ir in self.blocks])
        self._remaining = list(range(len(self.blocks)))
        self._last: Optional[int] = None

    def __bool__(self) -> bool:
        return bool(self._remaining)

    def pick_next(self, layout: Layout, coupling: CouplingGraph) -> TetrisBlockIR:
        if not self._remaining:
            raise IndexError("all blocks scheduled")
        if self._last is None:
            choice = max(
                self._remaining,
                key=lambda i: (self.blocks[i].active_length, -i),
            )
        else:
            last_row = self._similarity[self._last]
            ranked = sorted(
                self._remaining, key=lambda i: (-last_row[i], i)
            )
            candidates = ranked[: self.lookahead]
            # Tie-break equal SWAP cost by similarity rank (candidates are
            # already in descending-similarity order).
            choice = min(
                enumerate(candidates),
                key=lambda pair: (self.cost_of(self.blocks[pair[1]], layout), pair[0]),
            )[1]
        self._remaining.remove(choice)
        self._last = choice
        return self.blocks[choice]


def run_tetris_reference(
    ir_blocks: Sequence[TetrisBlockIR],
    layout: Layout,
    coupling: CouplingGraph,
    swap_weight: float = DEFAULT_SWAP_WEIGHT,
    lookahead: int = DEFAULT_LOOKAHEAD,
) -> Tuple[QuantumCircuit, int, List[int]]:
    """The pre-vectorization ``TetrisSynthesisPass.run`` loop.

    Mutates ``layout`` in place (pass a copy) and returns
    ``(circuit, num_swaps, block_order)``.
    """
    circuit = QuantumCircuit(coupling.num_qubits, name="tetris")
    tracker = SwapTracker(circuit, layout)

    def trial_cost(candidate, live_layout):
        return try_block_reference(
            candidate,
            live_layout,
            coupling,
            swap_weight=swap_weight,
        )

    scheduler = _LookaheadSchedulerReference(
        ir_blocks, lookahead=lookahead, cost_of=trial_cost
    )
    index_of = {id(ir): position for position, ir in enumerate(ir_blocks)}
    block_order: List[int] = []
    while scheduler:
        ir = scheduler.pick_next(layout, coupling)
        block_order.append(index_of[id(ir)])
        synthesize_tetris_block_reference(
            ir,
            tracker,
            coupling,
            swap_weight=swap_weight,
        )
    return circuit, tracker.num_swaps, block_order
