"""Tetris block synthesis with respect to hardware (paper Algorithm 1).

For each Tetris block:

1. *Root clustering* — find a centre node among the root-tree qubits'
   positions and SWAP them into a connected cluster around it.
2. *Leaf attachment* — attach leaf-tree qubits one at a time, each to the
   mapped qubit minimizing the paper's score
   ``score(qn, qm, w) = (d - 1) * w + (2 * #ps if qm is a root qubit else 2)``,
   inserting SWAPs along a shortest path that avoids already-mapped qubits.
3. *Deferred leaves* — a leaf attached to another leaf, with no SWAP path
   that avoids the block's mapped qubits, is SWAPped next to its anchor
   once the rest of the block is placed.
4. *Emission* — with uniform string support, the leaf forest is emitted once
   per block (fan-in at the start, fan-out at the end) so every interior
   leaf CNOT pair cancels structurally; per-string sections carry only the
   root tree, the leaf->root connector CNOTs and the RZ.  With non-uniform
   support (common under Bravyi-Kitaev), strings are emitted individually
   over deterministic BFS trees so the peephole pass can still cancel
   matching neighbours.

Every tree edge is one CNOT on a coupled pair: Tetris blocks do not use
the paper's fast bridging (Sec. IV-C), which only the QAOA pass
``synth-qaoa-reuse`` emits, through :mod:`repro.routing.bridging`.  A
placement therefore reads only the positions of its own block's qubits.

Steps 1-3 run in :func:`place_block`, on a copy of the layout: the
lookahead scheduler calls it for each candidate it trial-places, and
the result records everything synthesis needs.
:func:`synthesize_tetris_block` replays the winner's SWAPs onto the live
tracker and emits, so a scheduled block is not placed again; it places
the block itself only when the scheduler ran no trial for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple


from ...circuit import gate as g
from ...circuit.gate import Gate
from ...hardware.coupling import CouplingGraph
from ...pauli.operators import I
from ...synthesis.basis_change import post_rotation_gates, pre_rotation_gates
from ...synthesis.tree import emit_exponential, fan_in
from ..mapping_utils import (
    SwapTracker,
    cluster_qubits,
    emit_string_over_spanning_tree,
    find_center,
    physical_spanning_tree,
)
from .ir import TetrisBlockIR

DEFAULT_SWAP_WEIGHT = 3.0


class _CapReached(Exception):
    """A trial placement hit the incumbent's SWAP count."""


class _TrialTracker(SwapTracker):
    """Records a placement's SWAPs on a scratch layout.

    Emits no gates: synthesis replays the recorded SWAPs onto the live
    tracker.  Aborts the placement once the SWAP count reaches ``cap``:
    the count is monotone, so a trial at the incumbent's cost can no
    longer win the scheduler's strictly-smaller comparison and its tail
    is wasted work.
    """

    def __init__(self, layout, cap: Optional[int]) -> None:
        super().__init__(None, layout)
        self.cap = cap
        self.swaps: List[Tuple[int, int]] = []

    def swap(self, physical_a: int, physical_b: int) -> None:
        count = self.num_swaps + 1
        if self.cap is not None and count >= self.cap:
            raise _CapReached
        self.num_swaps = count
        self.swaps.append((physical_a, physical_b))
        self.layout.swap_physical(physical_a, physical_b)


@dataclass
class Placement:
    """Algorithm 1's placement of one block, as synthesis replays it."""

    #: The SWAPs, as physical pairs in the order they were made.
    swaps: List[Tuple[int, int]]
    #: ``findCenter``'s node, which roots the root spanning tree (None
    #: for an all-identity block, which places and emits nothing).
    center: Optional[int]
    #: The root qubits' positions right after clustering, in
    #: :func:`_split_qubits` order.
    root_positions: List[int]
    #: Leaf qubit -> the mapped qubit it was attached to, in attachment
    #: order.
    attachments: Dict[int, int]

    @property
    def num_swaps(self) -> int:
        return len(self.swaps)


def _split_qubits(ir: TetrisBlockIR) -> Tuple[List[int], List[int]]:
    """The block's root and leaf qubits, placement's working lists."""
    root_qubits = list(ir.root_qubits)
    leaf_qubits = list(ir.leaf_qubits)
    if not root_qubits and leaf_qubits:
        # Degenerate block (all strings identical): promote one leaf to root.
        root_qubits = [leaf_qubits.pop()]
    return root_qubits, leaf_qubits


def place_block(
    ir: TetrisBlockIR,
    layout,
    coupling: CouplingGraph,
    swap_weight: float = DEFAULT_SWAP_WEIGHT,
    cap: Optional[int] = None,
) -> Optional[Placement]:
    """Run the placement half of Algorithm 1 on a *copy* of ``layout``.

    Returns the :class:`Placement` record (its SWAPs, the centre, the
    root positions after clustering and the leaf attachments), or None
    once the SWAP count reaches ``cap`` (the scheduler's incumbent
    cost): such a trial can no longer win.  ``layout`` is left as it
    was.  An all-identity block places nothing: its record is empty and
    its trial costs 0.
    """
    root_qubits, leaf_qubits = _split_qubits(ir)
    if not root_qubits:
        # An all-identity block is a global phase: nothing to place.
        return Placement([], center=None, root_positions=[], attachments={})
    tracker = _TrialTracker(layout.copy(), cap)
    try:
        return _place_block(
            ir, tracker, coupling, root_qubits, leaf_qubits, swap_weight
        )
    except _CapReached:
        return None


def synthesize_tetris_block(
    ir: TetrisBlockIR,
    tracker: SwapTracker,
    coupling: CouplingGraph,
    swap_weight: float = DEFAULT_SWAP_WEIGHT,
    placement: Optional[Placement] = None,
) -> None:
    """Synthesize one Tetris block into ``tracker.circuit``.

    ``placement`` is the block's :func:`place_block` record against
    ``tracker.layout`` as it stands (the scheduler's winning trial);
    without one the block is placed here.  The record's SWAPs are
    replayed onto ``tracker``, which emits them and leaves the layout
    the placement left, and the root spanning tree is built from the
    recorded root positions and centre.
    """
    layout = tracker.layout
    if placement is None:
        placement = place_block(ir, layout, coupling, swap_weight)
    if placement.center is None:
        # An all-identity block: a global phase, nothing to emit.
        return
    for physical_a, physical_b in placement.swaps:
        tracker.swap(physical_a, physical_b)

    tree = _block_tree(ir, placement, coupling)
    if ir.uniform_support and _tree_edges_adjacent(tree, layout, coupling):
        _emit_uniform(ir, tracker, tree)
    else:
        # Rare placement fallback (or non-uniform support, common under BK):
        # emit string by string with deterministic trees.
        _emit_per_string(ir, tracker, coupling, tree)


# ---------------------------------------------------------------------------
# placement


@dataclass
class _BlockTree:
    """The logical tree over a block's qubits."""

    root: int
    parent: Dict[int, int]
    root_set: Set[int]
    leaf_set: Set[int]


def _place_block(
    ir: TetrisBlockIR,
    tracker: _TrialTracker,
    coupling: CouplingGraph,
    root_qubits: List[int],
    leaf_qubits: List[int],
    swap_weight: float,
) -> Placement:
    layout = tracker.layout
    rows = coupling.distance_rows()
    phys = layout.physical_map()

    # 1. Cluster the root qubits around the centre (Algorithm 1 lines 4-8),
    # routing around this block's leaf qubits so their arrangement (and the
    # inter-block cancellation it enables, Sec. V-B) survives.
    positions = [phys[q] for q in root_qubits]
    center = find_center(coupling, positions)
    cluster_qubits(tracker, coupling, root_qubits, center, avoid=leaf_qubits)
    root_positions = [phys[q] for q in root_qubits]
    root_set = set(root_qubits)
    attachments: Dict[int, int] = {}

    # 2. Attach leaf qubits by score (Algorithm 1 lines 9-14).  Candidate
    # and anchor sets are tiny, so the exact (score, candidate, anchor)
    # minimum reduces to integer-list loops over the cached distance rows.
    # A candidate's per-anchor scores only change when its own position or
    # an anchor's position moves (both detectable by comparing positions),
    # so each round a cached per-candidate best is merely challenged by
    # the one anchor added last round; strictly-smaller updates keep the
    # earliest candidate on score ties, matching the reference ordering.
    num_ps = ir.num_strings
    mapped: List[int] = list(root_qubits)
    attach_costs: List[int] = [
        2 * num_ps if anchor in root_set else 2 for anchor in mapped
    ]
    deferred: List[Tuple[int, int]] = []
    unmapped = sorted(leaf_qubits)
    best_cache: Dict[int, Tuple[float, int]] = {}
    cached_pos: Dict[int, int] = {}
    prev_anchor_positions: List[int] = []
    while unmapped:
        anchor_positions = [phys[q] for q in mapped]
        # Fallback moves can displace mapped qubits: every cached best is
        # stale then, not just the movers'.
        stale_all = (
            anchor_positions[: len(prev_anchor_positions)]
            != prev_anchor_positions
        )
        new_slots = range(len(prev_anchor_positions), len(mapped))
        for candidate in unmapped:
            position = phys[candidate]
            row = rows[position]
            if (
                stale_all
                or candidate not in best_cache
                or cached_pos[candidate] != position
            ):
                score_best = None
                anchor_best = -1
                for slot, anchor_position in enumerate(anchor_positions):
                    score = (
                        (row[anchor_position] - 1) * swap_weight
                        + attach_costs[slot]
                    )
                    if score_best is None or score < score_best:
                        score_best = score
                        anchor_best = mapped[slot]
                    elif score == score_best and mapped[slot] < anchor_best:
                        anchor_best = mapped[slot]
                best_cache[candidate] = (score_best, anchor_best)
                cached_pos[candidate] = position
            else:
                score_best, anchor_best = best_cache[candidate]
                for slot in new_slots:
                    score = (
                        (row[anchor_positions[slot]] - 1) * swap_weight
                        + attach_costs[slot]
                    )
                    if score < score_best:
                        score_best = score
                        anchor_best = mapped[slot]
                    elif score == score_best and mapped[slot] < anchor_best:
                        anchor_best = mapped[slot]
                best_cache[candidate] = (score_best, anchor_best)
        best_row = 0
        best_score, anchor = best_cache[unmapped[0]]
        for index in range(1, len(unmapped)):
            score, slot_anchor = best_cache[unmapped[index]]
            if score < best_score:
                best_score = score
                anchor = slot_anchor
                best_row = index
        chosen = unmapped.pop(best_row)
        del best_cache[chosen]
        prev_anchor_positions = anchor_positions
        attachments[chosen] = anchor
        mapped.append(chosen)
        attach_costs.append(2)

        chosen_position = phys[chosen]
        anchor_position = phys[anchor]
        if coupling.are_connected(chosen_position, anchor_position):
            continue
        if anchor not in root_set:
            blocked = {
                phys[q] for q in mapped if q not in (chosen, anchor)
            }
            swap_path = coupling.shortest_path(
                chosen_position, anchor_position, blocked=blocked
            )
            if swap_path is None:
                # Swapping would displace already-mapped tree qubits:
                # move this leaf once the rest of the block is placed.
                deferred.append((chosen, anchor))
                continue
        _move_adjacent(tracker, coupling, mapped, chosen, anchor, soft_avoid=unmapped)

    # 3. SWAP the deferred leaves next to their anchors.
    _attach_deferred(tracker, coupling, mapped, deferred)

    return Placement(
        swaps=tracker.swaps,
        center=center,
        root_positions=root_positions,
        attachments=attachments,
    )


def _block_tree(
    ir: TetrisBlockIR, placement: Placement, coupling: CouplingGraph
) -> _BlockTree:
    """The block's logical tree: the root spanning tree over the root
    positions after clustering (rooted nearest the centre), then the
    leaf attachments.  The spanning tree is a pure function of those
    positions and the centre, so it is built from the record."""
    root_qubits, leaf_qubits = _split_qubits(ir)
    rows = coupling.distance_rows()
    center = placement.center
    logical_of = dict(zip(placement.root_positions, root_qubits))
    root_position = min(
        placement.root_positions, key=lambda p: (rows[p][center], p)
    )
    parent_physical = physical_spanning_tree(
        coupling, placement.root_positions, root_position
    )
    parent = {logical_of[c]: logical_of[p] for c, p in parent_physical.items()}
    parent.update(placement.attachments)
    return _BlockTree(
        root=logical_of[root_position],
        parent=parent,
        root_set=set(root_qubits),
        leaf_set=set(leaf_qubits),
    )


def _move_adjacent(
    tracker: SwapTracker,
    coupling: CouplingGraph,
    mapped: Sequence[int],
    mover: int,
    anchor: int,
    soft_avoid: Sequence[int] = (),
) -> None:
    """SWAP ``mover`` until adjacent to ``anchor`` (avoid mapped positions).

    ``soft_avoid`` positions (e.g. not-yet-attached leaf qubits) are routed
    around when a path exists, so their arrangement is preserved.
    """
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


def _attach_deferred(
    tracker: SwapTracker,
    coupling: CouplingGraph,
    mapped: Sequence[int],
    deferred: Sequence[Tuple[int, int]],
) -> None:
    """SWAP each deferred ``(leaf, anchor)`` pair adjacent, in deferral
    order, once the rest of the block is placed."""
    layout = tracker.layout
    for leaf, anchor in deferred:
        if not coupling.are_connected(
            layout.physical(leaf), layout.physical(anchor)
        ):
            _move_adjacent(tracker, coupling, mapped, leaf, anchor)


def _tree_edges_adjacent(tree: "_BlockTree", layout, coupling: CouplingGraph) -> bool:
    """True iff every tree edge sits on a coupled pair."""
    for child, parent in tree.parent.items():
        if not coupling.are_connected(layout.physical(child), layout.physical(parent)):
            return False
    return True


# ---------------------------------------------------------------------------
# emission


def _emit_uniform(
    ir: TetrisBlockIR,
    tracker: SwapTracker,
    tree: _BlockTree,
) -> None:
    circuit = tracker.circuit
    layout = tracker.layout
    first = ir.strings[0]

    # The leaf forest (leaf -> leaf edges) is fanned in once per block;
    # the connectors (leaf -> root) and the root tree are fanned in per
    # string.  The layout is fixed throughout emission, so both CNOT
    # lists are built once.
    prologue_gates: List[Gate] = []
    body: List[Gate] = []
    for child, parent in fan_in(tree.parent, tree.root):
        cx = Gate(g.CX, (layout.physical(child), layout.physical(parent)))
        if child in tree.leaf_set and parent in tree.leaf_set:
            prologue_gates.append(cx)
        else:
            body.append(cx)

    # Block prologue: leaf basis changes + leaf-forest fan-in (emitted once).
    for qubit in sorted(tree.leaf_set):
        circuit.extend(pre_rotation_gates(first[qubit], layout.physical(qubit)))
    circuit.extend(prologue_gates)

    # Per-string sections: root basis + connectors + root tree + RZ + mirror.
    root_position = layout.physical(tree.root)
    root_positions = [(q, layout.physical(q)) for q in sorted(tree.root_set)]
    for string, weight in zip(ir.strings, ir.weights):
        ops = [(string[q], p) for q, p in root_positions if string[q] != I]
        emit_exponential(circuit, ops, body, root_position, ir.angle * weight)

    # Block epilogue: mirrored leaf forest + leaf basis restoration.
    circuit.extend(reversed(prologue_gates))
    for qubit in sorted(tree.leaf_set):
        circuit.extend(post_rotation_gates(first[qubit], layout.physical(qubit)))


def _emit_per_string(
    ir: TetrisBlockIR,
    tracker: SwapTracker,
    coupling: CouplingGraph,
    tree: _BlockTree,
) -> None:
    """Non-uniform support: deterministic per-string trees (BK fallback).

    Each string's support is SWAPped into one connected component and
    emitted over its own BFS tree, rooted nearest the block root's
    position before the first string."""
    anchors = [tracker.layout.physical(tree.root)]
    for string, weight in zip(ir.strings, ir.weights):
        emit_string_over_spanning_tree(
            tracker, coupling, string, ir.angle * weight, anchors=anchors
        )
