"""The concrete passes every built-in pipeline is assembled from.

Layout/ordering/lowering analyses, the per-compiler synthesis
transformations (each compiler's driver loop), generic SWAP routing,
and the O3-style cleanup stages.  Each pass is independently registered in
:data:`repro.pipeline.registry.PASSES`, so custom spec strings
(``"order-similarity,synth-single-leaf,layout,route"``) can recombine
them freely.

Synthesis passes preserve the exact gate streams of the pre-pipeline
compilers — regression-pinned by ``tests/test_pipeline.py`` against
gate-sequence hashes recorded before the refactor.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..circuit import gate as g
from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import Gate
from ..compiler.base import interaction_pairs
from ..compiler.mapping_utils import SwapTracker, emit_string_over_spanning_tree
from ..compiler.tetris.scheduler import DEFAULT_LOOKAHEAD, chain_order
from ..compiler.tetris.synthesis import DEFAULT_SWAP_WEIGHT
from ..passes.consolidate import consolidate_one_qubit_runs
from ..passes.peephole import cancel_gates
from ..routing.bridging import (
    bridge_chain_gates,
    bridged_cnot_cost,
    swap_route_cost,
)
from ..routing.layout import greedy_interaction_layout
from ..routing.router import route_circuit, route_circuit_noise
from ..synthesis.chain import synthesize_chain
from ..synthesis.tree import emit_exponential
from .base import AnalysisPass, PipelineError, PropertySet, TransformationPass


# ---------------------------------------------------------------------------
# analysis passes
# ---------------------------------------------------------------------------

class InteractionLayoutPass(AnalysisPass):
    """Greedy interaction-graph placement of logical onto physical qubits.

    Provides ``layout`` (live) and ``initial_layout`` (frozen copy)."""

    name = "layout"

    def run(self, state: PropertySet) -> None:
        layout = greedy_interaction_layout(
            state["num_logical"],
            state["coupling"],
            interaction_pairs(state["blocks"]),
            allowed=state.get("allowed_qubits"),
        )
        state["layout"] = layout
        state["initial_layout"] = layout.copy()


class SelectQubitsPass(AnalysisPass):
    """Restrict compilation to the device's best-fidelity k-qubit region.

    Searches the coupling map for the connected ``size``-qubit subgraph
    with the lowest mean calibrated 2Q error ("compile for the best 20
    of 65 qubits") and records it as ``allowed_qubits``, which the
    layout passes honor.  ``size=0`` selects exactly ``num_logical``
    qubits.  Requires ``calibration`` (run a calibrated job, or pass
    ``calibration=`` to :meth:`PassManager.run`)."""

    name = "select-qubits"
    requires = ("calibration",)

    def __init__(self, size: int = 0) -> None:
        self.size = int(size)

    def run(self, state: PropertySet) -> None:
        from ..hardware.calibration import select_best_subgraph

        size = self.size or state["num_logical"]
        if size < state["num_logical"]:
            raise PipelineError(
                f"select-qubits: region of {size} qubits cannot hold "
                f"{state['num_logical']} logical qubits"
            )
        if size > state["coupling"].num_qubits:
            raise PipelineError(
                f"select-qubits: cannot select {size} qubits from a "
                f"{state['coupling'].num_qubits}-qubit device"
            )
        selected = select_best_subgraph(
            state["coupling"], state["calibration"], size
        )
        state["allowed_qubits"] = selected
        state["extra"]["selected_qubits"] = list(selected)


class NoiseAwareLayoutPass(AnalysisPass):
    """Greedy interaction layout over *noise* distance instead of hops.

    Same placement loop as ``layout``, but candidate costs come from the
    calibration's log-infidelity distance matrix, and the seed qubit is
    the best-connected/cleanest physical qubit — so heavy interactions
    land on high-fidelity couplers.  Honors ``allowed_qubits``."""

    name = "layout-noise"
    requires = ("calibration",)

    def run(self, state: PropertySet) -> None:
        calibration = state["calibration"]
        coupling = state["coupling"]
        allowed = state.get("allowed_qubits")
        allowed_set = None if allowed is None else frozenset(allowed)
        candidates = (
            range(coupling.num_qubits) if allowed_set is None
            else sorted(allowed_set)
        )

        def seed_quality(p: int):
            incident = [
                calibration.two_qubit_error(p, neighbor)
                for neighbor in coupling.neighbors(p)
                if allowed_set is None or neighbor in allowed_set
            ]
            mean = sum(incident) / len(incident) if incident else 1.0
            return (len(incident), -mean, -p)

        layout = greedy_interaction_layout(
            state["num_logical"],
            coupling,
            interaction_pairs(state["blocks"]),
            seed_qubit=max(candidates, key=seed_quality),
            allowed=allowed,
            distance=calibration.noise_distance_matrix(),
        )
        state["layout"] = layout
        state["initial_layout"] = layout.copy()


class LowerTetrisIRPass(AnalysisPass):
    """Lower Pauli blocks to Tetris IR (root/leaf split, Gray ordering).

    Provides ``ir_blocks``."""

    name = "lower-ir"

    def __init__(self, sort_strings: bool = True) -> None:
        self.sort_strings = sort_strings

    def run(self, state: PropertySet) -> None:
        from ..compiler.tetris.ir import lower_blocks

        state["ir_blocks"] = lower_blocks(
            state["blocks"], sort_strings=self.sort_strings
        )


class SimilarityOrderPass(AnalysisPass):
    """Greedy nearest-neighbour block chain over similarity (Eq. 1).

    The Paulihedral ordering stage: the shared block order
    (:func:`~repro.compiler.tetris.scheduler.chain_order`) without
    lookahead.  Provides ``block_order`` (also recorded in ``extra`` for
    replay verification)."""

    name = "order-similarity"

    def run(self, state: PropertySet) -> None:
        order = list(chain_order(state["blocks"]))
        state["block_order"] = order
        state["extra"]["block_order"] = order


class ExtractEdgesPass(AnalysisPass):
    """Validate the QAOA shape and extract ``(u, v, angle)`` ZZ terms.

    The 2QAN/Tetris-QAOA ordering front-end: the whole cost layer is
    validated as one packed :class:`~repro.pauli.table.PauliTable`
    (empty x bitplane, z weight 2 per row) and the edge endpoints fall
    out of its support plane.  Provides ``edges``."""

    name = "extract-edges"

    def run(self, state: PropertySet) -> None:
        from ..compiler.qaoa_2qan import extract_edges

        state["edges"] = extract_edges(state["blocks"])


# ---------------------------------------------------------------------------
# synthesis passes (one per compiler family)
# ---------------------------------------------------------------------------

class TetrisSynthesisPass(TransformationPass):
    """Tetris block scheduling + Algorithm-1 synthesis (paper Fig. 11).

    Schedule and synthesis are one pass because they are genuinely
    coupled: the lookahead scheduler trial-places each candidate block
    against the *live* layout that the previous block's synthesis just
    mutated.  Each trial's placement record is kept for the step, so
    synthesis replays the winner's instead of placing it again."""

    name = "synth-tetris"
    requires = ("ir_blocks", "layout")

    def __init__(
        self,
        swap_weight: float = DEFAULT_SWAP_WEIGHT,
        lookahead: int = DEFAULT_LOOKAHEAD,
    ) -> None:
        self.swap_weight = swap_weight
        self.lookahead = lookahead

    def run(self, state: PropertySet) -> None:
        from ..compiler.tetris.synthesis import place_block, synthesize_tetris_block

        coupling = state["coupling"]
        layout = state["layout"]
        ir_blocks = state["ir_blocks"]
        circuit = QuantumCircuit(coupling.num_qubits, name="tetris")
        tracker = SwapTracker(circuit, layout)
        # This step's trial placements, by block index.  Nothing moves
        # the live layout between the trials and the winner's synthesis,
        # and the winner's trial always ran to the end (the first
        # candidate has no cap; a later one wins only below it).
        placements = {}

        def trial_cost(index, cap):
            placement = place_block(
                ir_blocks[index],
                layout,
                coupling,
                swap_weight=self.swap_weight,
                cap=cap,
            )
            if placement is None:
                return cap
            placements[index] = placement
            return placement.num_swaps

        block_order = []
        # ``lookahead=0`` (Fig. 14's plain "Tetris") chains by similarity
        # alone, exactly as K=1 does.
        for index in chain_order(
            [ir.block for ir in ir_blocks],
            lookahead=self.lookahead,
            cost=trial_cost,
        ):
            block_order.append(index)
            synthesize_tetris_block(
                ir_blocks[index],
                tracker,
                coupling,
                swap_weight=self.swap_weight,
                placement=placements.get(index),
            )
            placements.clear()

        state["circuit"] = circuit
        state["num_swaps"] = state.get("num_swaps", 0) + tracker.num_swaps
        state["extra"]["block_order"] = block_order
        # The IR records its own permutation back to input-block indices,
        # so the replay annotation is a lookup, not a string-pool rebuild.
        state["extra"]["string_orders"] = [
            list(ir_blocks[i].string_order) for i in block_order
        ]


class SpanningTreeSynthesisPass(TransformationPass):
    """Paulihedral-style SWAP-centric per-string spanning-tree emission."""

    name = "synth-spanning-tree"
    requires = ("block_order", "layout")

    def __init__(self, sort_strings: bool = True) -> None:
        self.sort_strings = sort_strings

    def run(self, state: PropertySet) -> None:
        coupling = state["coupling"]
        blocks = state["blocks"]
        circuit = QuantumCircuit(coupling.num_qubits, name="paulihedral")
        tracker = SwapTracker(circuit, state["layout"])
        for index in state["block_order"]:
            block = blocks[index]
            pairs = list(zip(block.strings, block.weights))
            if self.sort_strings and block.pairwise_commuting():
                # lex_key() sorts identically to the character strings but
                # compares packed code words, never materializing chars.
                pairs.sort(key=lambda item: item[0].lex_key())
            for string, weight in pairs:
                emit_string_over_spanning_tree(
                    tracker, coupling, string, block.angle * weight
                )
        state["circuit"] = circuit
        state["num_swaps"] = state.get("num_swaps", 0) + tracker.num_swaps


class SingleLeafSynthesisPass(TransformationPass):
    """Hardware-oblivious single-leaf-tree logical synthesis (max-cancel).

    Produces a *logical* circuit; pair with ``layout`` + ``route``."""

    name = "synth-single-leaf"
    requires = ("block_order",)

    def __init__(self, sort_strings: bool = True) -> None:
        self.sort_strings = sort_strings

    def run(self, state: PropertySet) -> None:
        from ..compiler.max_cancel import max_cancel_logical_circuit

        blocks = state["blocks"]
        ordered = [blocks[index] for index in state["block_order"]]
        state["circuit"] = max_cancel_logical_circuit(
            ordered, sort_strings=self.sort_strings
        )


class ChainSynthesisPass(TransformationPass):
    """T|Ket>-style independent CNOT-ladder synthesis per Pauli string.

    Produces a *logical* circuit; pair with ``layout`` + ``route``."""

    name = "synth-chain"

    def run(self, state: PropertySet) -> None:
        logical = QuantumCircuit(state["num_logical"], name="tket-like")
        for block in state["blocks"]:
            for string, weight in zip(block.strings, block.weights):
                if not string.is_identity():
                    synthesize_chain(string, block.angle * weight, logical)
        state["circuit"] = logical


class CommutingScheduleSynthesisPass(TransformationPass):
    """2QAN-style commutation-aware greedy scheduling (QAOA cost layers).

    The one QAOA scheduling loop.  Cost-layer terms commute, so every
    edge whose endpoints are adjacent is emitted as soon as it is; then
    the closest distant edge gets the SWAP, next to one of its
    endpoints, that leaves the least total distance over the remaining
    edges.  Each term is a one-edge CNOT tree rooted at its target.
    ``include_wrappers`` adds the H layer in front and the RX mixer plus
    measurement behind."""

    name = "synth-2qan"
    requires = ("edges", "layout")
    #: Tetris' two Sec. V-C decisions, on in ``synth-qaoa-reuse``.
    bridging = False

    def __init__(self, include_wrappers: bool = False) -> None:
        self.include_wrappers = include_wrappers

    def run(self, state: PropertySet) -> None:
        coupling = state["coupling"]
        layout = state["layout"]
        edges = state["edges"]
        num_logical = state["num_logical"]
        circuit = QuantumCircuit(
            coupling.num_qubits,
            name="tetris-qaoa" if self.bridging else "2qan-like",
        )
        tracker = SwapTracker(circuit, layout)
        # Qubit reuse needs the measure+reset wrappers; without them a
        # finished qubit's slot cannot be certified |0>, so it stays
        # occupied.
        reuse = self.bridging and self.include_wrappers
        if self.include_wrappers:
            for logical in range(num_logical):
                circuit.h(layout.physical(logical))

        pending: Dict[int, Set[int]] = {q: set() for q in range(num_logical)}
        for index, (u, v, _) in enumerate(edges):
            pending[u].add(index)
            pending[v].add(index)
        remaining = list(range(len(edges)))
        bridge_overhead = 0
        distance = coupling.distance_matrix()

        def edge_distance(index: int) -> int:
            u, v, _ = edges[index]
            return int(distance[layout.physical(u), layout.physical(v)])

        def distance_after(swap: Tuple[int, int], indices: List[int]) -> int:
            layout.swap_physical(*swap)
            cost = sum(edge_distance(i) for i in indices)
            layout.swap_physical(*swap)
            return cost

        def finish(index: int, chain: List[Gate], root: int) -> None:
            emit_exponential(circuit, (), chain, root, edges[index][2])
            remaining.remove(index)
            for logical in edges[index][:2]:
                pending[logical].discard(index)
                if reuse and not pending[logical]:
                    physical = layout.physical(logical)
                    circuit.rx(0.3, physical)
                    circuit.measure(physical)
                    circuit.reset(physical)
                    layout.remove(logical)

        while remaining:
            progressed = True
            while progressed:
                progressed = False
                for index in list(remaining):
                    u, v, _ = edges[index]
                    pu, pv = layout.physical(u), layout.physical(v)
                    if coupling.are_connected(pu, pv):
                        finish(index, [Gate(g.CX, (pu, pv))], pv)
                        progressed = True
            if not remaining:
                break
            target = min(remaining, key=lambda i: (edge_distance(i), i))
            u, v, _ = edges[target]
            pu, pv = layout.physical(u), layout.physical(v)
            path = coupling.shortest_path(pu, pv)
            assert path is not None
            swaps = [(pu, path[1]), (pv, path[-2])]
            if self.bridging:
                # Bridges may detour through free |0> qubits: 2 CNOTs per
                # hop still beats a SWAP route (3 per hop) for modest
                # detours.  Lookahead: a SWAP that also shortens another
                # remaining edge wins over the bridge.
                occupied = {
                    node
                    for node in range(coupling.num_qubits)
                    if layout.is_occupied(node) and node not in (pu, pv)
                }
                bridge = coupling.shortest_path(pu, pv, blocked=occupied)
                others = [i for i in remaining if i != target]
                before = sum(edge_distance(i) for i in others)
                if (
                    bridge is not None
                    and bridged_cnot_cost(len(bridge) - 1)
                    <= swap_route_cost(len(path) - 1)
                    and not any(distance_after(s, others) < before for s in swaps)
                ):
                    # Endpoints stay put; the mirrored chain restores the
                    # ancillas.
                    finish(target, bridge_chain_gates(bridge), bridge[-1])
                    bridge_overhead += 2 * (len(bridge) - 2)
                    continue
            chosen = min(swaps, key=lambda s: (distance_after(s, remaining), s))
            tracker.swap(*chosen)

        if self.include_wrappers and not reuse:
            for logical in range(num_logical):
                physical = layout.physical(logical)
                circuit.rx(0.3, physical)
                circuit.measure(physical)

        state["circuit"] = circuit
        state["num_swaps"] = state.get("num_swaps", 0) + tracker.num_swaps
        state["bridge_overhead_cnots"] = (
            state.get("bridge_overhead_cnots", 0) + bridge_overhead
        )


class QAOABridgingSynthesisPass(CommutingScheduleSynthesisPass):
    """Tetris' QAOA path (paper Sec. V-C): ``synth-2qan`` plus its two
    decisions — bridge the closest distant edge through free |0> qubits
    unless a SWAP also shortens another remaining edge, and, with the
    wrappers, measure and reset each qubit once its last edge is done,
    so its slot becomes a bridge ancilla."""

    name = "synth-qaoa-reuse"
    bridging = True


# ---------------------------------------------------------------------------
# routing and cleanup passes
# ---------------------------------------------------------------------------

class SwapRoutePass(TransformationPass):
    """Generic SWAP routing of a logical circuit onto the device."""

    name = "route"
    requires = ("circuit", "layout")

    def run(self, state: PropertySet) -> None:
        routed = route_circuit(
            state["circuit"], state["coupling"], state["layout"]
        )
        state["circuit"] = routed.circuit
        state["initial_layout"] = routed.initial_layout
        state["layout"] = routed.final_layout
        state["num_swaps"] = state.get("num_swaps", 0) + routed.num_swaps


class NoiseAwareSwapRoutePass(TransformationPass):
    """SWAP routing scored by log-infidelity-weighted distance.

    Same sequential SABRE-style loop as ``route``, but SWAP chains
    follow the calibration's highest-fidelity paths instead of
    fewest-hop paths (:func:`repro.routing.router.route_circuit_noise`)."""

    name = "route-noise"
    requires = ("circuit", "layout", "calibration")

    def run(self, state: PropertySet) -> None:
        routed = route_circuit_noise(
            state["circuit"],
            state["coupling"],
            state["calibration"],
            state["layout"],
        )
        state["circuit"] = routed.circuit
        state["initial_layout"] = routed.initial_layout
        state["layout"] = routed.final_layout
        state["num_swaps"] = state.get("num_swaps", 0) + routed.num_swaps


class CancelLogicalPass(TransformationPass):
    """Pre-routing gate cancellation on the logical circuit (synthesis
    stage — T|Ket>-O2 / PCOAST style)."""

    name = "cancel-logical"
    requires = ("circuit",)

    def run(self, state: PropertySet) -> None:
        state["circuit"] = cancel_gates(state["circuit"])


class DecomposeSwapsPass(TransformationPass):
    """Decompose every SWAP into 3 CNOTs (idempotent; metric-neutral
    because all metrics already count SWAP as 3).

    The first cleanup pass, so it is where a synthesized gate list is
    encoded once onto a tape, symbolic angles included: the tail runs
    on tapes from here, for baked and parametric compiles alike."""

    name = "decompose-swaps"
    stage = "optimize"
    requires = ("circuit",)

    def run(self, state: PropertySet) -> None:
        state["circuit"] = QuantumCircuit.from_tape(
            state["circuit"].tape().decompose_swaps()
        )


class CancelGatesPass(TransformationPass):
    """Peephole gate cancellation to fixpoint (the Qiskit-O3 stand-in's
    cancellation stage)."""

    name = "cancel"
    stage = "optimize"
    requires = ("circuit",)

    def run(self, state: PropertySet) -> None:
        state["circuit"] = cancel_gates(state["circuit"])


class ConsolidatePass(TransformationPass):
    """Consolidate 1Q-gate runs into U3 (the O3 basis consolidation)."""

    name = "consolidate-1q"
    stage = "optimize"
    requires = ("circuit",)

    def run(self, state: PropertySet) -> None:
        state["circuit"] = consolidate_one_qubit_runs(state["circuit"])
