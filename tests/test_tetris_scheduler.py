"""Tests for the shared block order and trial placement."""

import pytest

from repro.compiler.base import interaction_pairs
from repro.compiler.tetris import chain_order, lower_blocks
from repro.compiler.tetris.synthesis import place_block
from repro.hardware import ibm_ithaca_65
from repro.pauli import PauliBlock, PauliString
from repro.pauli.similarity import block_similarity
from repro.routing import greedy_interaction_layout


def sample_blocks():
    return [
        PauliBlock([PauliString("ZZZZII")], label="long"),          # active 4
        PauliBlock([PauliString("XZZIII"), PauliString("YZZIII")]),  # active 3
        PauliBlock([PauliString("IXZZZY"), PauliString("IYZZZX")]),  # active 5
        PauliBlock([PauliString("ZIIIII")]),                         # active 1
    ]


class TestLookaheadOrder:
    def test_starts_with_longest_active_length(self):
        order = list(chain_order(sample_blocks()))
        assert order[0] == 2  # active length 5

    def test_is_a_permutation(self):
        blocks = sample_blocks()
        order = list(chain_order(blocks, lookahead=2, cost=lambda i, cap: i))
        assert sorted(order) == list(range(len(blocks)))

    def test_empty(self):
        assert list(chain_order([])) == []


class TestSchedulers:
    def test_lookahead_scheduler_exhausts(self):
        blocks = sample_blocks()
        order = chain_order(blocks, lookahead=2, cost=lambda i, cap: 0)
        picked = [next(order) for _ in blocks]
        assert sorted(picked) == list(range(len(blocks)))
        with pytest.raises(StopIteration):
            next(order)

    def test_similarity_scheduler_chains_similar_blocks(self):
        blocks = sample_blocks()
        order = list(chain_order(blocks))
        for last, chosen in zip(order, order[1:]):
            later = order[order.index(chosen):]
            best = max(block_similarity(blocks[last], blocks[i]) for i in later)
            assert block_similarity(blocks[last], blocks[chosen]) == best

    def test_cost_function_is_used(self):
        blocks = sample_blocks()
        calls = []

        def cost(index, cap):
            calls.append((index, cap))
            return 0 if index == 1 else 1

        order = chain_order(blocks, lookahead=3, cost=cost)
        assert next(order) == 2
        assert calls == []  # the first block is chosen by active length
        # Block 0 is the most similar to block 2, but block 1 costs less;
        # candidates are scored in similarity rank with the incumbent's
        # cost as the cap, and a 0-cost incumbent ends the search.
        assert next(order) == 1
        assert calls == [(0, None), (1, 1)]

    def test_cost_sees_state_left_by_the_previous_block(self):
        blocks = sample_blocks()
        live = {"placed": 0}
        seen = []

        def cost(index, cap):
            seen.append(live["placed"])
            return index

        for _ in chain_order(blocks, lookahead=2, cost=cost):
            live["placed"] += 1
        assert seen and seen == sorted(seen) and seen[0] == 1

    def test_lone_candidate_is_not_scored(self):
        blocks = sample_blocks()
        calls = []
        order = list(
            chain_order(blocks, lookahead=1, cost=lambda i, cap: calls.append(i))
        )
        assert sorted(order) == list(range(len(blocks)))
        assert calls == []


class TestCostEstimates:
    def test_place_block_does_not_mutate_layout(self):
        from repro.chem import molecule_blocks

        blocks = molecule_blocks("LiH")[:5]
        irs = lower_blocks(blocks)
        coupling = ibm_ithaca_65()
        layout = greedy_interaction_layout(12, coupling, interaction_pairs(blocks))
        snapshot = dict(layout.physical_map())
        cost = place_block(irs[0], layout, coupling).num_swaps
        assert cost >= 0
        assert layout.physical_map() == snapshot
