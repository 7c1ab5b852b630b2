"""The batch kernels over a workload's stacked block bitplanes.

Tetris-IR lowering (:func:`repro.compiler.tetris.ir.lower_blocks`), the
Eq. (1) leaf table, the logical gate counts and the block order's first
pick read one stack of every string's packed words
(:func:`repro.pauli.block.block_planes`).  Each is pinned here against
the per-block or per-string loop it replaced: the frozen
:func:`~repro.compiler.tetris.reference.lower_blocks_reference`, the
blocks' own ``common_substring`` rows, the per-string counts in
``helpers`` and a ``max`` over ``PauliBlock.active_length``.  Every registered workload is compared at smoke and small
scale under both encoders, and hypothesis draws block lists mixing
string counts 1-9, widths 1-130 (several words), duplicate and identity
rows, non-commuting blocks and symbolic angles.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.circuit import Parameter
from repro.compiler import logical_cnot_count, logical_one_qubit_count
from repro.compiler.tetris.ir import TetrisBlockIR, lower_blocks
from repro.compiler.tetris.reference import lower_blocks_reference
from repro.compiler.tetris.scheduler import _longest_block, chain_order
from repro.pauli import PauliBlock, PauliString, PauliTable
from repro.pauli.similarity import leaf_table
from repro.workloads import WORKLOADS, workload_blocks

from helpers import (
    logical_cnot_count_reference,
    logical_one_qubit_count_reference,
)


def fresh(blocks):
    """Copies without a cached table, as a workload build returns them."""
    return [
        PauliBlock(b.strings, b.weights, angle=b.angle, label=b.label)
        for b in blocks
    ]


def assert_lowering_matches(blocks, sort_strings=True):
    """Lower fresh copies of ``blocks`` with the kernel and with the
    frozen per-block loop, and compare every IR field."""
    inputs, reference_inputs = fresh(blocks), fresh(blocks)
    live = lower_blocks(inputs, sort_strings=sort_strings)
    reference = lower_blocks_reference(reference_inputs, sort_strings)
    assert len(live) == len(reference) == len(blocks)
    for new, old, block, reference_block in zip(
        live, reference, inputs, reference_inputs
    ):
        assert isinstance(new, TetrisBlockIR)
        assert new.string_order == old.string_order
        assert all(type(i) is int for i in new.string_order)
        assert [s.ops for s in new.strings] == [s.ops for s in old.strings]
        assert new.weights == old.weights
        assert new.angle == old.angle
        assert type(new.angle) is type(old.angle)
        assert new.block.label == old.block.label
        assert new.leaf_qubits == old.leaf_qubits
        assert new.root_qubits == old.root_qubits
        assert new.uniform_support is old.uniform_support
        # An unsorted block stays the input object, as before.
        assert (new.block is block) == (old.block is reference_block)
        # The IR block's table holds its strings' words, in IR order.
        table = new.block.table
        assert np.array_equal(
            table.x, np.stack([s.xz_words()[0] for s in new.strings])
        )
        assert np.array_equal(
            table.z, np.stack([s.xz_words()[1] for s in new.strings])
        )


def first_pick_reference(blocks):
    """The longest block by active length, the lowest index on ties."""
    return max(
        range(len(blocks)), key=lambda i: (blocks[i].active_length, -i)
    )


def registered_cells():
    for provider in WORKLOADS.names():
        entry = WORKLOADS.get(provider)
        encoders = ("JW", "BK") if entry.uses_encoder else ("JW",)
        for instance in entry.instance_names():
            for scale in ("smoke", "small"):
                for encoder in encoders:
                    yield f"{provider}:{instance}", encoder, scale


REGISTERED = list(registered_cells())


@pytest.mark.parametrize(
    "spec,encoder,scale", REGISTERED,
    ids=["-".join(cell) for cell in REGISTERED],
)
class TestRegisteredWorkloads:
    def test_lowering_matches_reference(self, spec, encoder, scale):
        blocks = workload_blocks(spec, encoder, scale)
        for sort_strings in (True, False):
            assert_lowering_matches(blocks, sort_strings)

    def test_stack_readers_match_loops(self, spec, encoder, scale):
        blocks = workload_blocks(spec, encoder, scale)
        assert_leaf_table_matches(fresh(blocks))
        assert logical_cnot_count(fresh(blocks)) == (
            logical_cnot_count_reference(blocks)
        )
        assert logical_one_qubit_count(fresh(blocks)) == (
            logical_one_qubit_count_reference(blocks)
        )
        # No registered workload carries an identity string (a global
        # phase that every compiler now skips), so no pinned gate
        # sequence depends on how one is treated.
        assert all(
            not string.is_identity() for block in blocks for string in block
        )

    def test_first_pick_matches_active_lengths(self, spec, encoder, scale):
        blocks = workload_blocks(spec, encoder, scale)
        assert next(chain_order(fresh(blocks))) == first_pick_reference(blocks)


def assert_leaf_table_matches(blocks):
    expected = PauliTable.from_strings(
        [block.common_substring() for block in blocks]
    )
    table = leaf_table(blocks)
    assert table.num_qubits == expected.num_qubits
    assert np.array_equal(table.x, expected.x)
    assert np.array_equal(table.z, expected.z)


def commuting_strings(rng, width, count):
    """``count`` pairwise-commuting strings: shared operators off a small
    root set, and X/Y on the root set with an even number of Ys (two
    such strings differ, X against Y, in an even number of places)."""
    base = rng.choice(list("IXYZ"), size=width)
    root = rng.choice(width, size=min(width, int(rng.integers(1, 5))), replace=False)
    strings = []
    for _ in range(count):
        ops = base.copy()
        ys = rng.integers(0, 2, size=len(root))
        ys[0] = ys[1:].sum() % 2
        ops[root] = np.where(ys == 1, "Y", "X")
        strings.append("".join(ops))
    return strings


def random_block(rng, width, count, kind, angle):
    if kind == "random":
        labels = ["".join(rng.choice(list("IXYZ"), size=width)) for _ in range(count)]
    elif kind == "diagonal":
        labels = ["".join(rng.choice(list("IZ"), size=width)) for _ in range(count)]
    elif kind == "identity":
        labels = ["I" * width] * count
    else:
        labels = commuting_strings(rng, width, count)
    if kind != "identity" and count > 1 and rng.integers(2):
        # A duplicate row, and sometimes an identity row, which commutes
        # with everything.
        labels[int(rng.integers(count))] = labels[int(rng.integers(count))]
        if rng.integers(2):
            labels[int(rng.integers(count))] = "I" * width
    weights = rng.normal(size=count).round(3).tolist()
    return PauliBlock(
        [PauliString(label) for label in labels], weights, angle=angle,
        label=f"{kind}/{count}",
    )


@st.composite
def block_lists(draw):
    width = draw(st.integers(1, 130))
    seed = draw(st.integers(0, 2**32 - 1))
    specs = draw(st.lists(
        st.tuples(
            st.integers(1, 9),
            st.sampled_from(["commuting", "diagonal", "random", "identity"]),
            st.booleans(),
        ),
        min_size=1, max_size=8,
    ))
    rng = np.random.default_rng(seed)
    theta = Parameter("theta")
    return [
        random_block(
            rng, width, count, kind, theta * 0.5 if symbolic else float(index)
        )
        for index, (count, kind, symbolic) in enumerate(specs)
    ]


class TestRandomBlockLists:
    @settings(max_examples=60, deadline=None)
    @given(block_lists(), st.booleans())
    def test_lowering_matches_reference(self, blocks, sort_strings):
        assert_lowering_matches(blocks, sort_strings)

    @settings(max_examples=60, deadline=None)
    @given(block_lists())
    def test_stack_readers_match_loops(self, blocks):
        assert_leaf_table_matches(fresh(blocks))
        assert logical_cnot_count(fresh(blocks)) == (
            logical_cnot_count_reference(blocks)
        )
        assert logical_one_qubit_count(fresh(blocks)) == (
            logical_one_qubit_count_reference(blocks)
        )

    @settings(max_examples=60, deadline=None)
    @given(block_lists())
    def test_first_pick_matches_active_lengths(self, blocks):
        assert next(chain_order(fresh(blocks))) == first_pick_reference(blocks)

    @settings(max_examples=30, deadline=None)
    @given(block_lists(), block_lists())
    def test_mixed_widths(self, first, second):
        # Per-block lowering and the counts never needed equal widths:
        # the stack zero-pads the narrower blocks.
        blocks = first + second
        assert_lowering_matches(blocks)
        # The block order reads Eq. (1) similarities, which need one
        # width; its first pick does not.
        assert _longest_block(fresh(blocks)) == first_pick_reference(blocks)
        assert logical_cnot_count(fresh(blocks)) == (
            logical_cnot_count_reference(blocks)
        )
        assert logical_one_qubit_count(fresh(blocks)) == (
            logical_one_qubit_count_reference(blocks)
        )


class TestStack:
    def test_lowering_fills_input_tables(self):
        blocks = fresh(workload_blocks("ucc:UCC-8", "JW", "smoke"))
        lower_blocks(blocks)
        for block in blocks:
            table = block._table
            assert table is not None
            assert np.array_equal(
                table.x, np.stack([s.xz_words()[0] for s in block.strings])
            )

    def test_reordered_shares_strings_and_selects_rows(self):
        block = PauliBlock(
            [PauliString("XXY"), PauliString("YYY"), PauliString("XYX")],
            [0.1, 0.2, 0.3], angle=0.4, label="b",
        )
        swapped = block.reordered([2, 0, 1])
        assert swapped.strings[0] is block.strings[2]
        assert swapped.weights == (0.3, 0.1, 0.2)
        assert np.array_equal(swapped.table.x, block.table.x[[2, 0, 1]])
        assert (swapped.angle, swapped.label) == (0.4, "b")

    def test_leaf_table_width_error(self):
        blocks = [PauliBlock(["XX"]), PauliBlock(["XXX"])]
        with pytest.raises(ValueError, match="width mismatch: 2 != 3"):
            leaf_table(blocks)

    def test_empty_lists(self):
        assert lower_blocks([]) == []
        assert logical_cnot_count([]) == 0
        assert logical_one_qubit_count([]) == 0
        assert leaf_table([]).num_terms == 0


class TestCompilePathStacksOnce:
    @staticmethod
    def from_strings_calls(monkeypatch, bench, encoder):
        calls = []
        original = PauliTable.from_strings.__func__

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(PauliTable, "from_strings", classmethod(counting))
        result = repro.compile(
            bench, compiler="tetris", device="heavy-hex:ibm-65",
            encoder=encoder, scale="full", use_cache=False,
        )
        monkeypatch.undo()
        return len(calls), result

    def test_from_strings_calls_do_not_grow_with_blocks(self, monkeypatch):
        # A full-scale compile of a fresh workload lowers, orders and
        # accounts its blocks on one stack, so the only table stacked
        # from strings is the workload build's, whatever the number of
        # blocks.
        small, small_result = self.from_strings_calls(monkeypatch, "ucc:UCC-8", "JW")
        large, large_result = self.from_strings_calls(monkeypatch, "ucc:UCC-12", "JW")
        blocks_small = len(workload_blocks("ucc:UCC-8", "JW", "full"))
        blocks_large = len(workload_blocks("ucc:UCC-12", "JW", "full"))
        assert blocks_large > blocks_small
        assert small == large <= 1
        assert large_result.metrics.cnot_gates > small_result.metrics.cnot_gates


def test_compiles_import_no_numpy_ma():
    # np.unique imports numpy.ma; loaded in the middle of a compile it
    # raised peak RSS by about 4 MB, and peak RSS is a benchmark metric.
    code = (
        "import sys, repro\n"
        "from repro.analysis.upper_bound import max_cancel_upper_bound\n"
        "from repro.workloads import workload_blocks\n"
        "for compiler in ('tetris', 'max-cancel', 'pcoast-like'):\n"
        "    repro.compile('chem:LiH', compiler=compiler, device='grid:4x4',\n"
        "                  scale='smoke', use_cache=False)\n"
        "max_cancel_upper_bound(workload_blocks('chem:LiH', 'JW', 'smoke'))\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
