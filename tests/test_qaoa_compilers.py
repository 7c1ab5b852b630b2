"""Tests for the QAOA-specialized pipelines (2QAN-like and Tetris-QAOA).

Most checks look at the compiler's own output before cleanup: the
``+o0`` level, which only decomposes SWAPs into CNOTs.
"""

import numpy as np
import pytest

from repro.compiler import extract_edges
from repro.hardware import grid, linear, ring
from repro.pauli import PauliBlock, PauliString
from repro.pipeline import run_pipeline
from repro.qaoa import benchmark_graph, maxcut_blocks, random_graph
from repro.routing import verify_hardware_compliant
from repro.sim import Statevector

from helpers import assert_physical_equivalence


def small_qaoa_blocks(seed=0):
    graph = random_graph(6, 8, seed=seed)
    return maxcut_blocks(graph, gamma=0.7)


class TestExtractEdges:
    def test_valid_blocks(self):
        blocks = small_qaoa_blocks()
        edges = extract_edges(blocks)
        assert len(edges) == 8
        assert all(len(e) == 3 for e in edges)

    def test_rejects_multi_string_blocks(self):
        block = PauliBlock([PauliString("ZZ"), PauliString("ZZ")])
        with pytest.raises(ValueError):
            extract_edges([block])

    def test_rejects_non_zz(self):
        with pytest.raises(ValueError):
            extract_edges([PauliBlock([PauliString("XX")])])
        with pytest.raises(ValueError):
            extract_edges([PauliBlock([PauliString("ZZZ")])])


@pytest.mark.parametrize(
    "compiler", ["2qan-like", "tetris-qaoa"], ids=["2qan", "tetris-qaoa"]
)
class TestQAOACompilers:
    def test_compliance(self, compiler):
        blocks = small_qaoa_blocks()
        for coupling in (linear(8), grid(2, 4), ring(8)):
            result = run_pipeline(f"{compiler}+o0", blocks, coupling).result
            assert verify_hardware_compliant(result.circuit, coupling)

    def test_all_edges_scheduled(self, compiler):
        blocks = small_qaoa_blocks()
        result = run_pipeline(f"{compiler}+o0", blocks, linear(8)).result
        rz_count = result.circuit.count_ops().get("rz", 0)
        assert rz_count == len(blocks)

    def test_semantics_without_wrappers(self, compiler):
        """Cost layers commute, so any scheduling order is equivalent."""
        blocks = small_qaoa_blocks()
        result = run_pipeline(f"{compiler}+o0", blocks, linear(8)).result
        # All ZZ terms commute: block order irrelevant, natural order fine.
        result.extra.setdefault("block_order", list(range(len(blocks))))
        assert_physical_equivalence(result, blocks)

    def test_beats_per_string_router(self, compiler):
        graph = benchmark_graph("Rand-16", seed=0)
        blocks = maxcut_blocks(graph)
        from repro.hardware import ibm_ithaca_65

        coupling = ibm_ithaca_65()
        ph = run_pipeline("paulihedral", blocks, coupling).metrics()
        smart = run_pipeline(compiler, blocks, coupling).metrics()
        assert smart.cnot_gates < ph.cnot_gates


class TestQubitReuse:
    def test_wrappers_emit_measure_and_reset(self):
        blocks = small_qaoa_blocks()
        result = run_pipeline("tetris-qaoa:wrappers+o0", blocks, linear(8)).result
        counts = result.circuit.count_ops()
        assert counts.get("measure", 0) == 6  # one per logical qubit
        assert counts.get("reset", 0) == 6
        assert counts.get("h", 0) == 6
        assert counts.get("rx", 0) == 6

    def test_mirror_probability_with_reuse(self):
        """Bridges through reset slots keep the |0...0> statistics exact.

        Compile a tiny cost layer with wrappers; simulate; each measured
        qubit's slot must be |0> after its reset.
        """
        graph = random_graph(4, 4, seed=2)
        blocks = maxcut_blocks(graph, gamma=0.0)  # zero angle: identity layer
        result = run_pipeline("tetris-qaoa+o0", blocks, linear(5)).result
        sim = Statevector(5, rng=np.random.default_rng(0))
        sim.run(result.circuit)
        # gamma=0 cost layer is the identity: state returns to |0...0>.
        assert sim.probability_all_zero() == pytest.approx(1.0)
