"""Tests for the analysis layer (tables, the max-cancel bound) and for
the metrics a pipeline run reports."""

import pytest

from repro.analysis import format_table, improvement
from repro.hardware import fully_connected, linear
from repro.pauli import PauliBlock, PauliString
from repro.pipeline import run_pipeline


def sample_blocks():
    return [
        PauliBlock(
            [PauliString("XZZY"), PauliString("YZZX")], weights=[0.5, -0.5]
        ),
        PauliBlock([PauliString("ZZII")]),
    ]


class TestCompileAndMeasure:
    """Compile through a pipeline, then measure the result."""

    def test_record_fields(self):
        run = run_pipeline("tetris", sample_blocks(), linear(6))
        metrics = run.metrics()
        assert run.result.compiler_name.startswith("tetris")
        assert metrics.cnot_gates >= 0
        assert metrics.logical_cnots == 2 * (2 * 3) + 2 * 1
        assert run.compile_seconds >= 0 and run.optimize_seconds >= 0

    def test_optimization_levels_ordered(self):
        blocks = sample_blocks()
        raw, light, full = (
            run_pipeline("paulihedral", blocks, linear(6),
                         optimization_level=level).metrics()
            for level in (0, 1, 3)
        )
        assert full.cnot_gates <= light.cnot_gates <= raw.cnot_gates
        assert full.total_gates <= light.total_gates

    def test_cancel_ratio_bounds(self):
        # On the all-to-all device, so no SWAPs enter the ratio.
        run = run_pipeline("tetris", sample_blocks(), fully_connected(4))
        assert 0.0 <= run.metrics().cancel_ratio <= 1.0

    def test_max_cancel_upper_bound_empty(self):
        from repro.analysis.upper_bound import max_cancel_upper_bound

        assert max_cancel_upper_bound([]) == 0.0


class TestTables:
    def test_format_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 100, "b": 0.125}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert len(lines) == 4

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        assert "b" not in format_table(rows, columns=["a"])

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_thousands(self):
        text = format_table([{"n": 12345.0}])
        assert "12,345" in text


class TestImprovement:
    def test_reduction_is_negative(self):
        assert improvement(100, 80) == pytest.approx(-20.0)

    def test_zero_baseline(self):
        assert improvement(0, 10) == 0.0
