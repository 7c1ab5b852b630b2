"""Tests for the report layer: manifest, store, renderer, drift gating.

The golden-file test pins the exact RESULTS.md markdown for a synthetic
two-experiment manifest — deliberately decoupled from the compilers, so
it catches renderer drift (column ordering, delta placement, header
text) without depending on compilation output.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments import REGISTRY
from repro.experiments.spec import (
    ExperimentSpec,
    PinnedMetric,
    check_pins,
    row_check,
)
from repro.registry import RegistryError
from repro.report import (
    EXPERIMENTS,
    ReportStore,
    experiment_ids,
    render_csv_artifacts,
    render_markdown,
    run_experiment,
)
from repro.report.manifest import ManifestEntry, select_entries
from repro.report.render import github_slug, markdown_table
from repro.report.store import REPORT_SCHEMA

GOLDEN = Path(__file__).parent / "golden" / "results_quick.md"

REPO_ROOT = Path(__file__).resolve().parent.parent


def fake_entries():
    """A deterministic two-experiment manifest (no compilation)."""
    alpha = ExperimentSpec(
        id="alpha",
        kind="table",
        title="Table α — fake workload stats",
        claim="Reproduced stats match the paper's counts.",
        grid="two benches, no compilation",
        columns=("bench", "cnot", "paper_cnot"),
        compilers=("tetris",),
        devices=("heavy-hex:ibm-65",),
        deltas=(("cnot_delta", "cnot", "paper_cnot"),),
        pins=(PinnedMetric(where={"bench": "X"}, column="cnot", expected=10),),
    )
    beta = ExperimentSpec(
        id="beta",
        kind="figure",
        title="Fig. β — fake sweep",
        claim="The sweep has the paper's shape.",
        grid="one bench x two parts",
        columns=("part", "bench"),
        section_by="part",
    )

    def run_alpha(scale):
        return [
            {"bench": "X", "cnot": 10, "paper_cnot": 12},
            {"bench": "Y", "cnot": 7, "paper_cnot": None},
        ]

    def run_beta(scale):
        return [
            {"part": "a", "bench": "X", "ratio": 0.5},
            {"part": "b", "bench": "X", "swaps": 3},
        ]

    return [ManifestEntry(alpha, run_alpha), ManifestEntry(beta, run_beta)]


class TestPinnedMetric:
    def test_where_mapping_normalizes_sorted(self):
        pin = PinnedMetric(where={"b": 1, "a": 2}, column="c", expected=0)
        assert pin.where == (("a", 2), ("b", 1))

    def test_matches_requires_every_pair(self):
        pin = PinnedMetric(
            where={"bench": "LiH", "encoder": "JW"}, column="cnot", expected=1
        )
        assert pin.matches({"bench": "LiH", "encoder": "JW", "cnot": 1})
        assert not pin.matches({"bench": "LiH", "encoder": "BK", "cnot": 1})

    def test_exact_tolerance(self):
        pin = PinnedMetric(where={}, column="c", expected=100)
        assert pin.within_tolerance(100)
        assert not pin.within_tolerance(100.5)

    def test_abs_tolerance(self):
        pin = PinnedMetric(where={}, column="c", expected=-5.45, abs_tol=0.5)
        assert pin.within_tolerance(-5.0)
        assert pin.within_tolerance(-5.95)
        assert not pin.within_tolerance(-6.0)

    def test_rel_tolerance(self):
        pin = PinnedMetric(where={}, column="c", expected=0.678, rel_tol=0.05)
        assert pin.within_tolerance(0.678 * 1.049)
        assert not pin.within_tolerance(0.678 * 1.06)

    def test_larger_tolerance_wins(self):
        pin = PinnedMetric(
            where={}, column="c", expected=10, rel_tol=0.01, abs_tol=2.0
        )
        assert pin.within_tolerance(11.9)  # abs_tol admits it


class TestCheckPins:
    SPEC = ExperimentSpec(
        id="t", kind="table", title="T", claim="c", grid="g",
        columns=("bench", "cnot"),
        pins=(
            PinnedMetric(where={"bench": "X"}, column="cnot", expected=10),
            PinnedMetric(
                where={"bench": "X"}, column="cnot", expected=10, scale="small"
            ),
        ),
    )

    def test_ok_and_scale_filtering(self):
        results = check_pins(self.SPEC, [{"bench": "X", "cnot": 10}], "smoke")
        assert len(results) == 1  # the small-scale pin is skipped
        assert results[0].ok and results[0].actual == 10

    def test_drift_fails_with_note(self):
        (result,) = check_pins(self.SPEC, [{"bench": "X", "cnot": 11}], "smoke")
        assert not result.ok
        assert "expected 10" in result.note
        assert "DRIFT" in result.describe()

    def test_missing_row_fails(self):
        (result,) = check_pins(self.SPEC, [{"bench": "Y", "cnot": 10}], "smoke")
        assert not result.ok and result.note == "no matching row"

    def test_empty_column_fails(self):
        (result,) = check_pins(self.SPEC, [{"bench": "X", "cnot": ""}], "smoke")
        assert not result.ok and "empty" in result.note

    def test_non_numeric_column_reports_drift_not_traceback(self):
        (result,) = check_pins(self.SPEC, [{"bench": "X", "cnot": "n/a"}], "smoke")
        assert not result.ok and "non-numeric" in result.note

    def test_row_check(self):
        spec = self.SPEC
        assert row_check(spec, []) == (f"{spec.id}: produced no rows",)
        assert row_check(spec, [{"bench": "X", "cnot": 1}]) == ()
        (problem,) = row_check(spec, [{"bench": "X"}])
        assert "missing declared columns" in problem and "cnot" in problem


class TestSpecValidation:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                id="x", kind="plot", title="t", claim="c", grid="g",
                columns=("a",),
            )

    def test_delta_columns_must_be_declared(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                id="x", kind="table", title="t", claim="c", grid="g",
                columns=("a",), deltas=(("d", "a", "missing"),),
            )


class TestManifest:
    def test_every_module_registered(self):
        assert set(experiment_ids()) == set(REGISTRY)
        assert len(experiment_ids()) == 15

    def test_specs_match_modules(self):
        for exp_id in experiment_ids():
            entry = EXPERIMENTS.get(exp_id)
            assert entry.id == exp_id
            assert entry.spec is REGISTRY[exp_id].EXPERIMENT
            assert entry.run is REGISTRY[exp_id].run
            assert entry.spec.claim and entry.spec.grid and entry.spec.columns

    def test_select_preserves_paper_order(self):
        entries = select_entries(["fig14", "table1"])
        assert [e.id for e in entries] == ["table1", "fig14"]

    def test_select_unknown_id(self):
        with pytest.raises(RegistryError):
            select_entries(["fig99"])

    def test_pins_cover_most_experiments(self):
        unpinned = [
            exp_id for exp_id in experiment_ids()
            if not EXPERIMENTS.get(exp_id).spec.pins_for_scale("smoke")
        ]
        # fig24 measures wall-clock only; everything else must be gated.
        assert unpinned == ["fig24"]


class TestStore:
    def test_roundtrip_preserves_rows_and_runtime(self, tmp_path):
        entry = fake_entries()[0]
        store = ReportStore(str(tmp_path))
        outcome = run_experiment(entry, scale="smoke", store=store)
        assert not outcome.from_store
        again = run_experiment(entry, scale="smoke", store=store)
        assert again.from_store
        assert again.rows == outcome.rows
        assert again.runtime_seconds == outcome.runtime_seconds

    def test_scale_and_spec_separate_keys(self, tmp_path):
        alpha, beta = fake_entries()
        store = ReportStore(str(tmp_path))
        assert store.request_hash(alpha, "smoke") != store.request_hash(alpha, "small")
        assert store.request_hash(alpha, "smoke") != store.request_hash(beta, "smoke")

    def test_refresh_recomputes(self, tmp_path):
        entry = fake_entries()[0]
        store = ReportStore(str(tmp_path))
        run_experiment(entry, scale="smoke", store=store)
        fresh = run_experiment(entry, scale="smoke", store=store, refresh=True)
        assert not fresh.from_store

    def test_corrupt_artifact_recomputes(self, tmp_path):
        entry = fake_entries()[0]
        store = ReportStore(str(tmp_path))
        run_experiment(entry, scale="smoke", store=store)
        (artifact,) = list(Path(tmp_path).glob("alpha-*.json"))
        artifact.write_text("{not json")
        outcome = run_experiment(entry, scale="smoke", store=store)
        assert not outcome.from_store  # recomputed and re-stored
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == REPORT_SCHEMA

    def test_stale_schema_misses(self, tmp_path):
        entry = fake_entries()[0]
        store = ReportStore(str(tmp_path))
        run_experiment(entry, scale="smoke", store=store)
        (artifact,) = list(Path(tmp_path).glob("alpha-*.json"))
        payload = json.loads(artifact.read_text())
        payload["schema"] = REPORT_SCHEMA - 1
        artifact.write_text(json.dumps(payload))
        assert store.get(entry, "smoke") is None

    def test_numpy_scalars_coerce_to_plain_numbers(self, tmp_path):
        np = pytest.importorskip("numpy")
        spec = ExperimentSpec(
            id="npexp", kind="table", title="np", claim="c", grid="g",
            columns=("bench", "count", "ratio"),
            pins=(PinnedMetric(where={"bench": "X"}, column="count", expected=7),),
        )
        entry = ManifestEntry(
            spec,
            lambda scale: [
                {"bench": "X", "count": np.int64(7), "ratio": np.float64(0.5)}
            ],
        )
        outcome = run_experiment(entry, scale="smoke", store=ReportStore(str(tmp_path)))
        (row,) = outcome.rows
        assert row["count"] == 7 and type(row["count"]) is int
        assert row["ratio"] == 0.5 and type(row["ratio"]) is float
        (result,) = check_pins(spec, outcome.rows, "smoke")
        assert result.ok

    def test_unserializable_row_value_fails_loudly(self, tmp_path):
        spec = ExperimentSpec(
            id="badexp", kind="table", title="bad", claim="c", grid="g",
            columns=("bench",),
        )
        entry = ManifestEntry(spec, lambda scale: [{"bench": object()}])
        with pytest.raises(TypeError, match="not\\s+JSON-serializable"):
            run_experiment(entry, scale="smoke", store=ReportStore(str(tmp_path)))

    def test_clear(self, tmp_path):
        store = ReportStore(str(tmp_path))
        for entry in fake_entries():
            run_experiment(entry, scale="smoke", store=store)
        assert store.clear() == 2
        assert store.get(fake_entries()[0], "smoke") is None


SLUG_CASES = (
    "Fig. 2 — headroom",
    "`code` and *em*",
    "table1 · Table I",
    "RESULTS — conf_isca_JinLHHZHZ24 reproduction",
    "See [docs](ARCH.md) here",
    "Mixed_under_scores and-hyphens  double  spaces",
    "## trailing hashes ##",
)


class TestRenderer:
    def test_github_slug(self):
        assert github_slug("Fig. 2 — headroom") == "fig-2--headroom"
        assert github_slug("`code` and *em*") == "code-and-em"
        assert github_slug("table1 · Table I") == "table1--table-i"
        # GitHub keeps literal underscores in anchors.
        assert (
            github_slug("RESULTS — conf_isca_JinLHHZHZ24 reproduction")
            == "results--conf_isca_jinlhhzhz24-reproduction"
        )
        # Links reduce to their text.
        assert github_slug("See [docs](ARCH.md) here") == "see-docs-here"

    def test_slug_matches_check_links_copy(self):
        """The renderer and the CI checker must slug identically, or the
        renderer could emit anchors the checker rejects (or vice versa)."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_links", REPO_ROOT / "tools" / "check_links.py"
        )
        check_links = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_links)
        for heading in SLUG_CASES:
            assert check_links.github_slug(heading) == github_slug(heading), heading

    def test_markdown_table_blank_for_missing(self):
        table = markdown_table([{"a": 1}, {"a": 2, "b": None}], ["a", "b"])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[2] == "| 1 |  |"
        assert lines[3] == "| 2 |  |"

    def test_golden_two_experiment_report(self, tmp_path):
        """Pin the exact markdown for the synthetic --quick manifest."""
        store = ReportStore(str(tmp_path))
        outcomes = [
            run_experiment(entry, scale="smoke", store=store)
            for entry in fake_entries()
        ]
        for outcome in outcomes:  # pin the recorded runtime for the golden bytes
            outcome.runtime_seconds = 0.05
        document = render_markdown(
            outcomes, scale="smoke", quick=True, csv_dir_rel="results"
        )
        assert document == GOLDEN.read_text()

    def test_warm_render_is_byte_identical(self, tmp_path):
        store = ReportStore(str(tmp_path))
        first = [
            run_experiment(entry, scale="smoke", store=store)
            for entry in fake_entries()
        ]
        second = [
            run_experiment(entry, scale="smoke", store=store)
            for entry in fake_entries()
        ]
        assert all(outcome.from_store for outcome in second)
        kwargs = dict(scale="smoke", quick=True, csv_dir_rel="results")
        assert render_markdown(first, **kwargs) == render_markdown(second, **kwargs)

    def test_csv_artifacts(self, tmp_path):
        store = ReportStore(str(tmp_path / "store"))
        outcomes = [
            run_experiment(entry, scale="smoke", store=store)
            for entry in fake_entries()
        ]
        paths = render_csv_artifacts(outcomes, str(tmp_path / "csv"))
        assert [os.path.basename(p) for p in paths] == ["alpha.csv", "beta.csv"]
        alpha = Path(paths[0]).read_text().splitlines()
        assert alpha[0] == "bench,cnot,paper_cnot"
        assert alpha[1] == "X,10,12"
        assert alpha[2] == "Y,7,"  # None -> empty cell
        beta = Path(paths[1]).read_text().splitlines()
        assert beta[0] == "part,bench,ratio,swaps"


class TestReportCli:
    def test_list(self, capsys):
        from repro.report.cli import report_main

        assert report_main(["--list"]) == 0
        out = capsys.readouterr().out
        for exp_id in experiment_ids():
            assert exp_id in out

    def test_only_table1_quick_check(self, tmp_path, capsys):
        """End-to-end on the cheapest real experiment (no compilation)."""
        from repro.report.cli import report_main

        out_md = tmp_path / "RESULTS.md"
        code = report_main([
            "--only", "table1", "--quick", "--check",
            "--out", str(out_md), "--csv-dir", str(tmp_path / "results"),
            "--store-dir", str(tmp_path / "store"), "--quiet",
        ])
        assert code == 0
        document = out_md.read_text()
        assert "table1" in document and "pauli_delta" in document
        assert (tmp_path / "results" / "table1.csv").exists()
        assert "check: ok" in capsys.readouterr().out

    def test_env_overrides_restored_after_run(self, tmp_path, monkeypatch):
        """--no-cache/--jobs must not leak into the calling process."""
        from repro.report.cli import report_main
        from repro.service.cache import CACHE_TOGGLE_ENV
        from repro.service.pool import JOBS_ENV

        monkeypatch.delenv(CACHE_TOGGLE_ENV, raising=False)
        monkeypatch.setenv(JOBS_ENV, "2")
        code = report_main([
            "--only", "table1", "--quick", "--no-cache", "--jobs", "8",
            "--out", str(tmp_path / "R.md"), "--csv-dir", "none",
            "--store-dir", str(tmp_path / "store"), "--quiet",
        ])
        assert code == 0
        assert CACHE_TOGGLE_ENV not in os.environ
        assert os.environ[JOBS_ENV] == "2"

    def test_scale_default_honors_repro_scale(self, monkeypatch):
        from repro.report.cli import build_report_parser

        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert build_report_parser().parse_args([]).scale == "smoke"
        monkeypatch.delenv("REPRO_SCALE")
        assert build_report_parser().parse_args([]).scale == "small"

    def test_check_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        """A drifted pin must fail the run with exit code 1."""
        from repro.report import cli as report_cli

        entry = fake_entries()[0]
        bad_spec = ExperimentSpec(
            id="alpha", kind="table", title=entry.spec.title,
            claim=entry.spec.claim, grid=entry.spec.grid,
            columns=entry.spec.columns,
            pins=(PinnedMetric(where={"bench": "X"}, column="cnot", expected=999),),
        )
        bad_entry = ManifestEntry(bad_spec, entry.run)
        monkeypatch.setattr(
            report_cli, "select_entries", lambda only: [bad_entry]
        )
        code = report_cli.report_main([
            "--only", "alpha", "--quick", "--check",
            "--out", str(tmp_path / "RESULTS.md"),
            "--csv-dir", "none",
            "--store-dir", str(tmp_path / "store"), "--quiet",
        ])
        assert code == 1
        assert "DRIFT" in capsys.readouterr().err


class TestCheckLinksAnchors:
    """tools/check_links.py must validate #section fragments."""

    def run_checker(self, *paths):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_links.py"),
             *[str(p) for p in paths]],
            capture_output=True, text=True,
        )

    def test_valid_and_broken_anchors(self, tmp_path):
        (tmp_path / "a.md").write_text(textwrap.dedent("""\
            # Title Here

            ## Section `One`

            [ok same-file](#section-one)
            [ok cross-file](b.md#other-part)
            [broken](#no-such-section)
            [broken cross](b.md#nope)
        """))
        (tmp_path / "b.md").write_text("# B\n\n## Other Part\n")
        result = self.run_checker(tmp_path / "a.md", tmp_path / "b.md")
        assert result.returncode == 1
        assert "missing anchor -> #no-such-section" in result.stdout
        assert "missing anchor -> b.md#nope" in result.stdout
        assert "2 broken link(s)/anchor(s)" in result.stdout

    def test_duplicate_headings_get_suffixes(self, tmp_path):
        (tmp_path / "dup.md").write_text(textwrap.dedent("""\
            ## Repeat

            ## Repeat

            [first](#repeat)
            [second](#repeat-1)
            [third is broken](#repeat-2)
        """))
        result = self.run_checker(tmp_path / "dup.md")
        assert result.returncode == 1
        assert "#repeat-2" in result.stdout

    def test_fenced_blocks_ignored(self, tmp_path):
        (tmp_path / "fence.md").write_text(textwrap.dedent("""\
            # Doc

            ```
            [not a link](missing.md)
            ## not a heading
            ```

            [ok](#doc)
        """))
        result = self.run_checker(tmp_path / "fence.md")
        assert result.returncode == 0

    def test_repo_docs_pass(self):
        result = self.run_checker(
            REPO_ROOT / "README.md", REPO_ROOT / "docs", REPO_ROOT / "examples"
        )
        assert result.returncode == 0, result.stdout


class TestCommittedResults:
    """docs/RESULTS.md must stay in sync with the manifest."""

    def test_every_experiment_rendered(self):
        document = (REPO_ROOT / "docs" / "RESULTS.md").read_text()
        for exp_id in experiment_ids():
            assert f"## {exp_id} · " in document, exp_id
        for exp_id in experiment_ids():
            assert (REPO_ROOT / "docs" / "results" / f"{exp_id}.csv").exists()
