"""The CI workflow runs every job and step it claims to run.

A YAML mapping with a repeated key loads silently with the last value
winning, which is how a lost job header once folded the ``perf-smoke``
steps into ``noise-smoke`` and dropped noise-smoke's own checks.  The
loader here refuses duplicate keys, so that cannot happen unnoticed.
"""

import ast
import glob
import os
import shlex
import sys

import pytest

from repro.pipeline import resolve_compiler_spec, split_opt_suffix

yaml = pytest.importorskip("yaml")

TESTS = os.path.dirname(os.path.abspath(__file__))
WORKFLOW = os.path.join(TESTS, os.pardir, ".github", "workflows", "ci.yml")
SRC = os.path.join(TESTS, os.pardir, "src")

#: Import name -> pip distribution name, where the two differ.
DISTRIBUTIONS = {"yaml": "pyyaml"}

JOBS = ["tier1", "noise-smoke", "perf-smoke", "trace-smoke", "serve-smoke", "docs"]


class UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that raises on a repeated mapping key."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_workflow():
    with open(WORKFLOW) as handle:
        return yaml.load(handle, Loader=UniqueKeyLoader)


def step_names(job):
    return [step.get("name") for step in job["steps"]]


def test_loader_rejects_duplicate_keys():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate"):
        yaml.load("job:\n  steps: []\n  steps: []\n", Loader=UniqueKeyLoader)


def test_workflow_jobs():
    jobs = load_workflow()["jobs"]
    assert list(jobs) == JOBS
    for name, job in jobs.items():
        assert job["runs-on"] == "ubuntu-latest", name
        assert job["steps"], name


def test_noise_smoke_runs_its_own_checks():
    names = step_names(load_workflow()["jobs"]["noise-smoke"])
    assert names[-3:] == [
        "Noise-aware smoke (fidelity ranking + hash hygiene)",
        "Fidelity-ranked compile (docs recipe)",
        "Calibrated batch smoke (estimated_fidelity in CSV rows)",
    ]


def test_perf_smoke_gates_and_uploads_benchmarks():
    job = load_workflow()["jobs"]["perf-smoke"]
    commands = "\n".join(step.get("run", "") for step in job["steps"])
    for script in ("bench_pauli.py", "bench_templates.py --quick --gate",
                   "bench_passes.py", "bench_workloads.py --quick --gate"):
        assert script in commands
    upload = job["steps"][-1]["with"]["path"]
    assert "BENCH_workloads.json" in upload


def test_serve_smoke_stdio_survives_a_malformed_line():
    """A daemon that dies on a bad line, or honours a string flag, must
    fail the step: the malformed batch and the ``"drain": "false"``
    shutdown sit between the compile and the real shutdown, whose reply
    is grepped for, and the pipe fails with the daemon."""
    job = load_workflow()["jobs"]["serve-smoke"]
    run = next(s["run"] for s in job["steps"]
               if s.get("name", "").startswith("Serve stdio smoke"))
    assert "set -o pipefail" in run
    malformed = '{"op": "batch", "id": 2, "jobs": [], "priority": "high"}'
    string_flag = '{"op": "shutdown", "id": 3, "drain": "false"}'
    assert run.index('"op": "compile"') < run.index(malformed)
    assert run.index(malformed) < run.index(string_flag)
    assert run.index(string_flag) < run.index('"op": "shutdown", "id": 4}')
    assert """grep -q '"id": 2, .*"status": 400' stdio.out""" in run
    assert """grep -q '"id": 3, .*"status": 400' stdio.out""" in run
    assert """grep -q '"id": 4, "ok": true' stdio.out""" in run


def test_chemistry_only_jobs_install_numpy_alone():
    """serve-smoke and noise-smoke compile only ``chem:`` and ``ucc:``
    cells, which import no networkx: installing numpy alone makes a
    networkx import on the chemistry path fail those jobs."""
    jobs = load_workflow()["jobs"]
    for name in ("serve-smoke", "noise-smoke"):
        install = next(s["run"] for s in jobs[name]["steps"]
                       if s.get("name") == "Install dependencies")
        packages = [line.split()[2:] for line in install.splitlines()
                    if line.strip().startswith("pip install")]
        assert packages == [["numpy"]], name


def test_docs_runs_every_example():
    job = load_workflow()["jobs"]["docs"]
    step = next(s for s in job["steps"]
                if s.get("name") == "Run every example script")
    assert "examples/*.py" in step["run"]
    install = next(s["run"] for s in job["steps"]
                   if s.get("name") == "Install dependencies")
    assert "scipy" in install  # examples/vqe_energy.py minimizes with scipy


def repro_command_lines():
    """The arguments of every ``python -m repro.cli`` command the
    workflow runs, one list per command (continuation lines joined)."""
    for job in load_workflow()["jobs"].values():
        for step in job["steps"]:
            script = step.get("run", "").replace("\\\n", " ")
            for line in script.splitlines():
                tokens = shlex.split(line)
                if "repro.cli" in tokens:
                    yield tokens[tokens.index("repro.cli") + 1:]


def compiler_specs(args):
    """``(spec, batch)`` for each compiler spec one command names: batch
    modes split ``--compiler`` on commas, single mode (``compile
    --pipeline`` included) takes the whole value."""
    batch = args[:1] == ["batch"] or args[:2] == ["trace", "batch"]
    for index, token in enumerate(args):
        flag, _, value = token.partition("=")
        if flag in ("--compiler", "--pipeline"):
            value = value or args[index + 1]
            for spec in value.split(",") if batch else [value]:
                yield spec, batch


def test_every_compiler_spec_resolves():
    """A variant or pass the registry no longer knows fails here, not
    on the runner."""
    checked = []
    for args in repro_command_lines():
        for spec, batch in compiler_specs(args):
            # Single mode also takes a +o<level> suffix; a job does not.
            resolve_compiler_spec(spec if batch else split_opt_suffix(spec)[0])
            checked.append(spec)
    for spec in ("tetris:no-gray", "tetris:noise-aware+select=20",
                 "tetris:no-lookahead", "paulihedral"):
        assert spec in checked


def imported_modules():
    """Top-level module names every ``tests/*.py`` file imports."""
    names = set()
    for path in glob.glob(os.path.join(TESTS, "*.py")):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names


def test_tier1_installs_pyyaml():
    job = load_workflow()["jobs"]["tier1"]
    install = next(s["run"] for s in job["steps"]
                   if s.get("name") == "Install dependencies")
    assert "pyyaml" in install
    # Every third-party module a test imports is installed, or the
    # suite stops at collection on a clean runner.
    local = {os.path.splitext(name)[0] for name in os.listdir(TESTS)}
    local.update(os.listdir(SRC))
    third_party = imported_modules() - set(sys.stdlib_module_names) - local
    packages = set(install.split())
    missing = sorted(
        DISTRIBUTIONS.get(name, name) for name in third_party
        if DISTRIBUTIONS.get(name, name) not in packages
    )
    assert not missing, f"tier-1 does not install {missing}"
