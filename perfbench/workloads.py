"""The benchmark's three workloads and the output checks run after them.

Each workload turns ``(seed, seconds)`` into a list of requests
(:meth:`Workload.plan`), pays what a user pays once
(:meth:`Workload.setup`), answers one request per :meth:`Workload.call`
(the timed part) and checks outputs off the clock
(:meth:`Workload.check`).  The seed orders the requests and draws the
angles; the request set itself is fixed, so the exact output totals are
the same for every seed and repeat bit for bit.

Requests go only through public entry points: ``repro.compile``,
``repro.service.jobs.job_blocks``, ``BackgroundServer`` +
``ReproClient``, ``CompiledTemplate.bind`` and
``repro.circuit.metrics.measure_circuit``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro import obs
from repro.circuit.metrics import measure_circuit
from repro.hardware.families import resolve_device
from repro.pipeline import run_pipeline
from repro.service.jobs import CompileJob, job_blocks
from repro.verify import verify_compilation
from repro.workloads import workload_blocks

DEVICE = "heavy-hex:ibm-65"

#: The subset a ``/bind`` reply row carries, as (row key, metrics field).
BIND_FIELDS = (
    ("cnot", "cnot_gates"), ("depth", "depth"),
    ("total", "total_gates"), ("oneq", "one_qubit_gates"),
)


@dataclass
class Outcome:
    """One timed request: its latency and the output it produced."""

    kind: str
    latency_s: float
    ok: bool
    error: str = ""
    served: str = ""
    cnot: int = 0
    depth: int = 0
    duration: int = 0
    gates: int = 0
    swap_cnots: int = 0
    bridge_cnots: int = 0
    canceled_cnots: int = 0
    logical_cnots: int = 0
    #: Host reference kernel seconds measured around the request.
    host_s: float = 0.0

    @classmethod
    def failed(cls, kind: str, latency_s: float, error: str) -> "Outcome":
        return cls(kind=kind, latency_s=latency_s, ok=False, error=error)

    @classmethod
    def from_metrics(cls, kind, latency_s, metrics, served="") -> "Outcome":
        return cls(
            kind=kind, latency_s=latency_s, ok=True, served=served,
            cnot=metrics.cnot_gates, depth=metrics.depth,
            duration=metrics.duration, gates=metrics.total_gates,
            swap_cnots=metrics.swap_cnots, bridge_cnots=metrics.bridge_cnots,
            canceled_cnots=metrics.canceled_cnots,
            logical_cnots=metrics.logical_cnots,
        )


@dataclass
class CheckReport:
    """What the off-the-clock checks found and timed."""

    failed_ops: List[int] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    ok: bool = True
    measure_s: List[float] = field(default_factory=list)
    bind_s: List[float] = field(default_factory=list)
    bound_measure_s: List[float] = field(default_factory=list)
    serialize_s: float = 0.0
    result_bytes: int = 0

    def fail(self, note: str, op_index: Optional[int] = None) -> None:
        self.ok = False
        self.notes.append(note)
        if op_index is not None and op_index not in self.failed_ops:
            self.failed_ops.append(op_index)


# ----------------------------------------------------------------------
# checks shared by the workloads
# ----------------------------------------------------------------------

def edges_ok(circuit, coupling) -> bool:
    """Every two-qubit gate acts on a coupling edge (the benchmark's own
    test, independent of the router's compliance check)."""
    allowed = {frozenset(edge) for edge in coupling.edges}
    return all(
        frozenset(gate.qubits) in allowed
        for gate in circuit.gates
        if len(gate.qubits) == 2 and gate.name != "barrier"
    )


def timed_measure(circuit, report: CheckReport, bound: bool = False):
    with obs.span("bench:replay-measure", "bench"):
        start = time.perf_counter()
        metrics = measure_circuit(circuit)
        elapsed = time.perf_counter() - start
    report.measure_s.append(elapsed)
    if bound:
        report.bound_measure_s.append(elapsed)
    return metrics


def recheck_cell(job: CompileJob, outcome: Outcome, index: int,
                 report: CheckReport) -> None:
    """Recompile ``job`` through ``run_pipeline``; its metrics must equal
    the timed result and its circuit must respect the coupling graph."""
    blocks = job_blocks(job)
    coupling = resolve_device(job.device, blocks[0].num_qubits)
    run = run_pipeline(
        job.compiler, blocks, coupling,
        optimization_level=job.optimization_level, params=dict(job.params),
    )
    metrics = run.metrics()
    expected = {
        "cnot_gates": outcome.cnot, "depth": outcome.depth,
        "duration": outcome.duration, "total_gates": outcome.gates,
        "swap_cnots": outcome.swap_cnots, "bridge_cnots": outcome.bridge_cnots,
        "canceled_cnots": outcome.canceled_cnots,
        "logical_cnots": outcome.logical_cnots,
    }
    for name, value in expected.items():
        if getattr(metrics, name) != value:
            report.fail(
                f"{job.label()}: recompiled {name}={getattr(metrics, name)} "
                f"!= timed {value}", index,
            )
    measured = timed_measure(run.result.circuit, report)
    if (measured.cnot_gates, measured.depth) != (outcome.cnot, outcome.depth):
        report.fail(f"{job.label()}: measure_circuit disagrees", index)
    if not edges_ok(run.result.circuit, coupling):
        report.fail(f"{job.label()}: two-qubit gate off the coupling graph",
                    index)


def verify_compilers(compilers: Sequence[str], report: CheckReport) -> None:
    """Statevector-check each compiler on a 12-qubit grid device."""
    for compiler in compilers:
        bench = "qaoa:Rand-12" if compiler in QAOA_COMPILERS else "chem:LiH"
        blocks = workload_blocks(bench, "JW", "smoke")
        coupling = resolve_device("grid:3x4", blocks[0].num_qubits)
        run = run_pipeline(compiler, blocks, coupling)
        verdict = verify_compilation(run.result, blocks, coupling, trials=1)
        if not verdict.ok or verdict.equivalence_overlap is None:
            report.fail(f"verify {compiler} on {bench}@grid:3x4: "
                        f"{'; '.join(verdict.notes) or 'not checked'}")


def sample_indexes(rng: random.Random, candidates: Sequence[int],
                   count: int) -> List[int]:
    return sorted(rng.sample(list(candidates), min(count, len(candidates))))


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------

class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""
    #: Compilers whose output the statevector check covers.
    compilers: Tuple[str, ...] = ()
    #: Run the host reference kernel after every this many requests.
    host_every = 1
    #: Also run it every 0.1 s during requests (child.HostSampler).
    sample_during = True

    def plan(self, seed: int, seconds: int) -> List[Any]:
        raise NotImplementedError

    def setup(self, ops: List[Any], seed: int) -> Any:
        raise NotImplementedError

    def call(self, state: Any, op: Any) -> Any:
        raise NotImplementedError

    def outcome(self, state: Any, op: Any, reply: Any,
                latency_s: float) -> Outcome:
        raise NotImplementedError

    def check(self, state, ops, outcomes, seed: int,
              report: CheckReport) -> None:
        raise NotImplementedError

    def close(self, state: Any) -> None:
        pass


class ColdCompile(Workload):
    """One user's cold ``tetris`` compile on heavy-hex:ibm-65 at a time.

    Every request is a distinct (workload, encoder, scale), so each one
    builds its workload: the ROADMAP's request a user actually makes.
    """

    name = "cold-compile"
    compilers = ("tetris",)

    #: (bench, encoder, scale, nominal seconds on a 2-vCPU Xeon KVM
    #: guest).  A run takes the shortest prefix whose nominal cost
    #: reaches ``--seconds``; the order mixes UCC-n, molecules and the
    #: small-scale requests that build a whole operator for 120 blocks.
    MENU = (
        ("ucc:UCC-12", "JW", "full", 0.8),
        ("chem:LiH", "BK", "full", 0.4),
        ("chem:BeH2", "JW", "full", 1.0),
        ("chem:LiCl", "JW", "small", 6.0),
        ("ucc:UCC-16", "JW", "full", 1.4),
        ("ucc:UCC-20", "BK", "full", 2.8),
        ("chem:CH4", "BK", "full", 3.3),
        ("ucc:UCC-24", "BK", "full", 4.7),
        ("chem:CO2", "BK", "small", 7.5),
        ("ucc:UCC-28", "JW", "full", 6.5),
        ("chem:MgH2", "JW", "full", 7.0),
        ("ucc:UCC-14", "BK", "full", 1.1),
        ("chem:LiH", "JW", "full", 0.4),
        ("chem:BeH2", "BK", "full", 1.1),
    )
    #: Requests cheaper than this (nominal s) may be recompiled as checks.
    CHECK_BELOW_S = 1.5

    def plan(self, seed, seconds):
        ops, cost = [], 0.0
        for entry in self.MENU:
            if cost >= seconds:
                break
            ops.append(entry)
            cost += entry[3]
        random.Random(seed).shuffle(ops)
        return ops

    def setup(self, ops, seed):
        # What a compiling process pays once, so that no request's time
        # depends on whether it happens to run first: the lazily
        # imported encoders and the device's coupling graph.
        import repro.chem  # noqa: F401

        resolve_device(DEVICE).distance_matrix()
        return None

    def call(self, state, op):
        bench, encoder, scale, _ = op
        return repro.compile(bench, compiler="tetris", device=DEVICE,
                             encoder=encoder, scale=scale, use_cache=False)

    def outcome(self, state, op, reply, latency_s):
        return Outcome.from_metrics("compile", latency_s, reply.metrics)

    def check(self, state, ops, outcomes, seed, report):
        cheap = [i for i, op in enumerate(ops) if op[3] < self.CHECK_BELOW_S]
        for index in sample_indexes(random.Random(seed), cheap, 2):
            bench, encoder, scale, _ = ops[index]
            job = CompileJob(bench=bench, compiler="tetris", encoder=encoder,
                             device=DEVICE, scale=scale)
            recheck_cell(job, outcomes[index], index, report)
        verify_compilers(self.compilers, report)


CHEM_COMPILERS = ("tetris", "paulihedral", "tket-like", "pcoast-like",
                  "max-cancel")
QAOA_COMPILERS = ("tetris-qaoa", "2qan-like")


class PaperSweep(Workload):
    """The paper's comparison grid, one process, no disk cache.

    The only workload where the baselines' passes and the SWAP router
    run; the workload memo is filled during set-up, so workload builds
    do no timed work.
    """

    name = "paper-sweep"
    compilers = CHEM_COMPILERS + QAOA_COMPILERS
    DEVICES = ("heavy-hex:ibm-65", "sycamore")
    #: chem:CH4's ten cells took two thirds of the 38-cell grid's time;
    #: without them three passes of the grid fit one run.
    CHEM = ("chem:LiH", "chem:BeH2")
    QAOA = ("qaoa:Rand-20", "qaoa:REG3-20")
    #: Nominal seconds of one pass over the 28 cells.
    GRID_NOMINAL_S = 6.5

    def cells(self) -> List[Tuple[str, str, str]]:
        grid = [(b, c) for b in self.CHEM for c in CHEM_COMPILERS]
        grid += [(b, c) for b in self.QAOA for c in QAOA_COMPILERS]
        return [(b, c, d) for b, c in grid for d in self.DEVICES]

    def plan(self, seed, seconds):
        rng = random.Random(seed)
        grids = max(1, math.floor(seconds / self.GRID_NOMINAL_S))
        ops = []
        for _ in range(grids):
            cells = self.cells()
            rng.shuffle(cells)
            ops += cells
        return ops

    def job(self, cell) -> CompileJob:
        bench, compiler, device = cell
        return CompileJob(bench=bench, compiler=compiler, device=device,
                          scale="full")

    def setup(self, ops, seed):
        for bench in self.CHEM + self.QAOA:
            job_blocks(self.job((bench, "tetris", DEVICE)))
        return None

    def call(self, state, op):
        bench, compiler, device = op
        return repro.compile(bench, compiler=compiler, device=device,
                             scale="full", use_cache=False)

    def outcome(self, state, op, reply, latency_s):
        return Outcome.from_metrics("compile", latency_s, reply.metrics)

    def check(self, state, ops, outcomes, seed, report):
        # One cheap routed baseline, one tetris cell and one QAOA cell.
        rng = random.Random(seed)
        groups = (
            [i for i, op in enumerate(ops)
             if op[0] == "chem:LiH" and op[1] in ("tket-like", "pcoast-like")],
            [i for i, op in enumerate(ops)
             if op[0] == "chem:LiH" and op[1] == "tetris"],
            [i for i, op in enumerate(ops) if op[0] in self.QAOA],
        )
        for group in groups:
            for index in sample_indexes(rng, group, 1):
                recheck_cell(self.job(ops[index]), outcomes[index], index,
                             report)
        verify_compilers(self.compilers, report)


@dataclass
class ServeState:
    server: Any
    client: Any
    resident: CompileJob
    thetas: np.ndarray
    jobs: Dict[float, CompileJob]
    #: JobResults of the timed /compile replies, for the serialize replay.
    results: List[Any] = field(default_factory=list)


class VqeServe(Workload):
    """One closed-loop optimizer on one keep-alive connection to an
    in-process ``BackgroundServer(workers=0)`` with a private disk cache.

    Per 100 requests: 85 ``/bind`` calls on one resident ansatz at
    seeded angles, 12 ``/compile`` re-requests of cells compiled during
    set-up (hot-cache reads) and 3 ``/compile`` calls for new cells of
    the same size (fresh compiles that write the disk and hot caches).
    The mix keeps p50 and p95 inside the bind mode.
    """

    name = "vqe-serve"
    compilers = ("tetris",)
    host_every = 10
    #: The client waits on the daemon thread; a kernel run in a signal
    #: handler would hold the interpreter and stall it.
    sample_during = False
    RESIDENT = dict(bench="chem:BeH2", compiler="tetris", device=DEVICE,
                    scale="small")
    MIX = (("bind", 85), ("hot", 12), ("fresh", 3))
    HOT_W = tuple(round(2.0 + 0.05 * i, 2) for i in range(8))
    FRESH_W0 = 3.0
    #: Nominal requests per second; at least 4 mixes (>= 340 binds), so
    #: p95 of the requests and of the binds has 10 samples beyond it.
    NOMINAL_RATE = 50.0
    MIN_MIXES = 4

    def cell(self, w: float) -> CompileJob:
        return CompileJob(bench="chem:LiH", compiler=f"tetris:w={w:.2f}",
                          device=DEVICE, scale="smoke")

    def plan(self, seed, seconds):
        mixes = max(self.MIN_MIXES,
                    math.floor(seconds * self.NOMINAL_RATE / 100))
        ops: List[Tuple[str, Any]] = []
        binds = fresh = hot = 0
        for kind, share in self.MIX:
            for _ in range(share * mixes):
                if kind == "bind":
                    ops.append(("bind", binds))
                    binds += 1
                elif kind == "hot":
                    ops.append(("hot", self.HOT_W[hot % len(self.HOT_W)]))
                    hot += 1
                else:
                    ops.append(("fresh", round(self.FRESH_W0 + 0.05 * fresh, 2)))
                    fresh += 1
        random.Random(seed).shuffle(ops)
        return ops

    def setup(self, ops, seed):
        from repro.serve import BackgroundServer

        server = BackgroundServer(workers=0).start()
        client = server.client()
        resident = CompileJob(parametric=True, **self.RESIDENT)
        first = client.bind(job=resident)
        for w in self.HOT_W:
            client.compile(job=self.cell(w))
        binds = sum(1 for kind, _ in ops if kind == "bind")
        thetas = np.random.default_rng(seed).uniform(
            -np.pi, np.pi, (binds, first.parameters)
        )
        return ServeState(
            server=server, client=client, resident=resident, thetas=thetas,
            jobs={w: self.cell(w) for kind, w in ops if kind != "bind"},
        )

    def call(self, state, op):
        kind, key = op
        if kind == "bind":
            return state.client.bind(job=state.resident, theta=state.thetas[key])
        return state.client.compile(job=state.jobs[key])

    def outcome(self, state, op, reply, latency_s):
        kind, _ = op
        if kind == "bind":
            row = reply.metrics
            result = Outcome(
                kind=kind, latency_s=latency_s, ok=True, served=reply.served,
                cnot=row["cnot"], depth=row["depth"],
                duration=row["duration"], gates=row["total"],
            )
            expected = "template"
        else:
            state.results.append(reply.result)
            result = Outcome.from_metrics(kind, latency_s,
                                          reply.result.metrics,
                                          served=reply.served)
            expected = kind
        if reply.served != expected:
            result.ok = False
            result.error = f"{kind} request served {reply.served!r}"
        return result

    def check(self, state, ops, outcomes, seed, report):
        rng = random.Random(seed)
        # A /bind at the workload's own angles returns the baked compile.
        own = state.client.bind(job=state.resident)
        baked = repro.compile(use_cache=False, **self.RESIDENT).metrics
        for key, name in BIND_FIELDS:
            if own.metrics[key] != getattr(baked, name):
                report.fail(f"/bind at own angles: {key}={own.metrics[key]} "
                            f"!= baked {getattr(baked, name)}")
        # Replay a sample of the timed binds in-process (the daemon's
        # disk cache holds the template): same metrics, on-edge gates.
        template = repro.compile(parametric=True, **self.RESIDENT).template
        coupling = resolve_device(DEVICE, template.num_qubits)
        binds = [i for i, (kind, _) in enumerate(ops) if kind == "bind"]
        for index in sample_indexes(rng, binds, 60):
            with obs.span("bench:replay-bind", "bench"):
                start = time.perf_counter()
                circuit = template.bind(state.thetas[ops[index][1]])
                report.bind_s.append(time.perf_counter() - start)
            measured = timed_measure(circuit, report, bound=True)
            outcome = outcomes[index]
            if (measured.cnot_gates, measured.depth, measured.total_gates) != (
                outcome.cnot, outcome.depth, outcome.gates
            ):
                report.fail(f"bind #{index}: replayed metrics differ", index)
            if not edges_ok(circuit, coupling):
                report.fail(f"bind #{index}: gate off the coupling graph",
                            index)
        compiles = [i for i, (kind, _) in enumerate(ops) if kind != "bind"]
        for index in sample_indexes(rng, compiles, 2):
            recheck_cell(state.jobs[ops[index][1]], outcomes[index], index,
                         report)
        # Re-serialize what the daemon served: its to_json cost and bytes.
        for result in state.results:
            with obs.span("bench:serialize", "bench"):
                start = time.perf_counter()
                text = result.to_json()
                report.serialize_s += time.perf_counter() - start
            report.result_bytes += len(text.encode("utf-8"))
        verify_compilers(self.compilers, report)

    def close(self, state):
        state.client.close()
        state.server.stop()


WORKLOADS = {w.name: w for w in (ColdCompile(), PaperSweep(), VqeServe())}
